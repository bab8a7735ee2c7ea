"""Seeded tests that the midpoint sampler draws what ``random`` would draw.

``polytope._below(rng.getrandbits, n)`` is CPython's ``randrange(n)``: it
redraws ``n.bit_length()`` random bits until the value is below n, and
``polytope._sample(rng.getrandbits, n, k)`` is CPython's ``sample(range(n),
k)``, on its pool path and on its set path.  These tests compare them, and the
span members ``polytope._random_member_ints`` draws with them, with
``randrange``, ``randint`` and ``sample`` value by value and state by state.
They compare ``sample_euclidean_midpoints``, which draws each t in
its trial loop, with the Fraction sampler in ``oracles.py`` in both flavors: at
one and two generators, past the 21 generators where ``random.sample``
switches to its set path, and on a 2x2 polytope at 2,000 trials.  They need
neither pytest nor hypothesis, so any Python the package supports can run
them as a script:

    PYTHONPATH=src:tests python tests/test_sampler_draws.py
"""

import random
from fractions import Fraction

from tropgeo import Flavor, Polytope, TropMatrix, dominator, sample_euclidean_midpoints
from tropgeo.polytope import _below, _random_member_ints, _sample

from oracles import reference_sample_midpoints

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS

# every n up to 64 (each power of two and its neighbours), the sampler's own
# bounds (2*8+1 numerators, 6 and 15 denominators) and one n past 2**40
BOUNDS = (*range(1, 65), 17, 6, 15, 2**41 + 12345)


def matrix(rows) -> TropMatrix:
    return TropMatrix(tuple(tuple(Fraction(e) for e in r) for r in rows))


def random_matrix(rng: random.Random, n: int, m: int) -> TropMatrix:
    return matrix([[Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(m)] for _ in range(n)])


def test_below_is_randrange():
    for seed in range(200):
        a, b, c = random.Random(seed), random.Random(seed), random.Random(seed)
        for n in BOUNDS:
            for _ in range(3):
                x = _below(a.getrandbits, n)
                assert x == b.randrange(n) == c.randint(5, n + 4) - 5, (seed, n)
        assert a.getstate() == b.getstate() == c.getstate(), seed


def test_sample_is_random_sample():
    # every k at each n up to 45; the switch to the set path at k <= 5 (n = 21,
    # 22) and at k = 6 (n = 85, 86), where setsize is 21 + 4**3; and n = 300
    shapes = [(n, k) for n in range(1, 46) for k in range(1, n + 1)]
    shapes += [(n, k) for n in (85, 86) for k in (1, 5, 6, 7)]
    shapes += [(300, k) for k in (1, 5, 6, 21, 22, 100, 299, 300)]
    for seed in range(4):
        a, b = random.Random(seed), random.Random(seed)
        for n, k in shapes:
            assert _sample(a.getrandbits, n, k) == b.sample(range(n), k), (seed, n, k)
            assert a.getstate() == b.getstate(), (seed, n, k)


def test_span_member_draws_are_randint_and_sample():
    # the sampler's table for steps 60 // b: coefficient a/b shifts by a * (60 // b)
    shifts = [[a * (60 // b) for b in range(1, 7)] for a in range(-8, 9)]
    for seed in range(40):
        a, b = random.Random(seed), random.Random(seed)
        for m in (1, 2, 5, 10, 21, 22, 30):
            cols = [[b.randint(-99, 99) for _ in range(1 + seed % 4)] for _ in range(m)]
            a.setstate(b.getstate())
            member = _random_member_ints(a.getrandbits, cols, shifts)
            picks = b.sample(range(m), b.randint(1, m))
            shifted = []
            for k in picks:
                lam = b.randint(-8, 8) * (60 // b.randint(1, 6))
                shifted.append([x + lam for x in cols[k]])
            assert member == [max(c) for c in zip(*shifted)], (seed, m)
            assert a.getstate() == b.getstate(), (seed, m)


def agree(v: TropMatrix, trials: int, seeds, budgets=(None, 1, 3)) -> int:
    """Check the sampler, at each ``max_violations`` in budgets, against the
    Fraction one on v's columns in both flavors; return the number of
    violations found."""
    found = 0
    for f in (MAX, MIN):
        p = Polytope(f, v)
        for seed in seeds:
            for max_violations in budgets:
                report = sample_euclidean_midpoints(p, trials, seed, max_violations)
                assert report == reference_sample_midpoints(p, trials, seed, max_violations), (f, v, seed)
                found += len(report.violations)
    return found


def test_one_and_two_generators():
    rng = random.Random(12)
    for n in (1, 2, 3, 5):
        assert agree(random_matrix(rng, n, 1), 40, range(3)) == 0
    # a tropical segment in dimension >= 3 bends, so it is not convex
    assert sum(agree(random_matrix(rng, n, 2), 60, range(3)) for n in (2, 3, 4)) > 0


def test_past_the_set_path_of_random_sample():
    rng = random.Random(21)
    assert sum(agree(random_matrix(rng, n, m), 80, range(2)) for n, m in ((3, 22), (4, 30))) > 0


def test_polytrope_reports_nothing():
    rng = random.Random(3)
    star = dominator(Polytope(MAX, random_matrix(rng, 4, 6))).matrix
    agree(star, 150, range(2))
    assert not any(sample_euclidean_midpoints(Polytope(MAX, star), 150, s).violations for s in range(2))


def test_equal_t_share_one_fraction():
    # t = a/b is drawn as a pair, and 1/2, 2/4, ..., 8/16 are one value: each
    # value is one Fraction in a report, as each reported vector is one object
    rng = random.Random(8)
    for n, m in ((3, 2), (4, 3)):
        v = random_matrix(rng, n, m)
        for f in (MAX, MIN):
            p = Polytope(f, v)
            report = sample_euclidean_midpoints(p, 300, n)
            assert report == reference_sample_midpoints(p, 300, n), (f, v)
            ts = [t for _, _, t in report.certificates]
            assert len(ts) > 2 * len(set(ts)), (f, v)
            assert len({id(t) for t in ts}) == len(set(ts)), (f, v)


def test_2x2_at_2000_trials():
    # every max-plus or min-plus span in dimension 2 is a segment, hence convex,
    # so each budget would repeat the same 2,000 trials
    assert agree(matrix([["0", "1/2"], ["1", "-3/4"]]), 2000, (7,), (None,)) == 0


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
