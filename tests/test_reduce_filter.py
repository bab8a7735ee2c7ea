"""Seeded tests of generator reduction, which filters at the best-first coordinate.

``polytope.reduce_generators`` first tests the coordinate where a class's
earliest member g is nearest its row's maximum: it filters the other
classes one coordinate at a time, with no brackets, and computes g's
brackets only when that coordinate is covered.  These tests compare the
columns it keeps with the bracket test of ``oracles.reduce_by_brackets``, in
both flavors (min-plus by negation): on generators kept although every
coordinate nearest the row maximum is covered, so the brackets decide; on
ties in the gaps to the row maxima; at n = 1, m = 1, on one class and on
scaled copies before and after their originals; and on 8x200 and 4x64
polytropes padded with span members and a random 32x40.  One test checks
that a class whose best-first coordinate is uncovered computes no brackets.
They need neither pytest nor hypothesis, so any Python the package supports
can run them as a script:

    PYTHONPATH=src:tests python tests/test_reduce_filter.py
"""

import random
from fractions import Fraction

from tropgeo import Flavor, Polytope, TropMatrix, mat_from_columns, reduce_generators, vec
from tropgeo import polytope

from oracles import glb_column_fold, reduce_by_brackets

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS

# (2,-3,3/2) raises the first and third row maxima.  (1/2,1/2,1/2) is then
# nearest its row's maximum only at its second coordinate, which (-1,0,-1)
# covers, but nothing covers its third, so its brackets keep it; those of
# (0,-1,-1) keep it too.  (0,0,-1) is the max of (0,-1,-1) and (-1,0,-1) and
# is dropped, and (0,0,0) is a later copy of (1/2,1/2,1/2).
COVERED_BUT_KEPT = [(0, -1, -1), ("1/2", "1/2", "1/2"), (0, 0, -1), (-1, 0, -1), (2, -3, "3/2"), (0, 0, 0)]


def polytope_of(flavor, cols) -> Polytope:
    return Polytope(flavor, mat_from_columns([vec(*map(Fraction, c)) for c in cols]))


def negated(p: Polytope) -> Polytope:
    return Polytope(MIN, TropMatrix(tuple(tuple(-e for e in r) for r in p.generators.entries)))


def random_columns(rng: random.Random, n: int, m: int, num: int = 20, den: int = 10) -> list:
    return [tuple(Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(n)) for _ in range(m)]


def agree(p: Polytope) -> list:
    """Check reduction of max-plus p and of min-plus -p against the bracket test; return the kept indices."""
    kept = reduce_by_brackets(p)
    for q in (p, negated(p)):
        assert reduce_by_brackets(q) == kept, q
        assert reduce_generators(q).generators == mat_from_columns([q.generator(k) for k in kept]), q
    return kept


def covered_best_first(p: Polytope) -> list:
    """Indices of the earliest class members whose coordinates nearest the row
    maxima are all covered by another class, in Fractions: h covers g at i
    iff ``h - h_i·1 <= g - g_i·1``."""
    classes = {}
    for k, g in enumerate(p):
        classes.setdefault(tuple(e - g[0] for e in g), (k, g))
    reps = list(classes.values())
    tops = [max(g[i] for _, g in reps) for i in range(p.ambient_dim)]
    out = []
    for k, g in reps:
        gaps = [t - e for t, e in zip(tops, g)]
        nearest = [i for i, gap in enumerate(gaps) if gap == min(gaps)]
        if all(
            any(all(h[c] - h[i] <= g[c] - g[i] for c in range(len(g))) for kh, h in reps if kh != k) for i in nearest
        ):
            out.append(k)
    return out


def test_kept_with_best_first_coordinate_covered():
    p = polytope_of(MAX, COVERED_BUT_KEPT)
    assert covered_best_first(p) == [0, 1, 2]
    assert agree(p) == [0, 1, 3, 4]
    # seeded inputs with few distinct entries, where such generators are common
    rng = random.Random(1507)
    decided_by_brackets = 0
    for _ in range(400):
        p = polytope_of(MAX, random_columns(rng, rng.randint(2, 6), rng.randint(2, 9), num=3, den=2))
        kept = agree(p)
        decided_by_brackets += len(set(covered_best_first(p)) & set(kept))
    assert decided_by_brackets >= 20


def test_ties_in_the_gaps():
    rng = random.Random(2)
    for n, m in ((2, 4), (3, 6), (5, 8), (8, 12)):
        for _ in range(25):
            cols = [tuple(rng.choice((0, 0, 1, -1)) for _ in range(n)) for _ in range(m)]
            agree(polytope_of(MAX, cols))
    # every gap 0: each vector is nearest every row maximum
    agree(polytope_of(MAX, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]))
    agree(polytope_of(MAX, [(0, 0), (1, 1), (0, 1), (1, 0)]))


def test_n1_m1_one_class_and_scaled_copies():
    assert agree(polytope_of(MAX, [(3,), (-1,), ("5/2",)])) == [0]
    assert agree(polytope_of(MAX, [("7/3",)])) == [0]
    assert agree(polytope_of(MAX, [(1, 2, 3)])) == [0]
    assert agree(polytope_of(MAX, [(1, 2, 3), (0, 1, 2), ("1/2", "3/2", "5/2")])) == [0]
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        cols = random_columns(rng, n, m)
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(len(cols))
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            # before or after the original, so either may be the earliest of its class
            cols.insert(rng.randint(0, len(cols)), tuple(e + lam for e in cols[k]))
        agree(polytope_of(MAX, cols))


def padded_polytrope(rng: random.Random, n: int, m: int) -> Polytope:
    """The n min-fold columns of a random n x n matrix, a polytrope, with
    span members added up to m columns, shuffled."""
    base = mat_from_columns([vec(*c) for c in random_columns(rng, n, n)])
    cols = [glb_column_fold(base, i) for i in range(n)]
    while len(cols) < m:
        picks = rng.sample(range(n), rng.randint(1, n))
        lams = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in picks]
        cols.append(tuple(max(cols[k][i] + lam for k, lam in zip(picks, lams)) for i in range(n)))
    rng.shuffle(cols)
    return polytope_of(MAX, cols)


def test_padded_polytropes_and_a_random_32x40():
    rng = random.Random(8200)
    for n, m in ((8, 200), (4, 64)):
        p = padded_polytrope(rng, n, m)
        assert 0 < len(agree(p)) <= n
        assert covered_best_first(p)
    assert len(agree(polytope_of(MAX, random_columns(rng, 32, 40)))) > 0


def brackets_computed(p: Polytope) -> int:
    """How many classes ``reduce_generators`` computes brackets for on p,
    counted through the module's ``_in_span_of_others``, the bracket test."""
    count = 0
    bracket_test = polytope._in_span_of_others

    def counting_test(*args):
        nonlocal count
        count += 1
        return bracket_test(*args)

    polytope._in_span_of_others = counting_test
    try:
        reduce_generators(p)
    finally:
        polytope._in_span_of_others = bracket_test
    return count


def test_uncovered_best_first_coordinate_computes_no_brackets():
    rng = random.Random(64)
    for n in (2, 3, 8):
        # each generator is 0 at its own coordinate, where no other reaches it,
        # and far below elsewhere
        cols = [tuple(Fraction(rng.randint(0, 9), 10) - (20 if i != k else 0) for i in range(n)) for k in range(n)]
        for q in (polytope_of(MAX, cols), negated(polytope_of(MAX, cols))):
            assert reduce_generators(q) == q
            assert brackets_computed(q) == 0
    assert brackets_computed(polytope_of(MAX, COVERED_BUT_KEPT)) > 0


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
