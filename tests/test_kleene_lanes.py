"""Seeded tests of the packed Kleene-star check at the edges of its lanes.

``kleene._star_defect`` packs each column of a matrix into one int, in lanes
of whole bytes sized from the span of its lattice ints plus one guard bit.
These tests compare ``is_kleene_star`` with the plain Fraction product of
``oracles.py`` on spans at each lane-width boundary, on bumps by the smallest
lattice step 1/L, on ints wider than 64 bits, at n = 1 and 2, and on a bumped
48x60 dominator, in both flavors.  They need neither pytest nor hypothesis,
so any Python the package supports can run them as a script:

    PYTHONPATH=src:tests python tests/test_kleene_lanes.py
"""

import random
from fractions import Fraction

from tropgeo import Flavor, Polytope, TropMatrix, dominator, is_kleene_star

from oracles import bumped, is_star_by_product, potential_star

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS

# small denominators share factors; the large ones are distinct primes
DENOMINATORS = (1, 2, 3, 10, 10007, 65537, 1000003, 998244353, 2**61 - 1)


def negated(a: TropMatrix) -> TropMatrix:
    return TropMatrix(tuple(tuple(-e for e in r) for r in a.entries))


def agree(a: TropMatrix) -> bool:
    """Check a and -a in both flavors against the product; return whether a is a max-plus star."""
    for m in (a, negated(a)):
        for f in (MAX, MIN):
            assert is_kleene_star(f, m) == is_star_by_product(f is MAX, m), (f, m)
    return is_star_by_product(True, a)


def test_star_check_at_lane_edges():
    """Spans whose double is 2^k - 2 .. 2^k + 2, for k at the lane-width
    boundaries: 2·span = 2^k ± 1 is a half-integer span, which the lattice
    scale 2 doubles to 2^(k+1) ± 2.  At each k the lanes widen by a byte or more."""
    n = 4
    for k in (7, 8, 15, 16, 63, 64):
        answers = set()
        for t in range(2**k - 2, 2**k + 3):
            span = Fraction(t, 2)
            rng = random.Random(t)
            x = [Fraction(0), span] + [Fraction(rng.randint(0, t), 2) for _ in range(n - 2)]
            star = potential_star(x, [0] * n)  # entries span [-span, 0]
            assert agree(star)
            step = Fraction(1, star.lattice.scale)
            for cell in ((n - 1, 0), (0, n - 1), (1, 2)):
                answers.update(agree(bumped(star, cell, by)) for by in (step, -step))
            # zero-diagonal matrices whose entries reach both ends of the span
            half = Fraction(t // 4, 2)
            for lo, hi in ((-span, Fraction(0)), (Fraction(0), span), (-half, span - half)):
                values = (lo, hi, lo + step, hi - step, min(max(Fraction(0), lo), hi))
                for _ in range(6):
                    rows = [[Fraction(0) if i == j else rng.choice(values) for j in range(n)] for i in range(n)]
                    rows[0][1], rows[1][0] = lo, hi
                    answers.add(agree(TropMatrix(tuple(map(tuple, rows)))))
        assert answers == {True, False}, k


def test_star_check_at_sizes_1_and_2():
    values = [Fraction(v) for v in (0, 1, -1, "1/3", "-1/3", "2/7", "-5/7", 2**64, 1 - 2**64)]
    assert agree(TropMatrix(((Fraction(0),),)))
    assert not agree(TropMatrix(((Fraction(1, 3),),)))
    answers = {agree(TropMatrix(((Fraction(0), a), (b, Fraction(0))))) for a in values for b in values}
    assert answers == {True, False}
    assert not agree(TropMatrix(((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1)))))


def test_star_check_matches_product_seeded():
    """Stars, their bumps by ±1/L, dominators and zero-diagonal noise, with
    ints beyond 64 bits."""
    rng = random.Random(12)

    def rational():
        return Fraction(rng.randint(-40, 40), rng.choice(DENOMINATORS))

    answers, widest = set(), 0
    for _ in range(120):
        n = rng.randint(1, 6)
        star = potential_star([rational() for _ in range(n)], [rational() for _ in range(n)])
        step = Fraction(1, star.lattice.scale)
        cell = (rng.randrange(n), rng.randrange(n))
        m = rng.randint(1, 6)
        generators = TropMatrix(tuple(tuple(rational() for _ in range(m)) for _ in range(n)))
        noise = TropMatrix(tuple(tuple(Fraction(0) if i == j else rational() for j in range(n)) for i in range(n)))
        d = dominator(Polytope(MAX, generators)).matrix
        for a in (star, bumped(star, cell, step), bumped(star, cell, -step), d, bumped(d, cell, -step), noise):
            answers.add(agree(a))
            widest = max(widest, max(abs(x) for c in a.lattice.cols for x in c).bit_length())
    assert answers == {True, False} and widest > 64


def test_bumped_48x60_dominator():
    """A seeded 48x60 dominator bumped by -1/L at (n-1, 0), (0, n-1) and one
    middle entry, which leaves it a star, and by +1/L at that entry, which
    does not.  The min-plus check of -a must agree with the max-plus product
    of a, since negation maps one semiring onto the other."""
    rng = random.Random(4860)
    v = TropMatrix(tuple(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(60)) for _ in range(48)))
    d = dominator(Polytope(MAX, v)).matrix
    n, step = d.n_rows, Fraction(1, d.lattice.scale)
    middle = (n // 2, n // 3)
    answers = []
    for cell, by in (((n - 1, 0), -step), ((0, n - 1), -step), (middle, -step), (middle, step)):
        a = bumped(d, cell, by)
        expected = is_star_by_product(True, a)
        assert is_kleene_star(MAX, a) == expected and is_kleene_star(MIN, negated(a)) == expected
        answers.append(expected)
    assert answers == [True, True, True, False]


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
