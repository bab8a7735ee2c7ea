"""Seeded tests of the dominator fold, which forms each row difference once.

``kleene.dominator`` visits each unordered pair of signed rows i < j once and
takes both ``D_ji`` (the min of ``v_j - v_i``) and ``D_ij`` (its negated max)
from one difference.  These tests compare its lattice ints with the fold over
every ordered pair in ``oracles.py``, and its entries with the Fraction
column folds there, in both flavors: at n = 1, 2 and 3, on equal and shifted
rows and on scaled duplicate columns, on ints wider than 64 bits and on a
48x60 input.  They need neither pytest nor hypothesis, so any Python the
package supports can run them as a script:

    PYTHONPATH=src:tests python tests/test_kleene_fold.py
"""

import random
from fractions import Fraction

from tropgeo import Flavor, Polytope, TropMatrix, dominator

from oracles import dominator_columns, fold_over_ordered_pairs

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS

# distinct primes, so that their lcm, and the lattice ints over it, pass 64 bits
LARGE_PRIMES = (10007, 65537, 1000003, 998244353, 2**61 - 1, 2**89 - 1)


def matrix(rows) -> TropMatrix:
    return TropMatrix(tuple(tuple(Fraction(e) for e in r) for r in rows))


def random_matrix(rng: random.Random, n: int, m: int, denominators=range(1, 11)) -> TropMatrix:
    return matrix([[Fraction(rng.randint(-20, 20), rng.choice(denominators)) for _ in range(m)] for _ in range(n)])


def agree(v: TropMatrix) -> int:
    """Check the fold on v's columns in both flavors; return the widest lattice int, in bits."""
    widest = 0
    for f in (MAX, MIN):
        p = Polytope(f, v)
        d = dominator(p).matrix
        assert d.lattice.scale == v.lattice.scale, (f, v)
        assert d.lattice.cols == fold_over_ordered_pairs(p), (f, v)
        assert [d.col(i).entries for i in range(d.n_cols)] == dominator_columns(p), (f, v)
        widest = max(widest, *(abs(x).bit_length() for c in d.lattice.cols for x in c))
    return widest


def test_fold_at_sizes_1_2_and_3():
    rng = random.Random(123)
    for n in (1, 2, 3):
        for m in (1, 2, 3, 5):
            for _ in range(20):
                agree(random_matrix(rng, n, m))
    assert agree(matrix([[5]])) == 0
    assert agree(matrix([[0, 1], [1, 0]])) > 0
    agree(matrix([["1/2", "-3"], ["7/3", "0"], ["0", "-1/6"]]))


def test_equal_rows_and_scaled_duplicate_columns():
    """Equal rows give 0 both ways; rows equal up to a shift c give ``D_ji = c``
    and ``D_ij = -c``; columns equal up to a scaling leave D as it was."""
    rng = random.Random(7)
    for n, m in ((3, 2), (3, 4), (5, 6)):
        for _ in range(10):
            v = random_matrix(rng, n, m)
            rows = [list(r) for r in v.entries]
            rows[1] = list(rows[0])
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            rows[-1] = [e + c for e in rows[0]]
            equal_rows = matrix(rows)
            agree(equal_rows)
            for f in (MAX, MIN):
                d = dominator(Polytope(f, equal_rows)).matrix.entries
                assert d[1][0] == d[0][1] == 0
                assert (d[n - 1][0], d[0][n - 1]) == (c, -c)
            shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            doubled = matrix([list(r) + [r[0] + shift, r[m - 1] - shift] for r in v.entries])
            agree(doubled)
            for f in (MAX, MIN):
                assert dominator(Polytope(f, doubled)).matrix == dominator(Polytope(f, v)).matrix


def test_fold_beyond_64_bits():
    rng = random.Random(2**61 - 1)
    widest = 0
    for n, m in ((2, 3), (3, 3), (4, 6), (6, 5)):
        for _ in range(5):
            widest = max(widest, agree(random_matrix(rng, n, m, LARGE_PRIMES)))
    assert widest > 64


def test_seeded_48x60():
    rng = random.Random(4860)
    assert agree(random_matrix(rng, 48, 60)) > 0


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
