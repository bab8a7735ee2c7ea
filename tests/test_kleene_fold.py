"""Seeded tests of the dominator fold, a lanewise min over packed lanes.

``kleene.dominator`` packs each signed generator into one int, a lane of
whole bytes per coordinate, and lowers dominator column i, one such int,
generator by generator, by the generator shifted to i-th coordinate 0,
``v_k - v_ik * 1``: the lanewise min of ``v_jk - v_ik`` for every row j at
once.  Its guard bit lies above twice the span of the lattice ints, the
widest distance the fold and the membership keys compare in a lane, and the
star it builds is not checked: the dominator is a star by the paper's
theorem.  These tests compare its lattice ints with the fold over every
ordered pair in ``oracles.py``, and its entries with the Fraction column folds there, in
both flavors: at n = 1, 2 and 3 and m = 1, on equal and shifted rows and on
scaled duplicate columns, on ints wider than 64 bits, on lattice spans at
each byte boundary of the entries and each lane-width boundary, and on a
48x60 input.  The kernel itself, a packed min-plus product, is compared
with a plain-int product on rectangular shapes at the same spans and at
the widest span of each lane width.  Each column's membership test on the
fold's lanes is compared with a Fraction reference at the same spans.
``is_kleene_star`` is compared with the Fraction product on what a faulty fold
could return: its dominator bumped by one lattice step, zero-diagonal
matrices with entries anywhere in the fold's range, and every 3x3 pattern of
that range's ends.
They need neither pytest nor hypothesis, so any Python the package supports
can run them as a script:

    PYTHONPATH=src:tests python tests/test_kleene_fold.py
"""

import random
from fractions import Fraction
from sys import byteorder

from tropgeo import Flavor, Polytope, TropMatrix, dominator, is_kleene_star, kleene

from oracles import bumped, dominator_columns, fold_over_ordered_pairs, is_shifted_generator, is_star_by_product

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


# Lattice spans t = 2^k - 2 .. 2^k + 2, where the entries cross a byte boundary;
# spans whose 2t crosses 2^g at each lane width: the fold and the membership keys
# compare values up to 2t apart in a lane, so its guard bit is the bit length of
# 2t; and spans whose 3t crosses 2^g, which keep those inputs covered.
EDGE_SPANS = [t for k in (7, 8, 15, 16, 63, 64) for t in range(2**k - 2, 2**k + 3)] + [
    t for g in (7, 15, 31, 63, 71) for d in (2, 3) for t in range(2**g // d - 2, 2**g // d + 3)
]


def test_fold_at_lane_edges():
    """The spans t of ``EDGE_SPANS``: entries x/2 with x in [0, t], 0, 1 and t
    among them, so that the lattice scale is 2 and the span of the lattice ints
    is t."""
    for t in EDGE_SPANS:
        rng = random.Random(t)
        for n, m in ((1, 3), (2, 1), (2, 3), (3, 2), (4, 9)):
            xs = [0, 1, t] + [rng.choice((0, 1, t - 1, t, rng.randint(0, t))) for _ in range(n * m)]
            rng.shuffle(xs)
            xs[: min(3, n * m)] = [0, 1, t][: min(3, n * m)]
            v = matrix([[Fraction(xs[i * m + j], 2) for j in range(m)] for i in range(n)])
            assert agree(v) <= t
            if n * m >= 3:
                assert v.lattice.scale == 2


def test_membership_keys_at_lane_edges():
    """``kleene._inside``, which tests a dominator column for membership in P as one int
    on the fold's lanes, against ``oracles.is_shifted_generator`` on the Fraction
    columns, in both flavors: at span 0 and at the spans t of ``EDGE_SPANS``, whose
    lanes are 1, 2, 4, 8 and more than 8 bytes wide, at n = 1 and m = 1, on entries
    x/2 with x in [0, t], on their dominator, every column of which is in it, and on
    that dominator with one entry moved by one lattice step, a miss in one lane."""
    seen: dict = {}
    for t in [0] + EDGE_SPANS:
        rng = random.Random(t)
        for n, m in ((1, 1), (1, 3), (2, 1), (3, 2), (4, 9)):
            xs = [rng.choice((0, 1, t - 1, t, rng.randint(0, t))) if t else 0 for _ in range(n * m)]
            v = matrix([[Fraction(xs[i * m + j], 2) for j in range(m)] for i in range(n)])
            for f in (MAX, MIN):
                d = dominator(Polytope(f, v)).matrix
                moved = [list(r) for r in d.entries]
                moved[rng.randrange(n)][rng.randrange(n)] += Fraction(rng.choice((1, -1)), 2)
                for q in (v, d, matrix(moved)):
                    p = Polytope(f, q)
                    packed = kleene._fold(p)
                    meant = [is_shifted_generator(p, i, c) for i, c in enumerate(dominator_columns(p))]
                    assert list(kleene._inside(packed, 0)) == meant, (t, f, q)
                    assert list(kleene._inside(packed, 1)) == meant[1:], (t, f, q)
                    guard = kleene._lanes(q.lattice.cols_times(f.sign))[2]  # the fold's
                    seen.setdefault(min(kleene._lane_bytes(guard), 9), set()).update(meant)
    assert seen == dict.fromkeys((1, 2, 4, 8, 9), {True, False})


def test_kernel_is_a_rectangular_min_plus_product():
    """``kleene._lanewise_min`` against the plain-int ``min(top, min_k (A_ak + B_kb))``
    for a x K times K x b, 1x1 included: the columns of A, entries in [0, t], are the
    packed lines, the columns of B, entries in [-t, 0], negated are the shifts, and
    top is in [0, t], so 2t bounds every distance the kernel compares.  The spans
    t are ``EDGE_SPANS`` under the fold's guard, and the widest spans of the
    guards either side of each lane width."""
    fold_spans = [(t, (2 * t).bit_length()) for t in EDGE_SPANS]
    widest = [((2**g - 1) // 2, g) for g in (7, 8, 15, 16, 31, 32, 63, 64, 71, 72)]
    for t, guard in fold_spans + widest:
        rng = random.Random(t)
        size = kleene._lane_bytes(guard)
        for a, k, b in ((1, 1, 1), (1, 3, 2), (2, 1, 3), (3, 2, 1), (4, 9, 2), (5, 3, 7)):
            A = [[rng.choice((0, 1, t - 1, t, rng.randint(0, t))) for _ in range(k)] for _ in range(a)]
            B = [[-rng.choice((0, 1, t - 1, t, rng.randint(0, t))) for _ in range(b)] for _ in range(k)]
            top = rng.choice((t, rng.randint(0, t)))
            lines, ones = kleene._packed([A[r][c] for c in range(k) for r in range(a)], a, guard)
            shifts = [[-B[c][s] for c in range(k)] for s in range(b)]
            got = kleene._lanewise_min(lines, shifts, ones, guard, top)
            lanes = kleene._unpack(b"".join(x.to_bytes(a * size, byteorder) for x in got), size)
            meant = [min([top] + [A[r][c] + B[c][s] for c in range(k)]) for s in range(b) for r in range(a)]
            assert [x - (1 << guard) for x in lanes] == meant, (t, guard, a, k, b)


def test_star_check_on_the_fold_range():
    """``is_kleene_star`` against the Fraction product on what a faulty fold could hand
    back: the dominator bumped by one lattice step 1/L at an off-diagonal entry, and
    zero-diagonal matrices with entries anywhere in the fold's range ``[-span, span]``,
    span that of p's lattice ints; and every 3x3 pattern of the range's ends off the
    diagonal, whose triangle sums ``a_ij - a_ik - a_kj`` reach -3 span and 3 span."""
    rng = random.Random(2104)
    answers = set()
    for n, m in ((2, 3), (3, 4), (4, 6), (6, 5)):
        for _ in range(8):
            v = random_matrix(rng, n, m, (1, 2, 3, 10, 65537, 2**61 - 1))
            i, j = rng.sample(range(n), 2)
            scale = v.lattice.scale
            flat = [x for c in v.lattice.cols for x in c]
            span = max(flat) - min(flat)
            ends = (-span, span, -span + 1, span - 1)
            for f in (MAX, MIN):
                d = dominator(Polytope(f, v)).matrix
                bump = bumped(d, (i, j), Fraction(rng.choice((1, -1)), scale))
                xs = [[rng.choice(ends + (rng.randint(-span, span),)) for _ in range(n)] for _ in range(n)]
                anywhere = matrix([[Fraction(x, scale) if r != c else 0 for c, x in enumerate(xs[r])] for r in range(n)])
                for a in (d, bump, anywhere):
                    star = is_star_by_product(f is MAX, a)
                    answers.add(star)
                    assert is_kleene_star(f, a) == star, (f, v, a)
    assert answers == {True, False}
    for t in (5, 6, 11, 12, 23, 24, 2**20 + 1, 3 * 2**20, 2**62 + 1, 3 * 2**62):
        for signs in range(64):
            ends = iter(t if signs >> b & 1 else -t for b in range(6))
            a = matrix([[0 if r == c else next(ends) for c in range(3)] for r in range(3)])
            for f in (MAX, MIN):
                assert is_kleene_star(f, a) == is_star_by_product(f is MAX, a), (t, signs, f)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
