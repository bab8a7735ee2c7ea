import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropgeo import (
    DimensionError,
    Flavor,
    TropMatrix,
    TropVector,
    mat,
    mat_from_columns,
    negate_transpose,
    trop_mat_mul,
    vec,
)

from helpers import random_vector, generator_matrices
from oracles import naive_mat_mul

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS


class TestScalarsAndConstruction:
    def test_vec_coerces_ints_strings_fractions(self):
        v = vec(1, "-2/4", Fraction(3))
        assert v.entries == (Fraction(1), Fraction(-1, 2), Fraction(3))

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            vec(0.5)

    def test_empty_vector_rejected(self):
        with pytest.raises(DimensionError):
            TropVector(())

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DimensionError):
            mat([[0, 1], [2]])

    def test_matrix_row_col_access(self):
        a = mat([[0, 1, 2], [3, 4, 5]])
        assert a.row(1) == vec(3, 4, 5)
        assert a.col(2) == vec(2, 5)
        assert list(a.columns()) == [vec(0, 3), vec(1, 4), vec(2, 5)]

    def test_mat_from_columns_round_trip(self):
        a = mat([[0, 1], [2, 3], [4, 5]])
        assert mat_from_columns(list(a.columns())) == a


class TestMatMul:
    def test_frozen_square_of_swap_matrix(self):
        a = mat([[0, 1], [1, 0]])
        assert trop_mat_mul(MAX, a, a) == mat([[2, 1], [1, 2]])

    def test_frozen_idempotent_star(self):
        a = mat([[0, -1], [-1, 0]])
        assert trop_mat_mul(MAX, a, a) == a

    def test_min_plus_scalar(self):
        assert trop_mat_mul(MIN, mat([[0]]), mat([[5]])) == mat([[5]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            trop_mat_mul(MAX, mat([[0, 1]]), mat([[0, 1]]))

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = mat_from_columns([random_vector(rng, n) for _ in range(k)])
            b = mat_from_columns([random_vector(rng, k) for _ in range(m)])
            for f in Flavor:
                got = trop_mat_mul(f, a, b)
                want = naive_mat_mul(f is MAX, a, b)
                assert [list(r) for r in got.entries] == want

    @given(st.data())
    def test_associative(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        n = [rng.randint(1, 5) for _ in range(4)]
        ms = [
            mat_from_columns([random_vector(rng, n[i], 6, 4) for _ in range(n[i + 1])])
            for i in range(3)
        ]
        a, b, c = ms
        for f in Flavor:
            assert trop_mat_mul(f, trop_mat_mul(f, a, b), c) == trop_mat_mul(
                f, a, trop_mat_mul(f, b, c)
            )

    def test_monotone_in_each_argument(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = mat_from_columns([random_vector(rng, n, 6, 4) for _ in range(n)])
            b = mat_from_columns([random_vector(rng, n, 6, 4) for _ in range(n)])
            bump = mat_from_columns(
                [
                    TropVector(tuple(abs(e) for e in random_vector(rng, n, 3, 3)))
                    for _ in range(n)
                ]
            )
            bigger = TropMatrix(
                tuple(
                    tuple(x + d for x, d in zip(ra, rb))
                    for ra, rb in zip(a.entries, bump.entries)
                )
            )
            for f in Flavor:
                base = trop_mat_mul(f, a, b)
                assert _mat_leq(base, trop_mat_mul(f, bigger, b))
                assert _mat_leq(trop_mat_mul(f, b, a), trop_mat_mul(f, b, bigger))


def _mat_leq(a: TropMatrix, b: TropMatrix) -> bool:
    return all(x <= y for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))


class TestNegateTranspose:
    def test_frozen_examples(self):
        assert negate_transpose(mat([[0, -1], [-2, 0]])) == mat([[0, 2], [1, 0]])
        assert negate_transpose(mat([[0, -1], [-1, 0]])) == mat([[0, 1], [1, 0]])
        assert negate_transpose(mat([[7]])) == mat([[-7]])

    @given(generator_matrices())
    def test_involution(self, a):
        assert negate_transpose(negate_transpose(a)) == a

    def test_exchanges_products(self):
        rng = random.Random(3)
        for _ in range(40):
            n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = mat_from_columns([random_vector(rng, n) for _ in range(k)])
            b = mat_from_columns([random_vector(rng, k) for _ in range(m)])
            lhs = negate_transpose(trop_mat_mul(MAX, a, b))
            rhs = trop_mat_mul(MIN, negate_transpose(b), negate_transpose(a))
            assert lhs == rhs


def test_flavor_duality():
    assert MAX.sign == 1 and MIN.sign == -1
