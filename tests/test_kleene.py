import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropgeo import (
    DimensionError,
    Flavor,
    KleeneStar,
    Polytope,
    PreconditionError,
    bracket,
    classify,
    dominates_at,
    dominator,
    duality_chi,
    duality_rho,
    is_kleene_star,
    is_min_plus_convex,
    mat,
    mat_from_columns,
    member,
    min_plus_hull,
    negate_transpose,
    polytope_equal,
    trop_mat_mul,
    vec,
    verify_dominator_relation,
)

from helpers import max_plus_polytopes, polytopes, random_polytope, random_vector, transpose
from oracles import glb_column_fold, join, reference_random_member, shifted

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS


def poly(flavor, *gens):
    return Polytope(flavor, mat_from_columns([vec(*g) for g in gens]))


def negated(v):
    """The entrywise negation of a matrix."""
    return mat_from_columns([-c for c in v.columns()])


SEGMENT = poly(MAX, (0, 0, 0), (0, 1, 2))
SEGMENT_DOM = mat([[0, -1, -2], [0, 0, -1], [0, 0, 0]])


class TestIsKleeneStar:
    def test_swap_matrix_is_not_a_star(self):
        assert not is_kleene_star(MAX, mat([[0, 1], [1, 0]]))

    def test_frozen_stars(self):
        assert is_kleene_star(MAX, mat([[0, -1], [-1, 0]]))
        assert is_kleene_star(MAX, SEGMENT_DOM)

    def test_nonzero_diagonal_fails(self):
        assert not is_kleene_star(MAX, mat([[1, -1], [-1, 0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            is_kleene_star(MAX, mat([[0, 1, 2], [1, 0, 3]]))

    def test_validated_constructor_rejects_non_star(self):
        with pytest.raises(ValueError):
            KleeneStar(MAX, mat([[0, 1], [1, 0]]))


class TestDominator:
    def test_single_generator_grid(self):
        d = dominator(poly(MAX, (0, 1, 2)))
        assert d.matrix == mat([[0, -1, -2], [1, 0, -1], [2, 1, 0]])

    def test_segment_example(self):
        d = dominator(SEGMENT)
        assert d.matrix == SEGMENT_DOM
        assert [tuple(c) for c in d.matrix.columns()] == [
            (0, 0, 0),
            (-1, 0, 0),
            (-2, -1, 0),
        ]

    def test_swap_matrix_columns(self):
        assert dominator(poly(MAX, (0, 1), (1, 0))).matrix == mat([[0, -1], [-1, 0]])

    def test_triangle_family(self):
        gens = [(1, 0, 0)] + [(Fraction(a, 2), -Fraction(a, 2), 0) for a in range(3)]
        d = dominator(poly(MAX, *gens))
        assert d.matrix == mat([[0, 0, 0], [-2, 0, -1], [-1, 0, 0]])

    @given(max_plus_polytopes())
    def test_columns_match_glb_fold_oracle(self, p):
        d = dominator(p)
        for i in range(d.size):
            assert d.matrix.col(i).entries == glb_column_fold(p.generators, i)

    @given(max_plus_polytopes(), st.data())
    def test_invariant_under_presentation_changes(self, p, data):
        d = dominator(p).matrix
        cols = list(p)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        shuffled = cols[:]
        rng.shuffle(shuffled)
        assert dominator(Polytope(MAX, mat_from_columns(shuffled))).matrix == d
        scaled = [shifted(c, Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for c in cols]
        assert dominator(Polytope(MAX, mat_from_columns(scaled))).matrix == d
        redundant = cols + [reference_random_member(rng, p)]
        assert dominator(Polytope(MAX, mat_from_columns(redundant))).matrix == d


class TestDominatorDual:
    """``dominator`` of a min-plus polytope: the dual dominator, a min-plus star."""

    def test_single_generator_matches_primal(self):
        v = (0, 1, 2)
        assert dominator(poly(MIN, v)).matrix == dominator(poly(MAX, v)).matrix

    def test_swap_generators(self):
        d = dominator(poly(MIN, (0, 1), (1, 0)))
        assert d.flavor is MIN
        assert d.matrix == mat([[0, 1], [1, 0]])
        assert is_kleene_star(MIN, d.matrix)
        assert trop_mat_mul(MIN, d.matrix, d.matrix) == d.matrix

    def test_negated_transpose_instance(self):
        d = mat([[0, -1], [-1, 0]])
        q = Polytope(MIN, negate_transpose(d))
        assert dominator(q).matrix == negate_transpose(d)


class TestFlavorDuality:
    """A min-plus polytope -P is the max-plus P under negation: its dominator,
    decision, witness and hull are P's, negated."""

    wide = polytopes(n_max=8, m_max=10).map(lambda p: p.generators)

    @given(wide)
    def test_dominator_of_the_negation_is_negated(self, v):
        d = dominator(Polytope(MIN, negated(v)))
        assert d.flavor is MIN
        assert d.matrix == negated(dominator(Polytope(MAX, v)).matrix)

    @given(wide, st.booleans())
    def test_classify_agrees_and_negates_the_witness(self, v, polytrope):
        if polytrope:
            v = dominator(Polytope(MAX, v)).matrix
        primal = classify(Polytope(MAX, v))
        dual = classify(Polytope(MIN, negated(v)))
        assert dual.is_polytrope == primal.is_polytrope == is_min_plus_convex(Polytope(MIN, negated(v)))
        assert dual.dominator.matrix == negated(primal.dominator.matrix)
        assert dual.witness == (None if primal.witness is None else -primal.witness)

    @given(wide)
    def test_min_plus_hull_commutes_with_negation(self, v):
        hull = min_plus_hull(Polytope(MIN, negated(v)))
        assert hull.flavor is MIN
        assert hull.generators == negated(min_plus_hull(Polytope(MAX, v)).generators)

    @given(wide)
    def test_dominator_relation_holds_on_polytropes_of_both_flavors(self, v):
        for f in (MAX, MIN):
            assert verify_dominator_relation(Polytope(f, dominator(Polytope(f, v)).matrix))


class TestMinPlusHull:
    def test_closed_input_is_fixed(self):
        p = poly(MAX, (0, -1), (-1, 0))
        assert polytope_equal(min_plus_hull(p), p)

    def test_segment_hull_gains_the_witness(self):
        hull = min_plus_hull(SEGMENT)
        assert hull.generators == SEGMENT_DOM
        assert member(hull, vec(-1, 0, 0))
        assert not member(SEGMENT, vec(-1, 0, 0))

    @given(max_plus_polytopes())
    def test_idempotent(self, p):
        hull = min_plus_hull(p)
        assert min_plus_hull(hull).generators == hull.generators

    @given(max_plus_polytopes())
    def test_contains_the_generators(self, p):
        hull = min_plus_hull(p)
        for g in p:
            assert member(hull, g)


class TestConvexityAndClassification:
    def test_kleene_star_columns_are_convex(self):
        assert is_min_plus_convex(poly(MAX, (0, -1), (-1, 0)))

    def test_segment_is_not(self):
        assert not is_min_plus_convex(SEGMENT)
        result = classify(SEGMENT)
        assert not result.is_polytrope
        assert result.witness == vec(-1, 0, 0)

    def test_triangle_is_not(self):
        p = poly(MAX, (1, 0, 0), (0, 0, 0), ("1/2", "-1/2", 0), (1, -1, 0))
        result = classify(p)
        assert not result.is_polytrope
        assert result.witness == vec(0, -1, 0)
        assert not member(p, vec(0, -1, 0))

    def test_swap_columns_classify(self):
        result = classify(poly(MAX, (0, 1), (1, 0)))
        assert result.is_polytrope
        assert result.witness is None
        assert result.dominator.matrix == mat([[0, -1], [-1, 0]])

    @given(max_plus_polytopes())
    def test_dominator_column_space_is_a_fixed_point(self, p):
        k = dominator(p).matrix
        result = classify(Polytope(MAX, k))
        assert result.is_polytrope
        assert result.dominator.matrix == k

    @given(max_plus_polytopes(), st.data())
    def test_star_membership_reduces_to_diagonal_domination(self, p, data):
        # membership in a star's column space == domination by column i at i, for all i
        k = dominator(p).matrix
        space = Polytope(MAX, k)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        for y in [reference_random_member(rng, space), random_vector(rng, k.n_rows, 6, 4)]:
            by_domination = all(
                dominates_at(k.col(i), y, i) for i in range(k.n_rows)
            )
            assert member(space, y) == by_domination

    @given(max_plus_polytopes(), st.data())
    def test_canonical_representation_of_hull_members(self, p, data):
        # every hull member is the max of dominator columns scaled by its coordinates
        d = dominator(p)
        hull = Polytope(MAX, d.matrix)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        x = reference_random_member(rng, hull)
        for i in range(d.size):
            assert bracket(d.matrix.col(i), x) == x[i]
        rebuilt = join(*(shifted(d.matrix.col(i), x[i]) for i in range(d.size)))
        assert rebuilt == x


class TestDualityMaps:
    def test_rho_on_star_rows_is_negation(self):
        k = SEGMENT_DOM
        for i in range(k.n_rows):
            r = k.entries[i]
            assert duality_rho(k, vec(*r)) == vec(*(-e for e in r))

    def test_rho_frozen_example(self):
        a = mat([[0, 1], [1, 0]])
        assert duality_rho(a, vec(0, 1)) == vec(0, 1)

    def test_chi_on_star_columns_is_negation(self):
        k = mat([[0, -1], [-1, 0]])
        assert duality_chi(k, vec(0, -1)) == vec(0, 1)

    def test_round_trips_on_any_matrix(self):
        rng = random.Random(13)
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = mat_from_columns([random_vector(rng, n, 6, 4) for _ in range(m)])
            cols = Polytope(MAX, a)
            rows = Polytope(MAX, transpose(a))
            c = reference_random_member(rng, cols)
            r = reference_random_member(rng, rows)
            assert duality_rho(a, duality_chi(a, c)) == c
            assert duality_chi(a, duality_rho(a, r)) == r

    def test_dimension_checks(self):
        a = mat([[0, 1, 2], [1, 0, 3]])
        with pytest.raises(DimensionError):
            duality_rho(a, vec(0, 1))
        with pytest.raises(DimensionError):
            duality_chi(a, vec(0, 1, 2))


class TestDominatorRelation:
    def test_single_generator(self):
        assert verify_dominator_relation(poly(MAX, (3, "1/2", -2)))

    def test_square_polytrope(self):
        assert verify_dominator_relation(poly(MAX, (0, -1), (-1, 0)))

    def test_precondition_failure(self):
        with pytest.raises(PreconditionError, match="not min-plus convex"):
            verify_dominator_relation(SEGMENT)
        with pytest.raises(PreconditionError, match="not max-plus convex"):
            verify_dominator_relation(Polytope(MIN, negated(SEGMENT.generators)))

    @given(max_plus_polytopes())
    def test_holds_on_random_polytropes(self, p):
        assert verify_dominator_relation(Polytope(MAX, dominator(p).matrix))


class TestStarDuality:
    @given(max_plus_polytopes())
    def test_negated_star_is_min_plus_star(self, p):
        k = dominator(p).matrix
        assert is_kleene_star(MIN, negated(k))

    @given(max_plus_polytopes(), st.data())
    def test_column_space_equals_dual_column_space(self, p, data):
        k = dominator(p).matrix
        max_side = Polytope(MAX, k)
        min_side = Polytope(MIN, negate_transpose(k))
        assert polytope_equal(max_side, min_side)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        x = reference_random_member(rng, max_side)
        assert member(min_side, x)
        assert duality_chi(k, x) == -x
