import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tropgeo import (
    DimensionError,
    Flavor,
    Polytope,
    bracket,
    dominates_at,
    dominates_polytope_at,
    mat_from_columns,
    member,
    principal_projection,
    vec,
)

from helpers import max_plus_polytopes, rationals, random_vector, vector_batches, vectors
from oracles import (
    direct_min_plus_projection,
    join,
    meet,
    member_by_integer_grid,
    member_by_principal_subsets,
    naive_bracket,
    reference_random_member,
    shifted,
)

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS


def leq(x, y) -> bool:
    """The componentwise order: ``x_i <= y_i`` for every i."""
    return all(a <= b for a, b in zip(x, y, strict=True))


def poly(flavor, *gens):
    return Polytope(flavor, mat_from_columns([vec(*g) for g in gens]))


class TestBracket:
    @given(vectors(4))
    def test_self_bracket_is_zero(self, x):
        assert bracket(x, x) == 0

    def test_frozen_examples(self):
        assert bracket(vec(1, 0, 0), vec(0, 0, 0)) == -1
        assert bracket(vec(0, 1, 2), vec(-2, -1, 0)) == -2

    def test_mismatch(self):
        with pytest.raises(DimensionError):
            bracket(vec(0), vec(0, 1))

    @given(vector_batches(2))
    def test_matches_naive(self, batch):
        x, y = batch
        assert bracket(x, y) == naive_bracket(x, y)

    @given(vector_batches(2))
    def test_galois_property(self, batch):
        x, y = batch
        lam = bracket(x, y)
        assert leq(shifted(x, lam), y)
        # any strictly larger scaling must overshoot somewhere
        assert not leq(shifted(x, lam + Fraction(1, 7)), y)

    @given(rationals, vector_batches(2))
    def test_any_feasible_scaling_is_below_bracket(self, lam, batch):
        x, y = batch
        assume(leq(shifted(x, lam), y))
        assert lam <= bracket(x, y)

    @given(rationals, vector_batches(2))
    def test_scaling_identity(self, lam, batch):
        x, y = batch
        assert bracket(shifted(x, lam), y) == bracket(x, y) - lam
        assert bracket(x, shifted(y, -lam)) == bracket(x, y) - lam

    @given(vector_batches(3))
    def test_max_plus_inequalities(self, batch):
        x, x2, y = batch
        assert min(bracket(x, y), bracket(x2, y)) == bracket(join(x, x2), y)
        assert bracket(join(x, x2), y) <= bracket(x, y)
        assert bracket(x, y) <= bracket(x, join(x2, y))

    @given(vector_batches(3))
    def test_min_plus_inequalities(self, batch):
        x, x2, y = batch
        assert min(bracket(x, y), bracket(x, x2)) == bracket(x, meet(y, x2))
        assert bracket(x, meet(y, x2)) <= bracket(x, y)
        assert bracket(x, y) <= bracket(meet(x, x2), y)


class TestDomination:
    @given(vectors(3))
    def test_self_domination_everywhere(self, x):
        for i in range(len(x)):
            assert dominates_at(x, x, i)

    def test_frozen_example(self):
        assert dominates_at(vec(0, 0), vec(0, 1), 0)
        assert not dominates_at(vec(0, 0), vec(0, 1), 1)

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            dominates_at(vec(0, 0), vec(0, 0), 2)

    @given(rationals, rationals, vector_batches(2))
    def test_scale_invariance(self, lam, mu, batch):
        x, y = batch
        for i in range(len(x)):
            assert dominates_at(x, y, i) == dominates_at(shifted(x, lam), shifted(y, mu), i)

    def test_closure_of_dominated_set(self):
        # max-plus sum, min-plus sum and affine combinations stay dominated
        rng = random.Random(5)
        found = 0
        while found < 60:
            n = rng.randint(2, 5)
            x = random_vector(rng, n)
            i = rng.randrange(n)
            us = []
            while len(us) < 2:
                cand = random_vector(rng, n)
                if dominates_at(x, cand, i):
                    us.append(cand)
            u, v = us
            t = Fraction(rng.randint(0, 8), 8)
            z = vec(*(t * a + (1 - t) * b for a, b in zip(u, v)))
            assert dominates_at(x, join(u, v), i)
            assert dominates_at(x, meet(u, v), i)
            assert dominates_at(x, z, i)
            found += 1


class TestDominatesPolytope:
    def test_single_generator_equal_to_x(self):
        x = vec(1, 2, 3)
        p = Polytope(MAX, mat_from_columns([x]))
        for i in range(3):
            assert dominates_polytope_at(x, p, i)

    def test_frozen_examples(self):
        p = poly(MAX, (0, 1, 2))
        assert dominates_polytope_at(vec(0, 0, 0), p, 0)
        assert not dominates_polytope_at(vec(0, 0, 0), p, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dominates_polytope_at(vec(0, 0), poly(MAX, (0, 1, 2)), 0)

    @given(max_plus_polytopes(), st.data())
    def test_generator_check_covers_span_members(self, p, data):
        # domination of all generators implies domination of any sampled member
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        x = random_vector(rng, p.ambient_dim, 6, 4)
        for i in range(p.ambient_dim):
            if dominates_polytope_at(x, p, i):
                for _ in range(5):
                    assert dominates_at(x, reference_random_member(rng, p), i)


class TestPrincipalProjection:
    def test_generator_projects_to_itself(self):
        p = poly(MAX, (0, 0, 0), (0, 1, 2))
        for g in p:
            assert principal_projection(p, g) == g

    def test_frozen_non_member(self):
        p = poly(MAX, (0, 0, 0), (0, 1, 2))
        y = vec(-1, 0, 0)
        assert principal_projection(p, y) == vec(-1, -1, 0)
        assert not member(p, y)

    def test_frozen_member(self):
        p = poly(MAX, (0, 1), (1, 0))
        y = vec(0, -1)
        assert principal_projection(p, y) == y
        assert member(p, y)

    @given(max_plus_polytopes(), st.data())
    def test_max_plus_projection_is_largest_below(self, p, data):
        y = data.draw(vectors(p.ambient_dim))
        proj = principal_projection(p, y)
        assert leq(proj, y)
        assert member(p, proj)

    @given(max_plus_polytopes(), st.data())
    def test_min_plus_route_matches_direct_formula(self, p, data):
        q = Polytope(MIN, p.generators)
        y = data.draw(vectors(q.ambient_dim))
        proj = principal_projection(q, y)
        assert proj.entries == direct_min_plus_projection(q, y)
        assert leq(y, proj)
        assert member(q, proj)


class TestMember:
    def test_generators_are_members(self):
        p = poly(MAX, (0, 1), (1, 0), (5, -3))
        for g in p:
            assert member(p, g)

    def test_frozen_examples(self):
        assert member(poly(MAX, (0, 1), (1, 0)), vec(0, -1))
        assert not member(poly(MAX, (0, 0, 0), (0, 1, 2)), vec(-1, 0, 0))

    @given(max_plus_polytopes(), st.data())
    def test_invariant_under_query_scaling(self, p, data):
        y = data.draw(vectors(p.ambient_dim))
        lam = data.draw(rationals)
        assert member(p, y) == member(p, shifted(y, lam))

    @given(max_plus_polytopes(n_max=3, m_max=3), st.data())
    def test_agrees_with_subset_enumeration(self, p, data):
        y = data.draw(vectors(p.ambient_dim))
        assert member(p, y) == member_by_principal_subsets(p, y)
        q = Polytope(MIN, p.generators)
        z = data.draw(vectors(q.ambient_dim))
        assert member(q, z) == member_by_principal_subsets(q, z)

    def test_agrees_with_integer_grid_search(self):
        rng = random.Random(11)
        ints = lambda: Fraction(rng.randint(-3, 3))
        for _ in range(40):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            p = Polytope(
                MAX,
                mat_from_columns(
                    [vec(*(ints() for _ in range(n))) for _ in range(m)]
                ),
            )
            # half the queries are forced members so both branches get exercised
            if rng.random() < 0.5:
                y = reference_random_member(rng, p, 3, 1)
            else:
                y = vec(*(ints() for _ in range(n)))
            assert member(p, y) == member_by_integer_grid(p, y)
