import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropgeo import (
    DimensionError,
    Flavor,
    Polytope,
    mat_from_columns,
    member,
    polytope_equal,
    projectivise,
    reduce_generators,
    sample_euclidean_midpoints,
    vec,
)

from helpers import max_plus_polytopes, random_non_polytrope, random_polytrope, rationals, vectors
from oracles import affine_point, reference_random_member, shifted

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS


def poly(flavor, *gens):
    return Polytope(flavor, mat_from_columns([vec(*g) for g in gens]))


class TestProjectivise:
    def test_frozen_examples(self):
        assert projectivise(vec(0, 0, 0)) == vec(0, 0)
        assert projectivise(vec(1, 0, 0)) == vec(-1, -1)
        assert projectivise(vec(1, -1, 0)) == vec(-2, -1)

    def test_needs_two_coordinates(self):
        with pytest.raises(DimensionError):
            projectivise(vec(5))

    @given(vectors(4), rationals)
    def test_constant_on_scaling_orbits(self, x, lam):
        assert projectivise(shifted(x, lam)) == projectivise(x)

    @given(vectors(3), vectors(3))
    def test_separates_distinct_orbits(self, x, y):
        if projectivise(x) == projectivise(y):
            assert shifted(x, y[0] - x[0]) == y


class TestReduceGenerators:
    def test_scaling_redundancy_keeps_earliest(self):
        v = vec(2, 0, 1)
        p = Polytope(MAX, mat_from_columns([v, shifted(v, 3)]))
        reduced = reduce_generators(p)
        assert reduced.n_generators == 1
        assert reduced.generator(0) == v

    def test_interior_point_dropped(self):
        p = poly(MAX, (0, 1), (1, 0), (0, 0))
        reduced = reduce_generators(p)
        assert [tuple(g) for g in reduced] == [(0, 1), (1, 0)]

    def test_independent_generators_untouched(self):
        p = poly(MAX, (0, 0, 0), (0, 1, 2))
        assert reduce_generators(p).generators == p.generators

    @given(max_plus_polytopes())
    def test_preserves_the_span(self, p):
        assert polytope_equal(p, reduce_generators(p))

    @given(max_plus_polytopes())
    def test_result_is_irredundant(self, p):
        reduced = reduce_generators(p)
        if reduced.n_generators == 1:
            return
        cols = list(reduced)
        for j in range(len(cols)):
            others = cols[:j] + cols[j + 1 :]
            assert not member(Polytope(MAX, mat_from_columns(others)), cols[j])

    def test_min_plus_flavor(self):
        p = poly(MIN, (0, 1), (1, 0), (1, 1))
        reduced = reduce_generators(p)
        assert [tuple(g) for g in reduced] == [(0, 1), (1, 0)]


class TestPolytopeEqual:
    def test_syntactic_equality(self):
        p = poly(MAX, (0, 1), (1, 0))
        assert polytope_equal(p, p)

    def test_redundant_presentation(self):
        assert polytope_equal(
            poly(MAX, (0, 1), (1, 0)), poly(MAX, (0, 1), (1, 0), (0, 0))
        )

    def test_distinct_spans(self):
        assert not polytope_equal(poly(MAX, (0, 0, 0)), poly(MAX, (0, 1, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            polytope_equal(poly(MAX, (0, 1)), poly(MAX, (0, 1, 2)))

    def test_across_flavors(self):
        """Each generator lies in the other span, yet (0,1,0) is in the max-plus
        span and not in the min-plus one: neither span is convex in the other flavor."""
        p, q = poly(MAX, (0, 0, 0), (0, 2, 1)), poly(MIN, (0, 0, 0), (0, 2, 1))
        assert all(member(q, g) for g in p) and all(member(p, g) for g in q)
        assert member(p, vec(0, 1, 0)) and not member(q, vec(0, 1, 0))
        assert not polytope_equal(p, q) and not polytope_equal(q, p)
        # a segment of the plane is a polytrope: both flavors span it
        assert polytope_equal(poly(MAX, (0, 1), (1, 0)), poly(MIN, (0, 1), (1, 0)))
        assert not polytope_equal(poly(MAX, (0, 1), (1, 0)), poly(MIN, (0, 1), (2, 0)))

    @given(max_plus_polytopes(), st.data())
    def test_invariant_under_permutation_and_scaling(self, p, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        cols = list(p)
        rng.shuffle(cols)
        scaled = [shifted(c, Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for c in cols]
        q = Polytope(MAX, mat_from_columns(scaled))
        assert polytope_equal(p, q)
        assert polytope_equal(q, p)

    @given(max_plus_polytopes(), max_plus_polytopes())
    def test_symmetric(self, p, q):
        if p.ambient_dim == q.ambient_dim:
            assert polytope_equal(p, q) == polytope_equal(q, p)

    @given(max_plus_polytopes(), st.data())
    def test_transitive_along_representation_changes(self, p, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        cols = list(p)
        rng.shuffle(cols)
        q = Polytope(MAX, mat_from_columns([shifted(c, rng.randint(-4, 4)) for c in cols]))
        r = Polytope(MAX, mat_from_columns(list(q) + [reference_random_member(rng, q)]))
        assert polytope_equal(p, q) and polytope_equal(q, r) and polytope_equal(p, r)


class TestMidpointSampler:
    def test_single_generator_has_no_violations(self):
        report = sample_euclidean_midpoints(poly(MAX, (0, 3, -2)), trials=80, seed=4)
        assert report.violations == ()

    def test_kleene_star_columns_have_no_violations(self):
        p = poly(MAX, (0, -1), (-1, 0))
        report = sample_euclidean_midpoints(p, trials=200, seed=4)
        assert report.violations == ()

    def test_segment_violation_found_immediately(self):
        p = poly(MAX, (0, 0, 0), (0, 1, 2))
        report = sample_euclidean_midpoints(p, trials=10, seed=0, max_violations=1)
        assert report.violations
        # first guided pair: generators scaled to the witness position, at t=1/2
        assert report.violations[0] == vec("-1/2", 0, "1/2")

    def test_violations_carry_valid_certificates(self):
        p = random_non_polytrope(random.Random(99), n_max=3, m_max=4, num_bound=5, den_bound=3)
        # negation maps the max-plus span onto the min-plus span of -V
        negated = Polytope(MIN, mat_from_columns([-g for g in p]))
        for q in (p, negated):
            report = sample_euclidean_midpoints(q, trials=400, seed=7)
            assert report.violations
            for z, (u, v, t) in zip(report.violations, report.certificates):
                assert member(q, u) and member(q, v)
                assert 0 < t < 1
                assert affine_point(u, v, t) == z
                assert not member(q, z)

    def test_deterministic_given_seed(self):
        p = poly(MAX, (0, 0, 0), (0, 1, 2))
        a = sample_euclidean_midpoints(p, trials=60, seed=123)
        b = sample_euclidean_midpoints(p, trials=60, seed=123)
        assert a == b
        c = sample_euclidean_midpoints(p, trials=60, seed=124)
        assert a != c  # astronomically unlikely to coincide

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_euclidean_midpoints(poly(MAX, (0, 1)), trials=0, seed=1)

    @pytest.mark.parametrize("bound", [0, -3])
    def test_max_violations_must_be_positive(self, bound):
        with pytest.raises(ValueError, match="max_violations must be >= 1"):
            sample_euclidean_midpoints(poly(MAX, (0, 1)), trials=10, seed=0, max_violations=bound)

    def test_polytrope_sampling_stays_clean(self):
        rng = random.Random(31)
        for _ in range(10):
            p = random_polytrope(rng, n_max=3, m_max=4, num_bound=6, den_bound=4)
            report = sample_euclidean_midpoints(p, trials=60, seed=rng.randint(0, 10**6))
            assert report.violations == ()

    def test_sampled_pairs_are_members(self):
        rng = random.Random(17)
        p = random_polytrope(rng, n_max=3, m_max=3)
        for _ in range(20):
            assert member(p, reference_random_member(rng, p))

    def test_min_plus_flavor_uses_dual_guidance(self):
        p = poly(MIN, (0, 0, 0), (0, -1, -2))
        report = sample_euclidean_midpoints(p, trials=20, seed=0, max_violations=1)
        assert report.violations == (vec("1/2", 0, "-1/2"),)
        u, v, t = report.certificates[0]
        assert member(p, u) and member(p, v) and not member(p, report.violations[0])
