"""Seeded corpus generators shared by the module and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from tropgeo import (
    Flavor,
    Polytope,
    TropMatrix,
    TropVector,
    classify,
    dominator,
    mat_from_columns,
)


def random_fraction(rng: random.Random, num_bound: int = 20, den_bound: int = 10) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_vector(rng: random.Random, n: int, num_bound: int = 20, den_bound: int = 10) -> TropVector:
    return TropVector(tuple(random_fraction(rng, num_bound, den_bound) for _ in range(n)))


def random_generator_matrix(
    rng: random.Random, n: int, m: int, num_bound: int = 20, den_bound: int = 10
) -> TropMatrix:
    return mat_from_columns([random_vector(rng, n, num_bound, den_bound) for _ in range(m)])


def random_polytope(
    rng: random.Random,
    n_max: int = 6,
    m_max: int = 8,
    num_bound: int = 20,
    den_bound: int = 10,
    n_min: int = 1,
    m_min: int = 1,
    flavor: Flavor = Flavor.MAX_PLUS,
) -> Polytope:
    n = rng.randint(n_min, n_max)
    m = rng.randint(m_min, m_max)
    return Polytope(flavor, random_generator_matrix(rng, n, m, num_bound, den_bound))


def random_polytrope(rng: random.Random, n_max: int = 4, m_max: int = 5, **kw) -> Polytope:
    """A guaranteed polytrope: the min-plus hull of a random max-plus polytope."""
    p = random_polytope(rng, n_max=n_max, m_max=m_max, **kw)
    return Polytope(Flavor.MAX_PLUS, dominator(p).matrix)


def random_non_polytrope(
    rng: random.Random, n_max: int = 4, m_max: int = 5, max_tries: int = 500, **kw
) -> Polytope:
    """Rejection-sample a max-plus polytope that classify reports non-convex."""
    for _ in range(max_tries):
        p = random_polytope(rng, n_max=n_max, m_max=m_max, n_min=2, m_min=2, **kw)
        if not classify(p).is_polytrope:
            return p
    raise RuntimeError("no non-polytrope found; corpus bounds too tight")


def transpose(a: TropMatrix) -> TropMatrix:
    return mat_from_columns([a.row(i) for i in range(a.n_rows)])


# hypothesis strategies

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10)

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def vectors(n: int, elements=rationals) -> st.SearchStrategy[TropVector]:
    return st.lists(elements, min_size=n, max_size=n).map(lambda es: TropVector(tuple(es)))


@st.composite
def vector_batches(draw, count: int, n_max: int = 6, elements=rationals):
    """``count`` random vectors sharing one random dimension."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    return tuple(draw(vectors(n, elements)) for _ in range(count))


@st.composite
def generator_matrices(draw, n_max: int = 4, m_max: int = 5, elements=small_rationals):
    n = draw(st.integers(min_value=1, max_value=n_max))
    m = draw(st.integers(min_value=1, max_value=m_max))
    cols = [draw(vectors(n, elements)) for _ in range(m)]
    return mat_from_columns(cols)


def max_plus_polytopes(n_max: int = 4, m_max: int = 5):
    return generator_matrices(n_max=n_max, m_max=m_max).map(
        lambda g: Polytope(Flavor.MAX_PLUS, g)
    )


# small denominators share factors; the large ones are distinct primes
DENOMINATORS = (1, 2, 3, 4, 6, 10, 10007, 10009, 65537, 1000003, 998244353, 2**61 - 1)


def rationals_over(den: int):
    """Rationals over ``den`` in [-20, 20]."""
    return st.integers(-20 * den, 20 * den).map(lambda num: Fraction(num, den))


@st.composite
def columns(draw, n: int, m: int):
    """m generator columns of length n, each over its own denominator; some
    are scalings of earlier ones."""
    cols = []
    for _ in range(m):
        den = draw(st.sampled_from(DENOMINATORS))
        if cols and draw(st.integers(0, 4)) == 0:
            lam = draw(rationals_over(den))
            cols.append(TropVector(tuple(e + lam for e in draw(st.sampled_from(cols)))))
        else:
            cols.append(TropVector(tuple(draw(st.lists(rationals_over(den), min_size=n, max_size=n)))))
    return cols


@st.composite
def polytopes(draw, flavor: Flavor = Flavor.MAX_PLUS, n_max: int = 16, m_max: int = 20, n_min: int = 1):
    n = draw(st.integers(n_min, n_max))
    m = draw(st.integers(1, m_max))
    return Polytope(flavor, mat_from_columns(draw(columns(n, m))))
