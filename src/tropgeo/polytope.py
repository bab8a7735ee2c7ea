"""Generator-level polytope manipulation and a Euclidean-convexity sampler.

Redundancy elimination, projectivisation (the cross-section of scaling orbits
with first coordinate 0), extensional equality, and a randomized falsifier
for Euclidean convexity.  The falsifier only ever *disproves* convexity: any
point it reports really is an exact rational affine combination of two span
members that fails membership.  The decision procedure for convexity lives in
:mod:`tropgeo.kleene`; the sampler exists to cross-check it.  Min-plus results
are negated max-plus ones, computed in one place (``Flavor.sign``); the
sampler builds only the guided pairs its trial budget can use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator, Optional

from .core import (
    DimensionError,
    TropVector,
    from_lattice,
    mat_from_columns,
    scale,
    trop_sum,
)
from .kleene import _failing_columns, _star
from .residuation import Polytope, _max_plus_projection, member


def projectivise(x: TropVector) -> TropVector:
    """The scaling orbit of x, as its representative with first coordinate 0.

    Returns the remaining n-1 coordinates ``x_i - x_0``; two vectors project
    to the same point iff one is a tropical scaling of the other.
    """
    if len(x) < 2:
        raise DimensionError("projectivisation needs dimension >= 2")
    first = x[0]
    return TropVector(tuple(e - first for e in x.entries[1:]))


def reduce_generators(p: Polytope) -> Polytope:
    """Drop generators that lie in the span of the remaining ones.

    Generators are examined one at a time from the highest index down, each
    tested against the span of all others still retained; a redundant one is
    removed before the scan continues.  The result generates the same span
    and contains no generator in the span of the others.  Among mutually
    redundant generators (e.g. scalings of one another) the earliest-indexed
    survives.
    """
    cols = p.generators.lattice.cols_times(p.flavor.sign)
    keep = list(range(len(cols)))
    for j in reversed(range(len(cols))):
        if len(keep) == 1:
            break
        others = [cols[k] for k in keep if k != j]
        if _max_plus_projection(others, cols[j]) == list(cols[j]):
            keep.remove(j)
    return Polytope(p.flavor, mat_from_columns([p.generator(k) for k in keep]))


def polytope_equal(p: Polytope, q: Polytope) -> bool:
    """Extensional equality: each generator of one is a member of the other.

    Presentations are irrelevant; only the generated sets are compared.  The
    two polytopes may carry different flavors: the test is then mutual
    containment of generators, which coincides with set equality whenever
    each span is also convex in the other flavor (Kleene star column spaces
    are the motivating case).
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {p.ambient_dim} vs {q.ambient_dim}"
        )
    return all(member(q, g) for g in p) and all(member(p, g) for g in q)


@dataclass(frozen=True)
class MidpointReport:
    """Everything a sampling run found.

    ``violations`` are affine points of span members that failed membership;
    ``certificates`` holds the matching ``(u, v, t)`` triple for each, so a
    violation can be re-verified from scratch.  An empty list is evidence of
    Euclidean convexity, never proof; a non-empty list is a proof of
    non-convexity.
    """

    trials: int
    seed: int
    violations: tuple[TropVector, ...]
    certificates: tuple[tuple[TropVector, TropVector, Fraction], ...]


def random_rational(rng: random.Random, num_bound: int = 8, den_bound: int = 6) -> Fraction:
    """A rational with ``|numerator| <= num_bound`` and denominator <= den_bound."""
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_member(
    rng: random.Random,
    p: Polytope,
    num_bound: int = 8,
    den_bound: int = 6,
) -> TropVector:
    """A random span member: a tropical combination of a random generator subset."""
    size = rng.randint(1, p.n_generators)
    picks = rng.sample(range(p.n_generators), size)
    return trop_sum(
        p.flavor,
        (scale(random_rational(rng, num_bound, den_bound), p.generator(k)) for k in picks),
    )


def affine_point(u: TropVector, v: TropVector, t: Fraction) -> TropVector:
    """The exact ordinary affine combination ``t*u + (1-t)*v``."""
    if len(u) != len(v):
        raise DimensionError(f"vector lengths differ: {len(u)} vs {len(v)}")
    s = 1 - t
    return TropVector(tuple(t * a + s * b for a, b in zip(u, v)))


def _scaled_generator_pairs(p: Polytope) -> Iterator[tuple[TropVector, TropVector]]:
    """Span-member pairs, lazily, aimed at where non-convexity must show up, if anywhere.

    For each dominator column that fails membership, scale every generator to
    have that coordinate 0.  The componentwise extremum of those scaled
    generators is the failing column itself, so segments between them probe
    the region the span fails to cover.  Returns no pairs when the polytope
    is convex (no failing columns).
    """
    lat = p.generators.lattice
    for i in _failing_columns(p, _star(p)):
        ws: list[tuple[int, ...]] = []
        for col in lat.cols:
            w = tuple(x - col[i] for x in col)
            if w not in ws:
                ws.append(w)
        vs = [TropVector(from_lattice(w, lat.scale)) for w in ws]
        yield from combinations(vs, 2)


def sample_euclidean_midpoints(
    p: Polytope,
    trials: int,
    seed: int,
    max_violations: Optional[int] = None,
) -> MidpointReport:
    """Probe the span of p for failures of Euclidean convexity.

    Each trial draws two span members u, v (exact tropical combinations of
    generators with bounded random rational coefficients), a random rational
    t in (0, 1), and tests whether ``t*u + (1-t)*v`` is still a member.  The
    first trials walk the dominator-guided pairs from
    ``_scaled_generator_pairs`` at t = 1/2, then with random t; remaining
    trials alternate guided and unguided pairs.  Fully deterministic given
    the seed.  ``max_violations`` stops the run early once that many
    violations are in hand (None collects everything the budget allows).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_violations is not None and max_violations < 1:
        raise ValueError("max_violations must be >= 1")
    rng = random.Random(seed)
    # trial k < len(guided) takes guided[k], so no pair past `trials` is ever drawn
    guided = list(islice(_scaled_generator_pairs(p), trials))
    violations: list[TropVector] = []
    certificates: list[tuple[TropVector, TropVector, Fraction]] = []
    performed = 0
    for trial in range(trials):
        if guided and trial < len(guided):
            u, v = guided[trial]
            t = Fraction(1, 2)
        elif guided and trial % 2 == 0:
            u, v = guided[rng.randrange(len(guided))]
            t = _random_unit_interval(rng)
            if rng.random() < 0.5:
                u = scale(random_rational(rng), u)
        else:
            u = random_member(rng, p)
            v = random_member(rng, p)
            t = _random_unit_interval(rng)
        performed += 1
        z = affine_point(u, v, t)
        if not member(p, z):
            violations.append(z)
            certificates.append((u, v, t))
            if max_violations is not None and len(violations) >= max_violations:
                break
    return MidpointReport(
        trials=performed,
        seed=seed,
        violations=tuple(violations),
        certificates=tuple(certificates),
    )


def _random_unit_interval(rng: random.Random) -> Fraction:
    den = rng.randint(2, 16)
    return Fraction(rng.randint(1, den - 1), den)
