"""Residuation bracket, domination, and membership in tropical spans.

The bracket ``<x|y> = max{lam : lam (*) x <= y} = min_i (y_i - x_i)`` is the
residuation operator of tropical scaling: it gives the largest scaling of x
that fits under y.  Everything else here is built on it.  ``x`` dominates
``y`` in position i when the minimum is attained at i; membership of y in a
finitely generated span reduces to checking that the principal projection
(the best approximation of y from below, or above for min-plus) reproduces y
exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from operator import add, sub

from .core import (
    DimensionError,
    Flavor,
    Frozen,
    TropMatrix,
    TropVector,
    _fraction,
    vector_from_ints,
)


class Polytope(Frozen):
    """A finitely generated tropical convex set.

    ``generators`` holds one generator per column; the polytope is the set of
    all tropical combinations (max-plus or min-plus sums of scaled generators,
    per ``flavor``) of the columns.  Two polytopes are the same set iff each
    generator of one is a member of the other's span, regardless of how many
    redundant generators either presentation carries.
    """

    __slots__ = ("flavor", "generators")
    flavor: Flavor
    generators: TropMatrix

    @property
    def ambient_dim(self) -> int:
        return self.generators.n_rows

    @property
    def n_generators(self) -> int:
        return self.generators.n_cols

    def generator(self, k: int) -> TropVector:
        return self.generators.col(k)

    def __iter__(self) -> Iterator[TropVector]:
        return self.generators.columns()


def _differences(x: TropVector, y: TropVector) -> tuple[int, list[int]]:
    """``y - x`` on x's and y's common scale: ``(scale, ints)``."""
    (xscale, xs), (yscale, ys) = x.lattice, y.lattice
    if len(xs) != len(ys):
        raise DimensionError(f"vector lengths differ: {len(xs)} vs {len(ys)}")
    scale = math.lcm(xscale, yscale)
    xf, yf = scale // xscale, scale // yscale
    return scale, [b * yf - a * xf for a, b in zip(xs, ys)]


def bracket(x: TropVector, y: TropVector) -> Fraction:
    """The residuation bracket ``min_i (y_i - x_i)``.

    Equivalently the largest ``lam`` with ``x + lam·1 <= y``.
    """
    scale, diffs = _differences(x, y)
    return _fraction()(min(diffs), scale)


def dominates_at(x: TropVector, y: TropVector, i: int) -> bool:
    """True iff the bracket ``<x|y>`` is attained at coordinate i."""
    diffs = _differences(x, y)[1]
    if not 0 <= i < len(diffs):
        raise IndexError(f"position {i} out of range for dimension {len(diffs)}")
    return min(diffs) == diffs[i]


def dominates_polytope_at(x: TropVector, p: Polytope, i: int) -> bool:
    """True iff x dominates every point of the span of p in position i.

    Domination of a span is equivalent to domination of its generators
    (the dominated set at a fixed position is closed under both tropical
    sums and scaling), so only the generators are checked.
    """
    if len(x) != p.ambient_dim:
        raise DimensionError(f"vector length {len(x)} != ambient dimension {p.ambient_dim}")
    return all(dominates_at(x, g, i) for g in p)


def principal_projection(p: Polytope, y: TropVector) -> TropVector:
    """Best approximation of y inside the span of p.

    Max-plus: the largest element of the span that is <= y, namely the
    max-plus sum of each generator scaled by its bracket against y.  Min-plus:
    the smallest span element >= y, the min-plus sum of generators scaled by
    ``max_i (y_i - g_i)``, computed as the negated max-plus projection of -y.
    The result is y itself exactly when y lies in the span, so ``member`` tests
    identity and a non-member builds no ``Fraction``.
    """
    yscale, ys = y.lattice
    if len(ys) != p.ambient_dim:
        raise DimensionError(f"vector length {len(ys)} != ambient dimension {p.ambient_dim}")
    lat = p.generators.lattice
    scale = math.lcm(lat.scale, yscale)
    sign = p.flavor.sign  # the ints times sign: the result's scale carries it back
    gens = lat.cols_times(sign * (scale // lat.scale))
    ys = [sign * scale // yscale * e for e in ys]
    lams = [min(map(sub, ys, g)) for g in gens]  # each generator's bracket against y
    z = [max(map(add, r, lams)) for r in zip(*gens)]
    return y if z == ys else vector_from_ints(sign * scale, tuple(z))  # a member is its own projection


def member(p: Polytope, y: TropVector) -> bool:
    """True iff y lies in the span of p (exact rational equality)."""
    return principal_projection(p, y) is y
