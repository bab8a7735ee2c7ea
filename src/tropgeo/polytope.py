"""Generator-level polytope manipulation and a Euclidean-convexity sampler.

Redundancy elimination (extremal generators, see ``reduce_generators``),
projectivisation (the cross-section of scaling orbits with first coordinate
0), extensional equality, and a randomized falsifier for Euclidean convexity
that cross-checks the exact decision of :mod:`tropgeo.kleene`.  All of it
runs on lattice ints, min-plus as negated max-plus (``Flavor.sign``), and
projected points and sampler reports hold only ints until their entries are read.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations, islice
from operator import add, sub
from sys import byteorder

from .core import (
    DimensionError,
    Flavor,
    Frozen,
    TropMatrix,
    TropVector,
    _normalised,
    _Over,
    vector_from_ints,
)
from .residuation import Polytope, member


def projectivise(x: TropVector) -> TropVector:
    """The scaling orbit of x, as its representative with first coordinate 0.

    Returns the remaining n-1 coordinates ``x_i - x_0``; two vectors project
    to the same point iff one is a tropical scaling of the other.
    """
    (point,) = projectivise_generators(Polytope(Flavor.MAX_PLUS, TropMatrix(tuple((e,) for e in x))))
    return point


def projectivise_generators(p: Polytope) -> list[TropVector]:
    """``projectivise`` of every generator of p, in order.

    The shifts ``x_i - x_0`` are taken on p's lattice ints, and each point
    holds only those ints until its entries are read.
    """
    if p.ambient_dim < 2:
        raise DimensionError("projectivisation needs dimension >= 2")
    lat = p.generators.lattice
    scale = _Over(lat.scale)  # equal shifts share one Fraction, once read
    return [vector_from_ints(scale, tuple([x - c[0] for x in c[1:]])) for c in lat.cols]


def reduce_generators(p: Polytope) -> Polytope:
    """Drop every generator that is not extremal, keeping one of each scaling class.

    A generator lies in the span of the others iff it is not extremal, and
    every generating set holds a tropical scaling of each extremal
    (Butkovič–Schneider–Sergeev and Gaubert–Katz, LAA 421, 2007).  So the
    earliest member of each extremal class is kept, in input order: what
    dropping redundant generators from the highest index down would keep.
    Which classes are kept does not depend on the order of the generators.

    The earliest member g of a class is extremal iff some coordinate i is
    covered by no earliest member h of another class: ``h - h_i·1 <= g -
    g_i·1``.  The likeliest such i, where g is nearest its row's maximum, is
    tested first and with no brackets, by filtering the other classes one
    coordinate at a time, farthest below the row maximum first; only if it
    is covered are g's brackets computed to test the rest, all m at once on
    rows packed one int each (``_in_span_of_others``).  That is O(n·m²)
    time and O(n·m) memory for n coordinates and m generators.  A p with
    nothing to drop is returned as it is.
    """
    cols = p.generators.lattice.cols_times(p.flavor.sign)
    first: dict[tuple[int, ...], int] = {}
    for k, col in enumerate(cols):
        first.setdefault(_normalised(col), k)
    reps = list(first.values())
    gens = [cols[k] for k in reps]
    rows = list(zip(*gens))
    tops = [max(r) for r in rows]
    keep = []
    lanes = None  # the rows packed for the bracket test, by the first class that needs it
    for j, (k, g) in enumerate(zip(reps, gens)):
        gaps = list(map(sub, tops, g))
        order = sorted(range(len(g)), key=gaps.__getitem__, reverse=True)
        i = order.pop()
        ri, hs = rows[i], [*range(j), *range(j + 1, len(gens))]
        for c in order:
            rc, d = rows[c], g[c] - g[i]
            if not (hs := [h for h in hs if rc[h] - ri[h] <= d]):
                break
        if hs:
            lanes = lanes or _row_lanes(rows, tops)
            if _in_span_of_others(lanes, gaps, j, reversed(order)):
                continue
        keep.append(k)
    if len(keep) == len(cols):
        return p  # nothing dropped: p is immutable, so it is its own reduction
    # the input's own Fractions: no TropVector per column, no Fraction rebuilt
    return Polytope(p.flavor, TropMatrix(tuple([tuple([r[k] for k in keep]) for r in p.generators.entries])))


def _row_lanes(rows: list[tuple[int, ...]], tops: list[int]) -> tuple[list[int], int, int, int, int]:
    """``(lanes, ones, bits, guard, span)``: lane h of ``lanes[c]``, ``bits`` wide, holds
    ``tops[c] - rows[c][h]``, at most ``span``; ``ones`` has a 1 in each lane, and
    ``2**guard > 2 * span`` with a lane holding ``2**(guard + 1)``.  Lane h lies h
    lanes from the low end, or from the high end where the byte order is "big"."""
    from .kleene import _lane_bytes, _pack  # the dominator's packing, loaded by the first bracket

    span = max(map(sub, tops, map(min, rows)))
    guard = (2 * span).bit_length()
    size = _lane_bytes(guard)
    width = size * len(rows[0])  # bytes of a row
    packed = _pack([t - x for t, r in zip(tops, rows) for x in r], size)
    lanes = [int.from_bytes(packed[s : s + width], byteorder) for s in range(0, len(packed), width)]
    return lanes, int.from_bytes((1).to_bytes(size, byteorder) * len(rows[0]), byteorder), 8 * size, guard, span


def _in_span_of_others(packing: tuple, gaps: list[int], j: int, coords: Iterable[int]) -> bool:
    """True iff g, the j-th class, is covered at every coordinate c in ``coords``:
    ``h_c + <h|g> = g_c`` for some other class h, where ``<h|g> = min(g - h)`` is
    h's bracket, never more than ``g_c - h_c``.  ``gaps`` are g's lanes, ``tops[c] -
    g_c``.  Lane h of one int holds h's bracket: n lanewise mins give all m."""
    lanes, ones, bits, guard, span = packing
    guards = ones << guard
    least = 2 * span * ones  # lane h: span + the least g_c - h_c so far, so span + <h|g> at the end
    for row, gap in zip(lanes, gaps):
        y = least + guards - row - (span - gap) * ones  # lane: 2**guard + least - (span + g_c - h_c)
        t = y & guards  # guard bits where the least so far is the larger
        least -= y & (t - (t >> guard))
    least += guards - span * ones
    lane = j if byteorder == "little" else (ones.bit_length() - 1) // bits - j  # g's lane, from the low end
    others = guards ^ (1 << bits * lane + guard)
    # lane h: 2**guard + h_c + <h|g> - g_c, with the guard bit iff h covers g at c
    return all((least - lanes[c] + gaps[c] * ones) & others for c in coords)


def polytope_equal(p: Polytope, q: Polytope) -> bool:
    """Extensional equality: each generator of one is a member of the other.

    Presentations are irrelevant; only the generated sets are compared.  A set
    that is a polytope in both flavors is convex in both, so polytopes of
    different flavors are equal iff each is convex in the other flavor and
    holds the other's generators: then each holds the other's span.
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {p.ambient_dim} vs {q.ambient_dim}"
        )
    if p.flavor is not q.flavor:
        from .kleene import is_min_plus_convex  # only a comparison across flavors needs it

        if not (is_min_plus_convex(p) and is_min_plus_convex(q)):
            return False
    return all(member(q, g) for g in p) and all(member(p, g) for g in q)


class MidpointReport(Frozen):
    """Everything a sampling run found.

    ``violations`` are affine points of span members that failed membership;
    ``certificates`` holds the matching ``(u, v, t)`` triple for each, so a
    violation can be re-verified from scratch.  An empty list is evidence of
    Euclidean convexity, never proof; a non-empty list is a proof of
    non-convexity.
    """

    __slots__ = ("trials", "seed", "violations", "certificates")
    trials: int
    seed: int
    violations: tuple[TropVector, ...]
    certificates: tuple[tuple[TropVector, TropVector, Fraction], ...]


# The sampler's coefficients a/b have |a| <= _NUM_BOUND and 1 <= b <= _DEN_BOUND.
_NUM_BOUND, _DEN_BOUND = 8, 6


def _below(bits: Callable[[int], int], n: int) -> int:
    """``Random.randrange(n)`` from ``bits = rng.getrandbits``: redraw ``n.bit_length()`` bits until below n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_rational(bits: Callable[[int], int]) -> tuple[int, int]:
    """``(a, b)``: the rational a/b with ``|a| <= _NUM_BOUND`` and ``1 <= b <= _DEN_BOUND``."""
    return _below(bits, 2 * _NUM_BOUND + 1) - _NUM_BOUND, _below(bits, _DEN_BOUND) + 1


def _random_unit_interval(bits: Callable[[int], int]) -> tuple[int, int]:
    """``(a, b)``: the rational a/b in (0, 1) with ``2 <= b <= 16``."""
    den = _below(bits, 15) + 2
    return _below(bits, den - 1) + 1, den


def _random_member_ints(
    rng: random.Random, cols: Sequence[Sequence[int]], steps: Sequence[int]
) -> list[int]:
    """A random span member on the sampler's lattice: the max over a random
    generator subset, each column shifted by a random coefficient."""
    bits = rng.getrandbits
    picks = rng.sample(range(len(cols)), _below(bits, len(cols)) + 1)
    shifted = []
    for k in picks:
        a, b = _random_rational(bits)
        lam = a * steps[b]
        shifted.append([x + lam for x in cols[k]])
    return [*map(max, *shifted)] if len(shifted) > 1 else shifted[0]


def _scaled_generator_pairs(
    p: Polytope, cols: Sequence[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Span-member pairs, lazily, aimed at where non-convexity must show up, if anywhere.

    For each failing dominator column i, in order, the generators
    scaled to have coordinate i 0: their componentwise extremum is that column,
    so segments between them probe the region the span fails to cover.
    ``cols`` are p's generators as signed ints on any scale, as are the pairs.
    """
    from .kleene import _failing_columns  # the sampler alone needs the dominator here

    for i in _failing_columns(p):
        yield from combinations(dict.fromkeys(tuple([x - col[i] for x in col]) for col in cols), 2)


def sample_euclidean_midpoints(
    p: Polytope,
    trials: int,
    seed: int,
    max_violations: int | None = None,
) -> MidpointReport:
    """Probe the span of p for failures of Euclidean convexity.

    Each trial draws two span members u, v (exact tropical combinations of
    generators with bounded random rational coefficients), a random rational
    t in (0, 1), and tests whether ``t*u + (1-t)*v`` is still a member.  The
    first trials walk the dominator-guided pairs from
    ``_scaled_generator_pairs`` at t = 1/2, then with random t; remaining
    trials alternate guided and unguided pairs.  Fully deterministic given
    the seed; the README says how draws and trials run in ints.
    ``max_violations`` stops the run early once that many violations are in
    hand (None collects everything the budget allows).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_violations is not None and max_violations < 1:
        raise ValueError("max_violations must be >= 1")
    import random  # only the sampler draws, so no other call pays for this import

    rng = random.Random(seed)
    bits = rng.getrandbits
    # p's generators on the scale S = L * lcm(1.._DEN_BOUND), times p.flavor.sign: a
    # coefficient a/b with b <= _DEN_BOUND is the whole shift a * steps[b]
    sign = p.flavor.sign
    unit = math.lcm(*range(1, _DEN_BOUND + 1))
    scale = p.generators.lattice.scale * unit
    cols = p.generators.lattice.cols_times(sign * unit)
    steps = [0] + [sign * (scale // b) for b in range(1, _DEN_BOUND + 1)]
    # trial k < len(guided) takes guided[k], so no pair past `trials` is ever drawn
    guided = list(islice(_scaled_generator_pairs(p, cols), trials))
    cols_over: dict[int, tuple] = {}  # b -> the generators over S*b and their rows
    # A report repeats the guided pairs, so equal reported vectors share one
    # TropVector, which holds its ints over S or S*b until its entries are read,
    # and the vectors over one scale share a Fraction for each equal entry.
    reported: dict[int, tuple[_Over, dict]] = {}  # over -> its scale, and ints -> vector

    def as_vector(ints: Sequence[int], over: int) -> TropVector:
        ints = tuple(ints)
        if over not in reported:
            reported[over] = _Over(sign * over), {}
        shared, seen = reported[over]
        if (vector := seen.get(ints)) is None:
            vector = seen[ints] = vector_from_ints(shared, ints)
        return vector

    violations: list[TropVector] = []
    certificates: list[tuple[TropVector, TropVector, Fraction]] = []
    performed = 0
    for trial in range(trials):
        if guided and trial < len(guided):
            u, v = guided[trial]
            a, b = 1, 2
        elif guided and trial % 2 == 0:
            u, v = guided[_below(bits, len(guided))]
            a, b = _random_unit_interval(bits)
            if rng.random() < 0.5:
                c, d = _random_rational(bits)
                lam = c * steps[d]
                u = [x + lam for x in u]
        else:
            u = _random_member_ints(rng, cols, steps)
            v = _random_member_ints(rng, cols, steps)
            a, b = _random_unit_interval(bits)
        performed += 1
        z = [a * x + (b - a) * y for x, y in zip(u, v)]
        if b not in cols_over:
            gens = tuple(tuple(b * x for x in g) for g in cols)
            cols_over[b] = gens, tuple(zip(*gens))
        gens, rows = cols_over[b]
        # z is a member iff its principal projection, max_k (g_k + <g_k|z>), is z
        lams = [min(map(sub, z, g)) for g in gens]
        if not all(max(map(add, r, lams)) == zi for r, zi in zip(rows, z)):
            violations.append(as_vector(z, scale * b))
            certificates.append((as_vector(u, scale), as_vector(v, scale), Fraction(a, b)))
            if max_violations is not None and len(violations) >= max_violations:
                break
    return MidpointReport(
        trials=performed,
        seed=seed,
        violations=tuple(violations),
        certificates=tuple(certificates),
    )
