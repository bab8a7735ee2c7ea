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
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations, islice
from operator import add, sub

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
    is covered are g's brackets ``<h|g> = min(g - h)``, g's column of ``(-V^T)
    (min*) V``, computed by the packed product of the dominator fold
    (``kleene._lanewise_min``), and h covers g at c iff ``h_c + <h|g> = g_c``.
    That is O(n·m²) time and O(n·m) memory for n coordinates and m
    generators.  A p with nothing to drop is returned as it is.
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
    lanes = None  # the rows packed for the brackets, by the first class that needs them
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
            if lanes is None:
                from .kleene import _lanewise_min, _packed  # loaded by the first bracket

                # lane h of lanes[c] holds tops[c] - h_c, and every g_c - h_c lies within span
                span = max(map(sub, tops, map(min, rows)))
                guard = (2 * span).bit_length()
                lanes, ones = _packed([t - x for t, r in zip(tops, rows) for x in r], len(gens), guard)
                guards = ones << guard
            (brackets,) = _lanewise_min(lanes, [gaps], ones, guard, span)  # lane h: 2**guard + <h|g>
            # lane h: 2**guard + h_c + <h|g> - g_c, with the guard bit iff h covers g at c; g's own lane has it
            if all(((brackets - lanes[c] + gaps[c] * ones) & guards).bit_count() > 1 for c in reversed(order)):
                continue
        keep.append(k)
    if len(keep) == len(cols):
        return p  # nothing dropped: p is immutable, so it is its own reduction
    # the input's own Fractions: no TropVector per column, no Fraction rebuilt
    return Polytope(p.flavor, TropMatrix(tuple([tuple([r[k] for k in keep]) for r in p.generators.entries])))


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


def _sample(bits: Callable[[int], int], n: int, k: int) -> list[int]:
    """``Random.sample(range(n), k)`` from ``bits = rng.getrandbits``, draw for draw.

    As CPython's does, it picks from a pool of the values not yet picked
    while a list of n is smaller than a set of k (``setsize``), and otherwise
    redraws values already picked; every draw is ``_below``'s.
    """
    setsize = 21  # CPython's: a small set's size less an empty list's
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    picks = []
    if n <= setsize:
        pool = list(range(n))
        for i in range(n, n - k, -1):  # i values left in the pool
            w = i.bit_length()
            j = bits(w)
            while j >= i:
                j = bits(w)
            picks.append(pool[j])
            pool[j] = pool[i - 1]
        return picks
    w = n.bit_length()
    picked = set()
    for _ in range(k):
        j = bits(w)
        while j >= n or j in picked:
            j = bits(w)
        picked.add(j)
        picks.append(j)
    return picks


def _random_member_ints(
    bits: Callable[[int], int], cols: Sequence[Sequence[int]], shifts: Sequence[Sequence[int]]
) -> list[int]:
    """A random span member on the sampler's lattice: the max over a random
    generator subset, each column shifted by a random coefficient.

    The subset is ``_sample``'s, of a size drawn by ``_below``.  Each
    coefficient is two more ``_below`` draws, r and s, and ``shifts[r][s]`` is
    its whole shift; the draws are written out here, not called.
    """
    m, nums, dens = len(cols), len(shifts), len(shifts[0])
    mw, nw, dw = m.bit_length(), nums.bit_length(), dens.bit_length()
    size = bits(mw)
    while size >= m:
        size = bits(mw)
    shifted = []
    for k in _sample(bits, m, size + 1):
        r = bits(nw)
        while r >= nums:
            r = bits(nw)
        s = bits(dw)
        while s >= dens:
            s = bits(dw)
        lam = shifts[r][s]
        shifted.append([x + lam for x in cols[k]])
    return [*map(max, *shifted)] if size else shifted[0]


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
    # coefficient a/b with b <= _DEN_BOUND is the whole shift shifts[a + _NUM_BOUND][b - 1]
    sign = p.flavor.sign
    unit = math.lcm(*range(1, _DEN_BOUND + 1))
    scale = p.generators.lattice.scale * unit
    cols = p.generators.lattice.cols_times(sign * unit)
    shifts = [[a * sign * (scale // b) for b in range(1, _DEN_BOUND + 1)] for a in range(-_NUM_BOUND, _NUM_BOUND + 1)]
    # trial k < len(guided) takes guided[k], so no pair past `trials` is ever drawn
    guided = list(islice(_scaled_generator_pairs(p, cols), trials))
    cols_over: dict[int, tuple] = {}  # b -> the generators over S*b and their rows
    # A report repeats the guided pairs, so equal reported vectors share one
    # TropVector, which holds its ints over S or S*b until its entries are read,
    # and the vectors over one scale share a Fraction for each equal entry.
    reported: dict[int, tuple[_Over, dict]] = {}  # over -> its scale, and ints -> vector
    ts: dict = {}  # (a, b) -> t = a/b, and t -> t: equal t share one Fraction

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
        else:
            if from_guided := guided and trial % 2 == 0:
                u, v = guided[_below(bits, len(guided))]
            else:
                u = _random_member_ints(bits, cols, shifts)
                v = _random_member_ints(bits, cols, shifts)
            b = _below(bits, 15) + 2  # t = a/b in (0, 1) with 2 <= b <= 16
            a = _below(bits, b - 1) + 1
            if from_guided and rng.random() < 0.5:
                lam = shifts[_below(bits, len(shifts))][_below(bits, _DEN_BOUND)]
                u = [x + lam for x in u]
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
            if (a, b) not in ts:
                ts[a, b] = ts.setdefault(t := Fraction(a, b), t)
            certificates.append((as_vector(u, scale), as_vector(v, scale), ts[a, b]))
            if max_violations is not None and len(violations) >= max_violations:
                break
    return MidpointReport(
        trials=performed,
        seed=seed,
        violations=tuple(violations),
        certificates=tuple(certificates),
    )
