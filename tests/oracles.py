"""Independent brute-force oracles.

Everything here recomputes results with plain Python loops over Fractions,
deliberately avoiding the library's own operation implementations, so the
tests compare two separately written routes to the same value.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import re
from contextlib import contextmanager
from fractions import Fraction
from operator import add, sub
from typing import Iterator, Optional

from tropgeo import DocumentError, Flavor, MidpointReport, Polytope, TropMatrix, TropVector
from tropgeo.core import Frozen


def naive_mat_mul(use_max: bool, a: TropMatrix, b: TropMatrix) -> list[list[Fraction]]:
    pick = max if use_max else min
    ae, be = a.entries, b.entries  # each read builds every entry
    out = []
    for i in range(a.n_rows):
        row = []
        for j in range(b.n_cols):
            row.append(pick(ae[i][k] + be[k][j] for k in range(a.n_cols)))
        out.append(row)
    return out


def is_star_by_product(use_max: bool, a: TropMatrix) -> bool:
    """Zero diagonal and ``a (x) a == a``, by the plain Fraction product."""
    entries = a.entries
    return all(entries[i][i] == 0 for i in range(a.n_rows)) and naive_mat_mul(use_max, a, a) == [list(r) for r in entries]


def bumped(a: TropMatrix, cell: tuple[int, int], by: Fraction) -> TropMatrix:
    """``a`` with ``by`` added to the entry at ``cell``."""
    return TropMatrix(
        tuple(tuple(e + by if (i, j) == cell else e for j, e in enumerate(r)) for i, r in enumerate(a.entries))
    )


def potential_star(x, y) -> TropMatrix:
    """The max-plus Kleene star ``a_ij = min(0, x_i - x_j) + y_i - y_j``.

    ``min(0, x_i - x_k) + min(0, x_k - x_j)`` is at most both 0 and
    ``x_i - x_j``, so every ``a_ik + a_kj <= a_ij`` and the diagonal is 0.
    With y = 0 its entries span ``[min(x) - max(x), 0]`` exactly.
    """
    n = len(x)
    return TropMatrix(tuple(tuple(Fraction(min(0, x[i] - x[j]) + y[i] - y[j]) for j in range(n)) for i in range(n)))


def shifted(v, lam) -> TropVector:
    """Tropical scaling: ``lam`` added to every coordinate of ``v``."""
    return TropVector(tuple(e + lam for e in v))


def join(*vs) -> TropVector:
    """The componentwise max of one or more vectors: their least upper bound."""
    return TropVector(tuple(max(c) for c in zip(*vs, strict=True)))


def meet(*vs) -> TropVector:
    """The componentwise min of one or more vectors: their greatest lower bound."""
    return TropVector(tuple(min(c) for c in zip(*vs, strict=True)))


def naive_bracket(x: TropVector, y: TropVector) -> Fraction:
    best = y[0] - x[0]
    for i in range(1, len(x)):
        d = y[i] - x[i]
        if d < best:
            best = d
    return best


def _combine(use_max: bool, gens: list[TropVector], lams: list[Fraction]) -> tuple[Fraction, ...]:
    pick = max if use_max else min
    n = len(gens[0])
    return tuple(pick(g[i] + lam for g, lam in zip(gens, lams)) for i in range(n))


def member_by_principal_subsets(p: Polytope, y: TropVector) -> bool:
    """Membership by enumerating combinations over generator subsets.

    Only the principal coefficient of each generator can witness membership
    (any feasible coefficient is bounded by it, and raising a coefficient to
    the bound never breaks feasibility), so the grid of candidate
    combinations collapses to one coefficient per generator and a choice of
    subset.
    """
    use_max = p.flavor is Flavor.MAX_PLUS
    gens = list(p)
    if use_max:
        lams = [min(y[i] - g[i] for i in range(len(y))) for g in gens]
    else:
        lams = [max(y[i] - g[i] for i in range(len(y))) for g in gens]
    indices = range(len(gens))
    for size in range(1, len(gens) + 1):
        for subset in itertools.combinations(indices, size):
            z = _combine(use_max, [gens[k] for k in subset], [lams[k] for k in subset])
            if z == tuple(y):
                return True
    return False


def member_by_integer_grid(p: Polytope, y: TropVector, pad: int = 1) -> bool:
    """Max-plus membership by exhaustive search over an integer coefficient grid.

    Valid only when the generators and the query are integral: any witnessing
    combination can then be chosen with integer coefficients within the
    per-generator bracket bound.
    """
    assert p.flavor is Flavor.MAX_PLUS
    gens = list(p)
    spread = max(abs(y[i] - g[i]) for g in gens for i in range(len(y)))
    assert spread.denominator == 1, "grid search needs integral data"
    bound = int(spread) + pad
    lo, hi = -bound, bound
    for lams in itertools.product(range(lo, hi + 1), repeat=len(gens)):
        z = _combine(True, gens, [Fraction(l) for l in lams])
        if z == tuple(y):
            return True
    return False


def direct_min_plus_projection(p: Polytope, y: TropVector) -> tuple[Fraction, ...]:
    """The min-plus principal projection from its direct formula.

    Each generator is lifted by ``max_i (y_i - g_i)`` and the results are
    combined with componentwise min; this is the smallest span element above
    y, written without the negation detour the library uses.
    """
    assert p.flavor is Flavor.MIN_PLUS
    gens = list(p)
    lams = [max(y[i] - g[i] for i in range(len(y))) for g in gens]
    return _combine(False, gens, lams)


def glb_column_fold(v: TropMatrix, i: int) -> tuple[Fraction, ...]:
    """Column i of the dominator as a min-fold of scaled generators.

    Scale every generator so its i-th coordinate is 0, then take the
    componentwise min: the greatest lower bound of the i-th slice.
    """
    n, m, entries = v.n_rows, v.n_cols, v.entries
    cols = [[entries[j][k] - entries[i][k] for j in range(n)] for k in range(m)]
    return tuple(min(c[j] for c in cols) for j in range(n))


def lub_column_fold(v: TropMatrix, i: int) -> tuple[Fraction, ...]:
    """Column i of the dual dominator: the componentwise max of the generators
    scaled to have i-th coordinate 0, the least upper bound of the i-th slice."""
    n, m, entries = v.n_rows, v.n_cols, v.entries
    cols = [[entries[j][k] - entries[i][k] for j in range(n)] for k in range(m)]
    return tuple(max(c[j] for c in cols) for j in range(n))


def direct_max_plus_projection(p: Polytope, y: TropVector) -> tuple[Fraction, ...]:
    """The max-plus principal projection from its direct formula: each
    generator lowered by ``min_i (y_i - g_i)``, combined by componentwise max."""
    assert p.flavor is Flavor.MAX_PLUS
    gens = list(p)
    lams = [min(y[i] - g[i] for i in range(len(y))) for g in gens]
    return _combine(True, gens, lams)


def direct_member(p: Polytope, y: TropVector) -> bool:
    """Membership by comparing y with its direct-formula projection."""
    if p.flavor is Flavor.MAX_PLUS:
        return direct_max_plus_projection(p, y) == tuple(y)
    return direct_min_plus_projection(p, y) == tuple(y)


def first_failing_glb_column(p: Polytope):
    """The lowest-indexed min-fold column outside the span of p, or None."""
    assert p.flavor is Flavor.MAX_PLUS
    for i in range(p.ambient_dim):
        column = glb_column_fold(p.generators, i)
        if not direct_member(p, TropVector(column)):
            return column
    return None


def fold_over_ordered_pairs(p: Polytope) -> tuple[tuple[int, ...], ...]:
    """The lattice ints of p's dominator, column-major, by the fold that forms
    the difference of every ordered pair of signed rows: ``D_ji = sign *
    min(v_j - v_i)``.  It is the reference for the one-difference-per-pair fold
    in ``kleene.dominator``, and so reads p's lattice as that does."""
    sign = p.flavor.sign
    rows = tuple(zip(*p.generators.lattice.cols_times(sign)))
    return tuple(tuple(sign * min(map(sub, vj, vi)) for vj in rows) for vi in rows)


def failing_columns_of_star(p: Polytope, star) -> list[int]:
    """The indices of the columns of the built dominator ``star`` that are not
    shifted generators of p, each by one set lookup of its shift to first
    coordinate 0 on the lattice ints.  This is the scan as it ran once the
    whole star was built, the reference for ``kleene._failing_columns``,
    which builds no star."""
    sign = p.flavor.sign
    shifted = {tuple(x - g[0] for x in g) for g in p.generators.lattice.cols_times(sign)}
    cols = star.matrix.lattice.cols_times(sign)
    return [i for i, c in enumerate(cols) if tuple(x - c[0] for x in c) not in shifted]


def dominator_columns(p: Polytope) -> list[tuple[Fraction, ...]]:
    """The columns of p's dominator in p's flavor: min-folds for max-plus,
    max-folds for min-plus."""
    fold = glb_column_fold if p.flavor is Flavor.MAX_PLUS else lub_column_fold
    return [fold(p.generators, i) for i in range(p.ambient_dim)]


def is_shifted_generator(p: Polytope, i: int, column) -> bool:
    """True iff ``column`` equals some generator v shifted by ``-v_i``."""
    return any(all(c == g[j] - g[i] for j, c in enumerate(column)) for g in p)


def reduce_by_rescanning(p: Polytope) -> list[int]:
    """Indices kept by dropping, from the highest index down, every generator
    that is a member of the span of the others still kept."""
    gens = list(p)
    keep = list(range(len(gens)))
    for j in reversed(range(len(gens))):
        others = [gens[k] for k in keep if k != j]
        if others and direct_member(Polytope(p.flavor, _columns(others)), gens[j]):
            keep.remove(j)
    return keep


def reduce_by_brackets(p: Polytope) -> list[int]:
    """Indices kept by the bracket test on p's lattice ints: the earliest member
    g of each scaling class is kept iff at some coordinate i every earliest
    member h of another class has ``h_i + <h|g> < g_i``, where ``<h|g> =
    min(g - h)`` is h's bracket.  It computes every bracket of every class, and
    is the reference for ``reduce_generators``, which computes a class's
    brackets only when its best-first coordinate is covered."""
    cols = p.generators.lattice.cols_times(p.flavor.sign)
    first: dict = {}
    for k, col in enumerate(cols):
        first.setdefault(tuple(x - col[0] for x in col), k)
    reps = list(first.values())
    gens = [cols[k] for k in reps]
    rows = list(zip(*gens))
    keep = []
    for j, (k, g) in enumerate(zip(reps, gens)):
        lams = [min(map(sub, g, h)) for h in gens]
        lams[j] = -1  # g's own term is g_i - 1: only the other classes cover
        if any(max(map(add, r, lams)) < x for r, x in zip(rows, g)):
            keep.append(k)
    return keep


def _columns(gens: list[TropVector]) -> TropMatrix:
    return TropMatrix(tuple(tuple(g[i] for g in gens) for i in range(len(gens[0]))))


def affine_point(u, v, t: Fraction) -> TropVector:
    """The ordinary affine combination ``t*u + (1-t)*v``, coordinate by coordinate."""
    return TropVector(tuple(t * a + (1 - t) * b for a, b in zip(u, v)))


# The midpoint sampler as it ran on Fractions, kept as the reference for the
# integer sampler: that must make the same rng calls, in the same order, and
# return an equal report.  Like the oracles above, it uses none of the
# library's operations: membership is ``direct_member``, the guided pairs come
# from ``dominator_columns``, and scaling, folding and the affine point are
# Fraction loops.


def _reference_rational(rng: random.Random, num_bound: int = 8, den_bound: int = 6) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def reference_random_member(rng: random.Random, p: Polytope, num_bound: int = 8, den_bound: int = 6) -> TropVector:
    pick = max if p.flavor is Flavor.MAX_PLUS else min
    size = rng.randint(1, p.n_generators)
    picks = rng.sample(range(p.n_generators), size)
    gens = list(p)
    lifted = [shifted(gens[k], _reference_rational(rng, num_bound, den_bound)) for k in picks]
    return TropVector(tuple(pick(v[i] for v in lifted) for i in range(p.ambient_dim)))


def _reference_unit_interval(rng: random.Random) -> Fraction:
    den = rng.randint(2, 16)
    return Fraction(rng.randint(1, den - 1), den)


def _reference_guided_pairs(p: Polytope) -> Iterator[tuple[TropVector, TropVector]]:
    """For each dominator column outside p, in order, every pair of distinct
    generators scaled to have that coordinate 0, in generator order."""
    for i, column in enumerate(dominator_columns(p)):
        if direct_member(p, TropVector(column)):
            continue
        ws: list[TropVector] = []
        for g in p:
            w = shifted(g, -g[i])
            if w not in ws:
                ws.append(w)
        yield from itertools.combinations(ws, 2)


def reference_sample_midpoints(
    p: Polytope,
    trials: int,
    seed: int,
    max_violations: Optional[int] = None,
) -> MidpointReport:
    """``sample_euclidean_midpoints`` computed on Fraction vectors throughout."""
    rng = random.Random(seed)
    guided = list(itertools.islice(_reference_guided_pairs(p), trials))
    violations: list[TropVector] = []
    certificates: list[tuple[TropVector, TropVector, Fraction]] = []
    performed = 0
    for trial in range(trials):
        if guided and trial < len(guided):
            u, v = guided[trial]
            t = Fraction(1, 2)
        elif guided and trial % 2 == 0:
            u, v = guided[rng.randrange(len(guided))]
            t = _reference_unit_interval(rng)
            if rng.random() < 0.5:
                u = shifted(u, _reference_rational(rng))
        else:
            u = reference_random_member(rng, p)
            v = reference_random_member(rng, p)
            t = _reference_unit_interval(rng)
        performed += 1
        z = affine_point(u, v, t)
        if not direct_member(p, z):
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


def parse_rational_by_fraction(text, where: str = "value") -> Fraction:
    """``parse_rational`` as it was: the pattern checks the string, then
    ``Fraction(text)`` parses it again."""
    if isinstance(text, bool):
        raise DocumentError(f"{where}: not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not re.match(r"[+-]?[0-9]+(/[0-9]+)?\Z", text.strip()):
        raise DocumentError(f"{where}: not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise DocumentError(f"{where}: zero denominator: {text!r}") from None
    except ValueError as e:
        raise DocumentError(f"{where}: {e}") from None


def lattice_by_fraction(raw: list, where: str, max_bits: int) -> tuple[int, list[int]]:
    """L and the numerators over L of the entries ``raw``, read as documents and
    vector flags were while every entry became a ``Fraction`` first: each by
    ``parse_rational_by_fraction``, labelled ``where[k]``, then L as the lcm
    of all their denominators, refused if it has more than ``max_bits`` bits."""
    entries = [parse_rational_by_fraction(e, f"{where}[{k}]") for k, e in enumerate(raw)]
    scale = math.lcm(*(e.denominator for e in entries))
    if scale.bit_length() > max_bits:
        raise DocumentError(f"{where}: common denominator has more than {max_bits} bits")
    return scale, [e.numerator * (scale // e.denominator) for e in entries]


def document_text_by_fraction(obj: dict) -> str:
    """The serialized form of the valid document ``obj``: each entry written
    as ``str`` of its ``Fraction``, the fields in the document format's order."""
    entries = [str(parse_rational_by_fraction(e)) for e in obj["entries"]]
    fields = {"flavor": obj["flavor"], "rows": obj["rows"], "cols": obj["cols"], "entries": entries}
    return json.dumps({**fields, "role": obj["role"]}, indent=2) + "\n"


@contextmanager
def fractions_built() -> Iterator[list[int]]:
    """Count the ``Fraction``s built in a block: ``with fractions_built() as built:``,
    then ``built[0]``.

    It counts calls of ``Fraction.__new__``.  From Python 3.12, arithmetic on
    Fractions builds its result without that call, so a count of 0 means
    the block built no Fraction from anything but the Fractions it was given.
    """
    new = Fraction.__dict__["__new__"]
    built = [0]

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield built
    finally:
        Fraction.__new__ = new


def fractions_held(obj) -> int:
    """The ``Fraction``s that ``obj`` holds, found through tuples and the slots of the value classes."""
    found, seen, todo = 0, set(), [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Fraction):
            found += 1
        elif isinstance(x, (tuple, Frozen)):
            todo += [y for y in gc.get_referents(x) if not isinstance(y, type)]
    return found
