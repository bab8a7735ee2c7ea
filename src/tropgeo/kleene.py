"""Kleene stars, dominator matrices, hulls, and polytrope decisions.

A Kleene star is a square matrix with zero diagonal that is idempotent under
its semiring's product.  The dominator of a max-plus polytope P is the matrix
whose i-th column is the greatest lower bound of the slice
``{u in P : u_i >= 0}``; it is always a max-plus Kleene star, its column space
is the min-plus convex hull of P, and P is Euclidean convex (a polytrope)
exactly when that hull adds nothing, i.e. when every dominator column already
belongs to P.  This turns Euclidean convexity of a tropical polytope into an
exact rational decision with no geometry involved.  Every function here on
a polytope takes either flavor: the dominator of a min-plus polytope is the
negated max-plus one, a min-plus star whose column space is the max-plus
hull, so the int kernels run max-plus on ``lattice.cols_times(flavor.sign)``.
One kernel, the min-plus product ``_lanewise_min``, reads each line of one
factor as one int, a lane of whole bytes per entry (``_packed``), so a
handful of big-int operations per line take every lane at once.  It
computes both products of the generators V with ``-V^T``: the dominator fold
``V (min*) (-V^T)``, column i the lanewise min of the shifted generators
``v_k - v_ik * 1``, and the brackets ``min(g - h)`` of
``polytope.reduce_generators``, a column of ``(-V^T) (min*) V``; the sampler
tests a chunk Z of midpoints by ``(-V^T) (min*) Z``, a lane per midpoint,
which ``_nonzero_lanes`` reads.  A column is
in P iff its shift to first coordinate 0, one int on the fold's lanes, is a
generator's (``_inside``); column 0 alone is tested on tuples, with no fold.

A zero-diagonal A is a max-plus Kleene star iff ``A_ij >= A_ik + A_kj`` for
all i, j, k (Butkovič, *Max-linear Systems*): entry (i, j) of ``A (x) A`` is
``max_k (A_ik + A_kj)``, and the terms k = i and k = j are ``A_ij`` itself,
so the product is at least A and equals it iff no term exceeds ``A_ij``.
``is_kleene_star`` and a caller's ``KleeneStar`` test these n^3 inequalities on
packed columns, four big-int operations for the n of one pair (j, k).  A
dominator is a star by the theorem above, so the fold builds it unchecked.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import chain, repeat
from operator import sub
from sys import byteorder

from .core import (
    DimensionError,
    Flavor,
    Frozen,
    Lattice,
    PreconditionError,
    TropMatrix,
    TropVector,
    _bound,
    _normalised,
    _rational_texts,
    matrix_from_lattice,
    negate_transpose,
    trop_mat_mul,
)
from .residuation import Polytope


class KleeneStar(Frozen):
    """A Kleene star under ``flavor``; construction checks the zero diagonal and
    the triangle inequalities of the module docstring, or raises ``ValueError``."""

    __slots__ = ("flavor", "matrix")
    flavor: Flavor
    matrix: TropMatrix

    def __init__(self, flavor: Flavor, matrix: TropMatrix) -> None:
        super().__init__(flavor, matrix)
        problem = _star_defect(flavor, matrix)
        if problem is not None:
            raise ValueError(f"not a {flavor.value} Kleene star: {problem}")

    @property
    def size(self) -> int:
        return self.matrix.n_rows


class Classification(Frozen):
    """Outcome of ``classify``: ``witness`` is the lowest-indexed dominator
    column outside the input, or None for a polytrope."""

    __slots__ = ("dominator", "is_polytrope", "witness")
    dominator: KleeneStar
    is_polytrope: bool
    witness: TropVector | None


def _star_defect(f: Flavor, a: TropMatrix) -> str | None:
    """Why ``a`` is not a Kleene star under f, or None.  ``cols`` are a's signed
    lattice ints, column-major (min-plus negated); lane i of ``lanes[j]`` holds
    ``a_ij`` plus one offset, ``ones`` has a 1 in each lane, a lane holds
    ``2**(guard + 1)``, and ``2**guard > |a_ij - a_ik - a_kj|``."""
    if not a.is_square:
        return f"matrix is {a.n_rows}x{a.n_cols}, not square"
    cols = a.lattice.cols_times(f.sign)
    for i, col in enumerate(cols):
        if col[i]:
            (text,) = _rational_texts(a.lattice.scale, [a.lattice.cols[i][i]])
            return f"diagonal entry ({i},{i}) is {text}, not 0"
    lanes, ones, guard = _lanes(cols)[:3]  # a zero diagonal: a triangle sum is within 2 span of 0
    guards = ones << guard
    # lane i of top - p - a_kj * ones, with p holding column k, is
    # 2**guard + a_ij - a_ik - a_kj, which keeps its guard bit iff it is >= 0
    for col, top in zip(cols, lanes):
        top += guards
        acc = guards
        for p, a_kj in zip(lanes, col):
            acc &= top - p - a_kj * ones
        if acc != guards:
            return "matrix is not idempotent"
    return None


def is_kleene_star(f: Flavor, a: TropMatrix) -> bool:
    """True iff ``a`` has an all-zero diagonal and ``a (*) a == a`` under f,
    tested as the triangle inequalities of the module docstring."""
    if not a.is_square:
        raise DimensionError(f"expected a square matrix, got {a.n_rows}x{a.n_cols}")
    return _star_defect(f, a) is None


_CODES = {array(c).itemsize: c for c in "QLIHB"}  # an array type code for each item size


def _lanes(cols: tuple[tuple[int, ...], ...]) -> tuple[list[int], int, int, list[int], int]:
    """``(lanes, ones, guard, ints, span)``: ``ints`` are the entries of ``cols``,
    column-major, each less their least, ``lanes, ones`` are ``_packed(ints, n, guard)``
    for columns of n entries, ``span`` is the greatest of ``ints``, and
    ``2**guard > 2 * span``."""
    flat = [*chain.from_iterable(cols)]
    lo = min(flat)
    span = max(flat) - lo
    guard = (2 * span).bit_length()
    ints = [*map(sub, flat, repeat(lo))]
    return *_packed(ints, len(cols[0]), guard), guard, ints, span


def _packed(ints: list[int], n: int, guard: int) -> tuple[list[int], int]:
    """``(lanes, ones)``: ``lanes[k]`` is ``ints[k*n : k*n + n]``, non-negative, as one int
    with a lane of ``_lane_bytes(guard)`` bytes per entry, which holds ``2**(guard + 1)``;
    ``ones`` has a 1 in each lane."""
    size = _lane_bytes(guard)
    packed = _pack(ints, size)
    width = n * size  # bytes of a line
    lanes = [int.from_bytes(packed[s : s + width], byteorder) for s in range(0, len(packed), width)]
    return lanes, int.from_bytes((1).to_bytes(size, byteorder) * n, byteorder)


def _lane_bytes(guard: int) -> int:
    """Bytes of a lane that holds ``2**(guard + 1)``: an array item size, or more."""
    return 1 << (guard >> 3).bit_length() if guard < 64 else -(-(guard + 1) // 8)


# Lanes of an array item's size are moved by the array module, wider ones one at a time.
def _pack(ints: list[int], size: int) -> bytes:
    """Non-negative ``ints`` in lanes of ``size`` bytes, in the machine's byte order."""
    if size in _CODES:
        return array(_CODES[size], ints).tobytes()
    return b"".join(map(int.to_bytes, ints, repeat(size), repeat(byteorder)))


def _unpack(lanes: bytes, size: int) -> list[int]:
    """The ints that ``_pack`` packed."""
    if size in _CODES:
        return array(_CODES[size], lanes).tolist()
    return [int.from_bytes(lanes[s : s + size], byteorder) for s in range(0, len(lanes), size)]


def _lanewise_min(lines: list[int], shifts: list[list[int]], ones: int, guard: int, top: int) -> list[int]:
    """The packed min-plus product: one int per row s of ``shifts``, whose lane a holds
    ``2**guard + min(top, min_k (line_ka - s_k))``, where ``line_ka`` is lane a of
    ``lines[k]`` (``_packed``) and ``ones`` has a 1 in each lane.  ``2**guard`` must
    exceed ``top`` and the distance between any two of ``top`` and the ``line_ka - s_k``."""
    guards = ones << guard
    start = guards + top * ones
    out = []
    for s in shifts:
        acc = start
        for line, s_k in zip(lines, s):
            y = acc - line + s_k * ones  # lane a: 2**guard + the running min - (line_ka - s_k)
            t = y & guards  # guard bits where the running min is the larger
            acc -= y & (t - (t >> guard))
        out.append(acc)
    return out


def _nonzero_lanes(x: int, n: int, guard: int) -> list[int]:
    """The indices, in order, of the lanes of x that are not 0: x has n lanes as
    ``_packed(ints, n, guard)`` packs them, each holding less than ``2**(guard + 1)``."""
    size = _lane_bytes(guard)
    return [a for a, lane in enumerate(_unpack(x.to_bytes(n * size, byteorder), size)) if lane]


def _fold(p: Polytope) -> tuple:
    """p's dominator, folded: ``(cols, lanes, ones, shifted)``: its signed (max-plus) columns
    on p's lattice scale, column i as ``2**guard + D_ji`` in lane j, an int with a 1 in each
    lane, and each generator k as ``2**guard + w_jk - w_0k`` in lane j."""
    # D lies in [-span, span], and no lane compares two values more than 2 span apart
    gens, ones, guard, ints, span = _lanes(p.generators.lattice.cols_times(p.flavor.sign))
    n, size, one = p.ambient_dim, _lane_bytes(guard), 1 << guard
    # column i, lane j: 2**guard + min_k (w_jk - w_ik), with w_ik = ints[k*n + i]
    lanes = _lanewise_min(gens, [ints[i::n] for i in range(n)], ones, guard, span)
    packed = b"".join([c.to_bytes(n * size, byteorder) for c in lanes])
    cols = [*zip(*[map(sub, _unpack(packed, size), repeat(one))] * n)]  # n values a column
    return cols, lanes, ones, {g - (w - one) * ones for g, w in zip(gens, ints[::n])}


def _inside(packed: tuple, start: int) -> Iterator[bool]:
    """Whether each column i >= ``start`` of ``_fold(p)`` is in p, lazily: iff ``lanes[i] -
    D_0i * ones``, lane j ``2**guard + D_ji - D_0i``, is in ``shifted`` (see ``classify``).
    No lane leaves ``2**guard +- 2 span``, inside a lane as ``2**guard > 2 span``, so equal
    ints are equal shifted columns, and no lane is read by position, so byte order is moot."""
    cols, lanes, ones, shifted = packed
    return (lanes[i] - cols[i][0] * ones in shifted for i in range(start, len(cols)))


def _star(p: Polytope, packed: tuple) -> KleeneStar:
    """The dominator of p from ``_fold(p)``, un-signed; unchecked, as it is a star."""
    cols = packed[0] if p.flavor.sign == 1 else [tuple([-x for x in c]) for c in packed[0]]
    return _bound(KleeneStar, p.flavor, matrix_from_lattice(Lattice(p.generators.lattice.scale, tuple(cols))))


def dominator(p: Polytope) -> KleeneStar:
    """The dominator of p: a Kleene star in p's flavor, on p's lattice scale.

    For a max-plus p with generator matrix V, entry (j, i) is
    ``min_k (V[j,k] - V[i,k])``, i.e. the whole matrix is ``V (min*) (-V^T)``:
    the infimum of the slice ``u_i >= 0`` is attained by scaling each
    generator to have i-th coordinate 0 and taking the componentwise min.  A
    min-plus p swaps min for max and lower for upper bounds (``u_i <= 0``).
    """
    return _star(p, _fold(p))


def _column_0_outside(p: Polytope) -> bool:
    """True iff p's dominator column 0 is outside p, with no fold: it is the min of p's
    signed generators shifted to first coordinate 0, and in p iff it is one of them.  This tuple
    test beats packed lanes (1.6-2x faster from 4x5 to 96x120 on 2-core x86-64, Python 3.11):
    a "no" packs nothing, and a "yes" pays for both."""
    shifted = set(map(_normalised, p.generators.lattice.cols_times(p.flavor.sign)))
    return tuple(map(min, zip(*shifted))) not in shifted


def _failing_columns(p: Polytope) -> Iterator[int]:
    """The indices of p's dominator columns outside p, in order.  Column 0 is tested
    with no fold, so a caller that stops there folds nothing."""
    if _column_0_outside(p):
        yield 0
    yield from (i for i, inside in enumerate(_inside(_fold(p), 1), 1) if not inside)


def _convex_star(p: Polytope) -> KleeneStar | None:
    """p's dominator if every column of it lies in p, else None.  Column 0 is tested
    first, with no fold, so most "no"s fold nothing; a "yes" builds the star."""
    if _column_0_outside(p):
        return None
    packed = _fold(p)
    return _star(p, packed) if all(_inside(packed, 1)) else None


def min_plus_hull(p: Polytope) -> Polytope:
    """The hull of p in the other semiring (min-plus, for a max-plus p), as a
    polytope of p's flavor: the dominator's column space, so this is idempotent."""
    return Polytope(p.flavor, dominator(p).matrix)


def classify(p: Polytope) -> Classification:
    """Decide whether p, of either flavor, is a polytrope (Euclidean convex).

    Tests each dominator column for membership in p, in order; the first
    failing one certifies non-convexity.  Column ``D_i`` is in p iff it is a
    shifted generator ``v_k - v_ik * 1`` (max-plus; min-plus by negation):
    every u in p with ``u_i >= 0`` satisfies ``u >= D_i``.  If ``D_i`` is in p,
    the term ``lambda_k + v_k`` that attains ``D_ii = 0`` has
    ``lambda_k = -v_ik``, so ``D_i <= v_k - v_ik <= D_i``.  Conversely a
    shifted generator is in p.  ``_inside`` tests each column as one int on the
    fold's lanes; no column after the first failing one is tested.
    """
    packed = _fold(p)
    star = _star(p, packed)
    i = next((i for i, inside in enumerate(_inside(packed, 0)) if not inside), None)
    witness = None if i is None else star.matrix.col(i)
    return Classification(dominator=star, is_polytrope=i is None, witness=witness)


def is_min_plus_convex(p: Polytope) -> bool:
    """True iff p is convex in the other semiring too (min-plus, for a max-plus
    p).  A "yes" builds the whole dominator, as ``classify`` does."""
    return _convex_star(p) is not None


def duality_rho(a: TropMatrix, r: TropVector) -> TropVector:
    """The row-space-to-column-space duality map ``r -> A (x) (-r)^T``.

    Defined for ``r`` in the max-plus row space of A; membership is the
    caller's contract and is not checked here.  Mutually inverse with
    ``duality_chi``.  On a Kleene star the map is plain negation.
    """
    if len(r) != a.n_cols:
        raise DimensionError(f"row vector length {len(r)} != matrix width {a.n_cols}")
    scale, ints = (-r).lattice  # -r as one column
    return trop_mat_mul(Flavor.MAX_PLUS, a, matrix_from_lattice(Lattice(scale, (ints,)))).col(0)


def duality_chi(a: TropMatrix, c: TropVector) -> TropVector:
    """The column-space-to-row-space duality map ``c -> (-c)^T (x) A``."""
    if len(c) != a.n_rows:
        raise DimensionError(f"column vector length {len(c)} != matrix height {a.n_rows}")
    scale, ints = (-c).lattice  # -c as one row
    return trop_mat_mul(Flavor.MAX_PLUS, matrix_from_lattice(Lattice(scale, tuple([(x,) for x in ints]))), a).row(0)


def verify_dominator_relation(p: Polytope) -> bool:
    """Check that the dual dominator is the negated transpose of the dominator.

    p is re-presented in the other flavor as the span of the rows of the negated
    dominator, and the dominator of that presentation is compared exactly.  A p not
    convex in the other flavor has no dual dominator: ``PreconditionError`` at its
    first failing dominator column.
    """
    other = Flavor.MIN_PLUS if p.flavor is Flavor.MAX_PLUS else Flavor.MAX_PLUS
    star = _convex_star(p)
    if star is None:
        raise PreconditionError(f"polytope is not {other.value} convex; it has no dual dominator")
    negt = negate_transpose(star.matrix)
    return dominator(Polytope(other, negt)).matrix == negt
