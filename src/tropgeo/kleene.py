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
The dominator fold packs the signed lattice ints into lanes of whole bytes, so
that a handful of big-int operations per generator take the lanewise min of
all n^2 entries at once (``_lanewise_min``).  Column 0 alone is the min of the
generators shifted to first coordinate 0 (``_shifted``), with no fold.

A zero-diagonal A is a max-plus Kleene star iff ``A_ij >= A_ik + A_kj`` for
all i, j, k (Butkovič, *Max-linear Systems*): entry (i, j) of ``A (x) A`` is
``max_k (A_ik + A_kj)``, and the terms k = i and k = j are ``A_ij`` itself,
so the product is at least A and equals it iff no term exceeds ``A_ij``.
The check tests these n^3 inequalities on packed columns, four big-int
operations for the n inequalities of one pair (j, k).
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
    _normalised,
    matrix_from_lattice,
    negate_transpose,
    trop_mat_mul,
)
from .residuation import Polytope


class KleeneStar(Frozen):
    """A Kleene star under ``flavor``; construction re-checks the zero diagonal
    and the triangle inequalities of the module docstring, or raises ``ValueError``.
    The dominator fold passes its own lanes as ``_packed``, so they are checked as they are."""

    __slots__ = ("flavor", "matrix")
    flavor: Flavor
    matrix: TropMatrix

    def __init__(self, flavor: Flavor, matrix: TropMatrix, *, _packed: tuple | None = None) -> None:
        super().__init__(flavor, matrix)
        problem = _star_defect(flavor, matrix, _packed)
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


def _star_defect(f: Flavor, a: TropMatrix, packed: tuple | None = None) -> str | None:
    """Why ``a`` is not a Kleene star under f, or None.  ``packed`` is the fold's
    ``(cols, lanes, guard, size)`` for its zero-diagonal ``a``; without it, ``a`` is
    packed here.  ``cols`` are a's signed lattice ints, column-major (min-plus
    negated); lane ``j*n + i`` of ``lanes`` holds ``a_ij`` plus one offset in ``size``
    bytes, which hold ``2**(guard + 1)``, and ``2**guard > |a_ij - a_ik - a_kj|``."""
    if packed is None:
        if not a.is_square:
            return f"matrix is {a.n_rows}x{a.n_cols}, not square"
        cols = a.lattice.cols_times(f.sign)
        for i, col in enumerate(cols):
            if col[i]:
                return f"diagonal entry ({i},{i}) is {a.entries[i][i]}, not 0"
        packed = cols, *_lanes(cols, 2)[:3]  # a zero diagonal: a triangle sum is within 2 span of 0
    cols, lanes, guard, size = packed
    width = size * len(cols)
    columns = [int.from_bytes(lanes[s : s + width], byteorder) for s in range(0, len(lanes), width)]
    ones = ((1 << width * 8) - 1) // ((1 << size * 8) - 1)
    guards = ones << guard
    # lane i of top - p - a_kj * ones, with p holding column k, is
    # 2**guard + a_ij - a_ik - a_kj, which keeps its guard bit iff it is >= 0
    for col, top in zip(cols, columns):
        top += guards
        acc = guards
        for p, a_kj in zip(columns, col):
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
_PASS_BITS = 1 << 17  # the fold's passes stay within about this many bits


def _lanes(cols: tuple[tuple[int, ...], ...], reach: int) -> tuple[bytes, int, int, int]:
    """``(lanes, guard, size, span)``: ``cols``, column-major, each int less their least
    in a lane of ``size`` bytes, which holds ``2**(guard + 1)``.  ``span`` is their
    greatest less their least, and ``2**guard > reach * span``."""
    flat = [*chain.from_iterable(cols)]
    lo = min(flat)
    span = max(flat) - lo
    guard = (reach * span).bit_length()
    size = _lane_bytes(guard)
    return _pack([*map(sub, flat, repeat(lo))], size), guard, size, span


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


def _spread(lanes: bytes, size: int, n: int) -> bytes:
    """Each lane of ``size`` bytes repeated n times."""
    if size in _CODES:
        items = array(_CODES[size], lanes)
        spread = array(items.typecode, bytes(len(lanes) * n))
        for j in range(n):
            spread[j::n] = items
        return spread.tobytes()
    return b"".join([lanes[s : s + size] * n for s in range(0, len(lanes), size)])


def _lanewise_min(gens: bytes, n: int, size: int, guard: int, span: int) -> bytes:
    """Lanes ``i*n + j`` holding ``2**guard + D_ji``, the min over generators k of
    ``w_jk - w_ik``.  Lane ``k*n + i`` of ``gens`` holds ``w_ik`` plus one offset;
    every ``w_jk - w_ik`` is at most ``span``, and ``2**guard > 2*span``."""
    width = n * size  # bytes of a column
    m = len(gens) // width
    bits = 8 * width * n  # of a block, one generator's lanes
    # a pass takes h generators, a block each: h is a power of two, 4 while four blocks
    # fit in _PASS_BITS, or as many as fit in a 16th of it when blocks are small, but no
    # more than m needs.  At the end the h blocks fold pairwise into one.
    fit = (_PASS_BITS // bits).bit_length() - 1  # log2 of the blocks that fit in _PASS_BITS
    h = 1 << max(0, min((m - 1).bit_length(), max(min(2, fit), fit - 4)))
    padded = gens + span.to_bytes(size, byteorder) * (n * (-m % h))  # rows unpadded: span - 0 lowers no min
    ones = int.from_bytes((1).to_bytes(size, byteorder) * (h * n * n), byteorder)
    guards = ones << guard
    acc = ones * ((1 << guard) + span)
    for k in range(0, len(padded), h * width):
        # lane (k, i, j) of col holds w_jk, of row w_ik, each plus the offset
        col = int.from_bytes(_spread(padded[k : k + h * width], width, n), byteorder)
        row = int.from_bytes(_spread(gens[k : k + h * width], size, n), byteorder)
        y = acc - col + row  # lane: 2**guard + the running min - (w_jk - w_ik)
        t = y & guards  # guard bits where the running min is the larger
        acc -= y & (t - (t >> guard))
    while h > 1:  # the upper half of the blocks folds onto the lower half
        h //= 2
        low = (1 << h * bits) - 1
        y = (acc & low) - (acc >> h * bits) + guards  # above the lower half, lanes of 2**guard
        t = y & guards
        acc = (acc & low) - (y & (t - (t >> guard)))
    return acc.to_bytes(bits // 8, byteorder)


def _fold(p: Polytope) -> tuple:
    """p's dominator, folded: ``(cols, lanes, guard, size)`` as ``_star_defect`` reads
    them, where ``cols`` are its signed (max-plus) columns on p's lattice scale."""
    n = p.ambient_dim
    # D lies in [-span, span], and the star check sums three of its entries
    gens, guard, size, span = _lanes(p.generators.lattice.cols_times(p.flavor.sign), 3)
    lanes = _lanewise_min(gens, n, size, guard, span)
    values = [*map(sub, _unpack(lanes, size), repeat(1 << guard))]
    return [tuple(values[s : s + n]) for s in range(0, len(values), n)], lanes, guard, size


def _star(p: Polytope, packed: tuple) -> KleeneStar:
    """The checked dominator of p from ``_fold(p)``, un-signed."""
    cols = packed[0] if p.flavor.sign == 1 else [tuple([-x for x in c]) for c in packed[0]]
    return KleeneStar(p.flavor, matrix_from_lattice(Lattice(p.generators.lattice.scale, tuple(cols))), _packed=packed)


def dominator(p: Polytope) -> KleeneStar:
    """The dominator of p: a Kleene star in p's flavor, on p's lattice scale.

    For a max-plus p with generator matrix V, entry (j, i) is
    ``min_k (V[j,k] - V[i,k])``, i.e. the whole matrix is ``V (min*) (-V^T)``:
    the infimum of the slice ``u_i >= 0`` is attained by scaling each
    generator to have i-th coordinate 0 and taking the componentwise min.  A
    min-plus p swaps min for max and lower for upper bounds (``u_i <= 0``).
    """
    return _star(p, _fold(p))


def _shifted(p: Polytope) -> set[tuple[int, ...]]:
    """p's signed generators shifted to first coordinate 0: a signed dominator column is
    in p iff its shift is in here (see ``classify``), and their min is column 0."""
    return set(map(_normalised, p.generators.lattice.cols_times(p.flavor.sign)))


def _failing_columns(p: Polytope) -> Iterator[int]:
    """The indices of p's dominator columns outside p, in order.  Column 0 is read
    off the shifted generators, so a caller that stops there folds nothing."""
    shifted = _shifted(p)
    if tuple(map(min, zip(*shifted))) not in shifted:
        yield 0
    cols = _fold(p)[0]
    yield from (i for i in range(1, len(cols)) if _normalised(cols[i]) not in shifted)


def _convex_star(p: Polytope) -> KleeneStar | None:
    """p's dominator if every column of it lies in p, else None.  Column 0 is read off
    the shifted generators first, so most "no"s fold nothing; a "yes" builds the star."""
    shifted = _shifted(p)
    if tuple(map(min, zip(*shifted))) not in shifted:
        return None
    packed = _fold(p)
    return None if any(_normalised(c) not in shifted for c in packed[0][1:]) else _star(p, packed)


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
    shifted generator is in p.  No column after the first failing one is tested.
    """
    packed = _fold(p)
    star = _star(p, packed)
    shifted = _shifted(p)
    i = next((i for i, col in enumerate(packed[0]) if _normalised(col) not in shifted), None)
    witness = None if i is None else star.matrix.col(i)
    return Classification(dominator=star, is_polytrope=i is None, witness=witness)


def is_min_plus_convex(p: Polytope) -> bool:
    """True iff p is convex in the other semiring too (min-plus, for a max-plus
    p).  A "yes" builds and checks the whole dominator, as ``classify`` does."""
    return _convex_star(p) is not None


def duality_rho(a: TropMatrix, r: TropVector) -> TropVector:
    """The row-space-to-column-space duality map ``r -> A (x) (-r)^T``.

    Defined for ``r`` in the max-plus row space of A; membership is the
    caller's contract and is not checked here.  Mutually inverse with
    ``duality_chi``.  On a Kleene star the map is plain negation.
    """
    if len(r) != a.n_cols:
        raise DimensionError(f"row vector length {len(r)} != matrix width {a.n_cols}")
    return trop_mat_mul(Flavor.MAX_PLUS, a, negate_transpose(TropMatrix((r.entries,)))).col(0)


def duality_chi(a: TropMatrix, c: TropVector) -> TropVector:
    """The column-space-to-row-space duality map ``c -> (-c)^T (x) A``."""
    if len(c) != a.n_rows:
        raise DimensionError(f"column vector length {len(c)} != matrix height {a.n_rows}")
    return trop_mat_mul(Flavor.MAX_PLUS, TropMatrix(((-c).entries,)), a).row(0)


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
