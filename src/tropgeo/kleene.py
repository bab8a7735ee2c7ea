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
One fold yields the dominator column by column: ``is_min_plus_convex``,
``verify_dominator_relation`` and the sampler's guided pairs stop it at the
first column outside P, which settles "no"; ``dominator`` and ``classify``
run it to the end, which builds and checks the star.

A zero-diagonal A is a max-plus Kleene star iff ``A_ij >= A_ik + A_kj`` for
all i, j, k (Butkovič, *Max-linear Systems*): entry (i, j) of ``A (x) A`` is
``max_k (A_ik + A_kj)``, and the terms k = i and k = j are ``A_ij`` itself,
so the product is at least A and equals it iff no term exceeds ``A_ij``.
The check tests these n^3 inequalities on packed ints: each column becomes
one int with a lane of whole bytes per entry, offset by the least entry and
wide enough for twice the span plus a guard bit, so that four big-int
operations test the n inequalities of one pair (j, k) at once.
"""

from __future__ import annotations

from collections.abc import Generator
from itertools import chain
from operator import sub

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
    and the triangle inequalities of the module docstring, or raises ``ValueError``."""

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
    if not a.is_square:
        return f"matrix is {a.n_rows}x{a.n_cols}, not square"
    cols = a.lattice.cols_times(f.sign)
    for i, col in enumerate(cols):
        if col[i]:
            return f"diagonal entry ({i},{i}) is {a.entries[i][i]}, not 0"
    # the triangle inequalities of the module docstring, a column j at a time
    # on packed lanes; a min-plus star is a negated max-plus one
    flat = [*chain.from_iterable(cols)]
    lo = min(flat)  # <= 0: the diagonal is 0
    guard = (2 * (max(flat) - lo)).bit_length()  # 2**guard > |a_ij - a_ik - a_kj|
    size = guard // 8 + 1  # whole bytes a lane, with the guard bit on top
    lane = 8 * size
    n = len(cols)
    width = lane * n
    mask = (1 << width) - 1
    ones = mask // ((1 << lane) - 1)
    guards = ones << guard
    # lane i of packed[k] is a_ik - lo, so lane i of top - packed[k] - a_kj * ones
    # is 2**guard + a_ij - a_ik - a_kj, which keeps its guard bit iff it is >= 0
    whole = int.from_bytes(b"".join([(x - lo).to_bytes(size, "little") for x in flat]), "little")
    packed = [whole >> shift & mask for shift in range(0, n * width, width)]
    for col, top in zip(cols, packed):
        top += guards
        acc = guards
        for p, a_kj in zip(packed, col):
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


def _fold(p: Polytope) -> Generator[list[int], None, KleeneStar]:
    """Column i of p's dominator on p's lattice scale, for i in order; drained, it
    returns the dominator.  On the signed rows v, step i forms ``v_j - v_i`` for each
    j > i: its min is ``sign * D_ji``; its negated max, kept for column j, ``sign * D_ij``."""
    lat = p.generators.lattice
    sign = p.flavor.sign
    rows = tuple(zip(*lat.cols_times(sign)))
    n = len(rows)
    cols = [[0] * n for _ in rows]  # cols[i][j] is D_ji
    for i, vi in enumerate(rows):
        col = cols[i]
        for j in range(i + 1, n):
            diff = [*map(sub, rows[j], vi)]
            col[j] = sign * min(diff)
            cols[j][i] = -sign * max(diff)
        yield col
    return KleeneStar(p.flavor, matrix_from_lattice(Lattice(lat.scale, tuple(map(tuple, cols)))))


def _drained(gen: Generator[object, None, KleeneStar]) -> KleeneStar:
    """Run ``gen`` to its end and return what it returns."""
    try:
        while True:
            next(gen)
    except StopIteration as end:
        return end.value


def dominator(p: Polytope) -> KleeneStar:
    """The dominator of p: a Kleene star in p's flavor, on p's lattice scale.

    For a max-plus p with generator matrix V, entry (j, i) is
    ``min_k (V[j,k] - V[i,k])``, i.e. the whole matrix is ``V (min*) (-V^T)``:
    the infimum of the slice ``u_i >= 0`` is attained by scaling each
    generator to have i-th coordinate 0 and taking the componentwise min.  A
    min-plus p swaps min for max and lower for upper bounds (``u_i <= 0``).
    The fold forms n(n-1)/2 row differences of length m.
    """
    return _drained(_fold(p))


def _failing_columns(p: Polytope) -> Generator[int, bool | None, KleeneStar]:
    """Lazily, the indices of p's dominator columns outside p, each one set lookup as
    the fold yields it (see ``classify``).  Drained, or sent True after an index, it
    runs the rest of the fold untested and returns the dominator."""
    shifted_generators = {_normalised(g) for g in p.generators.lattice.cols}
    fold = _fold(p)
    for i in range(p.ambient_dim):
        if _normalised(next(fold)) not in shifted_generators and (yield i):
            break
    return _drained(fold)


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
    shifted generator is in p.  The whole dominator is returned, so the fold runs to
    its end, but no column after the first failing one is tested.
    """
    scan = _failing_columns(p)
    i = None
    try:
        i = next(scan)
        scan.send(True)  # the first failing column is the witness: test no more
    except StopIteration as drained:
        star = drained.value
    witness = None if i is None else star.matrix.col(i)
    return Classification(dominator=star, is_polytrope=i is None, witness=witness)


def is_min_plus_convex(p: Polytope) -> bool:
    """True iff p is convex in the other semiring too (min-plus, for a max-plus
    p).  The fold stops at the first dominator column outside p and builds no
    star; a "yes" builds and checks the whole dominator, as ``classify`` does."""
    return next(_failing_columns(p), None) is None


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
    try:
        next(_failing_columns(p))
    except StopIteration as drained:  # no failing column: the scan built the whole star
        negt = negate_transpose(drained.value.matrix)
        return dominator(Polytope(other, negt)).matrix == negt
    raise PreconditionError(f"polytope is not {other.value} convex; it has no dual dominator")
