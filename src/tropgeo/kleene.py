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

from collections.abc import Iterator
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
    matrix_from_lattice,
    negate_transpose,
    trop_mat_mul,
)
from .residuation import Polytope


class KleeneStar(Frozen):
    """A validated Kleene star: zero diagonal, idempotent under ``flavor``.

    Construction re-checks both properties exactly, as the triangle
    inequalities of the module docstring, and raises ``ValueError`` if either
    fails.
    """

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
    """Outcome of deciding whether a polytope is a polytrope.

    A polytope is Euclidean convex iff it is convex in the other semiring too,
    and both hold iff it is the column space of its dominator.  When the
    answer is negative, ``witness`` is the lowest-indexed dominator column
    that fails membership in the input.
    """

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


def dominator(p: Polytope) -> KleeneStar:
    """The dominator of p: a Kleene star in p's flavor, on p's lattice scale.

    For a max-plus p with generator matrix V, entry (j, i) is
    ``min_k (V[j,k] - V[i,k])``, i.e. the whole matrix is ``V (min*) (-V^T)``.
    Column i is the greatest lower bound of ``{u in P : u_i >= 0}``: for a
    finite generator list that infimum is attained by scaling each generator
    to have i-th coordinate 0 and taking the componentwise min.  A min-plus p
    swaps min for max and lower for upper bounds (``u_i <= 0``), so its
    dominator is the negated max-plus dominator of -p.

    On the signed rows v, ``D_ji = sign * min(v_j - v_i)``, and since
    ``min(v_i - v_j) = -max(v_j - v_i)`` one difference per unordered pair
    i < j gives both ``D_ji`` (its min) and ``D_ij`` (its negated max): the
    n(n-1)/2 differences of length m are the fold's int subtractions, and
    the diagonal is 0.  The result is column-major, as ``Lattice`` stores it,
    and validated as a star on construction.
    """
    lat = p.generators.lattice
    sign = p.flavor.sign
    rows = tuple(zip(*lat.cols_times(sign)))
    n = len(rows)
    d = [[0] * n for _ in rows]  # d[i][j] is D_ji: column i of D
    for i, vi in enumerate(rows):
        di = d[i]
        for j in range(i + 1, n):
            diff = [*map(sub, rows[j], vi)]
            di[j] = sign * min(diff)
            d[j][i] = -sign * max(diff)
    return KleeneStar(p.flavor, matrix_from_lattice(Lattice(lat.scale, tuple(map(tuple, d)))))


def _normalised(col: tuple[int, ...]) -> tuple[int, ...]:
    """``col`` shifted to first coordinate 0: two columns are tropical scalings
    of each other iff their normalised forms are equal."""
    c0 = col[0]
    return tuple([x - c0 for x in col])


def _failing_columns(p: Polytope, star: KleeneStar) -> Iterator[int]:
    """Lazily and in order, the indices of the columns of p's dominator that are not in p.

    Each column is one set lookup of its normalised form (see ``classify``).
    The ints compare as they stand: ``dominator`` builds the star on p's
    lattice scale.
    """
    sign = p.flavor.sign
    shifted_generators = {_normalised(g) for g in p.generators.lattice.cols_times(sign)}
    for i, col in enumerate(star.matrix.lattice.cols_times(sign)):
        if _normalised(col) not in shifted_generators:
            yield i


def min_plus_hull(p: Polytope) -> Polytope:
    """The hull of p in the other semiring, as a polytope of p's flavor.

    For a max-plus p this is its min-plus convex hull, and for a min-plus p its
    max-plus hull: the column space of the dominator, which is convex in both
    senses, so this operation is idempotent.
    """
    return Polytope(p.flavor, dominator(p).matrix)


def classify(p: Polytope) -> Classification:
    """Decide whether p, of either flavor, is a polytrope (Euclidean convex).

    Computes the dominator and tests each of its columns for membership in p,
    in column order.  All columns members: p is convex in the other semiring
    too, hence Euclidean convex, and p equals the column space of its
    dominator (the unique Kleene star with that column space).  Otherwise the
    first failing column certifies non-convexity.

    Column ``D_i`` is in p iff it is a shifted generator ``v_k - v_ik * 1``
    (max-plus; min-plus by negation): every u in p with ``u_i >= 0`` satisfies
    ``u >= D_i``.  If ``D_i`` is in p, the term ``lambda_k + v_k`` that attains
    ``D_ii = 0`` has ``lambda_k = -v_ik``, so ``D_i <= v_k - v_ik <= D_i``.
    Conversely a shifted generator is in p.  So each column costs one set
    lookup, and deciding p costs the dominator plus O(nm + n^2).
    """
    star = dominator(p)
    i = next(_failing_columns(p, star), None)
    return Classification(
        dominator=star,
        is_polytrope=i is None,
        witness=None if i is None else star.matrix.col(i),
    )


def is_min_plus_convex(p: Polytope) -> bool:
    """True iff every dominator column is already a member of p: p is convex
    in the other semiring too (min-plus, for a max-plus p)."""
    return classify(p).is_polytrope


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

    Requires p to be convex in the other semiring (so that it is a set with
    dominators on both sides).  The polytope is re-presented in that other
    flavor as the span of the rows of the negated dominator, the dominator of
    that presentation is computed, and the two matrices are compared exactly.
    """
    other = Flavor.MIN_PLUS if p.flavor is Flavor.MAX_PLUS else Flavor.MAX_PLUS
    result = classify(p)
    if not result.is_polytrope:
        raise PreconditionError(f"polytope is not {other.value} convex; it has no dual dominator")
    negt = negate_transpose(result.dominator.matrix)
    return dominator(Polytope(other, negt)).matrix == negt
