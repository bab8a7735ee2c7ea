"""Kleene stars, dominator matrices, min-plus hulls, and polytrope decisions.

A Kleene star is a square matrix with zero diagonal that is idempotent under
its semiring's product.  The dominator of a max-plus polytope P is the matrix
whose i-th column is the greatest lower bound of the slice
``{u in P : u_i >= 0}``; it is always a max-plus Kleene star, its column space
is the min-plus convex hull of P, and P is Euclidean convex (a polytrope)
exactly when that hull adds nothing, i.e. when every dominator column already
belongs to P.  This turns Euclidean convexity of a tropical polytope into an
exact rational decision with no geometry involved.  Min-plus results are
negated max-plus ones, computed in one place: ``_star`` and ``_failing_columns``.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import add, sub

from .core import (
    DimensionError,
    Flavor,
    FlavorError,
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

    Construction re-checks both properties exactly and raises ``ValueError``
    if either fails.
    """

    _fields = ("flavor", "matrix")
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

    def column_space(self) -> Polytope:
        """The polytope generated by the columns, in this star's flavor."""
        return Polytope(self.flavor, self.matrix)


class Classification(Frozen):
    """Outcome of deciding whether a max-plus polytope is a polytrope.

    ``is_polytrope`` always equals ``is_min_plus_convex``: a max-plus polytope
    is Euclidean convex iff it is min-plus convex, and both hold iff it is the
    column space of its dominator.  When the answer is negative, ``witness``
    is the lowest-indexed dominator column that fails membership in the input.
    """

    _fields = ("dominator", "is_min_plus_convex", "witness")
    dominator: KleeneStar
    is_min_plus_convex: bool
    witness: TropVector | None

    @property
    def is_polytrope(self) -> bool:
        return self.is_min_plus_convex


def _star_defect(f: Flavor, a: TropMatrix) -> str | None:
    if not a.is_square:
        return f"matrix is {a.n_rows}x{a.n_cols}, not square"
    for i in range(a.n_rows):
        if a.entries[i][i] != 0:
            return f"diagonal entry ({i},{i}) is {a.entries[i][i]}, not 0"
    # a (x) a == a, row by row in ints; a min-plus star is a negated max-plus one
    cols = a.lattice.cols_times(f.sign)
    for row in zip(*cols):
        if [max(map(add, row, c)) for c in cols] != list(row):
            return "matrix is not idempotent"
    return None


def is_kleene_star(f: Flavor, a: TropMatrix) -> bool:
    """True iff ``a`` has an all-zero diagonal and ``a (*) a == a`` under f."""
    if not a.is_square:
        raise DimensionError(f"expected a square matrix, got {a.n_rows}x{a.n_cols}")
    return _star_defect(f, a) is None


def _require_flavor(p: Polytope, f: Flavor, what: str) -> None:
    if p.flavor is not f:
        raise FlavorError(f"{what} requires a {f.value} polytope, got {p.flavor.value}")


def _star(p: Polytope) -> KleeneStar:
    """The dominator in p's flavor, on p's lattice scale: ``dominator_dual(P) = -dominator(-P)``."""
    lat = p.generators.lattice
    sign = p.flavor.sign
    rows = tuple(zip(*lat.cols_times(sign)))
    d = tuple(tuple(sign * min(map(sub, vj, vi)) for vi in rows) for vj in rows)
    return KleeneStar(p.flavor, matrix_from_lattice(Lattice(lat.scale, d)))


def _normalised(col: tuple[int, ...]) -> tuple[int, ...]:
    """``col`` shifted to first coordinate 0: two columns are tropical scalings
    of each other iff their normalised forms are equal."""
    c0 = col[0]
    return tuple([x - c0 for x in col])


def _failing_columns(p: Polytope, star: KleeneStar) -> Iterator[int]:
    """Lazily and in order, the indices of the columns of p's dominator that are not in p.

    Column i is in p iff it is a shifted generator ``v_k - v_ik * 1`` (see
    ``classify``), so each column is one set lookup of its normalised form.
    The ints compare as they stand: ``_star`` builds the star on p's lattice scale.
    """
    sign = p.flavor.sign
    shifted_generators = {_normalised(g) for g in p.generators.lattice.cols_times(sign)}
    for i, col in enumerate(star.matrix.lattice.cols_times(sign)):
        if _normalised(col) not in shifted_generators:
            yield i


def dominator(p: Polytope) -> KleeneStar:
    """The dominator matrix of a max-plus polytope.

    Entry (j, i) is ``min_k (V[j,k] - V[i,k])`` over the generator matrix V,
    i.e. the whole matrix is ``V (min*) (-V^T)``.  Column i is the greatest
    lower bound of ``{u in P : u_i >= 0}``: for a finite generator list that
    infimum is attained by scaling each generator to have i-th coordinate 0
    and taking the componentwise min, which is exactly this formula.  The
    result is always a max-plus Kleene star (validated on construction).
    """
    _require_flavor(p, Flavor.MAX_PLUS, "dominator")
    return _star(p)


def dominator_dual(p: Polytope) -> KleeneStar:
    """The dual dominator of a min-plus polytope.

    Entry (j, i) is ``max_k (V[j,k] - V[i,k])``, i.e. ``V (x) (-V^T)``;
    column i is the least upper bound of ``{u in P : u_i <= 0}``.  The result
    is a min-plus Kleene star.
    """
    _require_flavor(p, Flavor.MIN_PLUS, "dominator_dual")
    return _star(p)


def min_plus_hull(p: Polytope) -> Polytope:
    """The min-plus convex hull of a max-plus polytope, as a max-plus polytope.

    The hull equals the max-plus column space of the dominator, so it is
    simultaneously max-plus and min-plus convex and this operation is
    idempotent.
    """
    return Polytope(Flavor.MAX_PLUS, dominator(p).matrix)


def classify(p: Polytope) -> Classification:
    """Decide whether a max-plus polytope is a polytrope (Euclidean convex).

    Computes the dominator and tests each of its columns for membership in p,
    in column order.  All columns members: p is min-plus convex, hence
    Euclidean convex, and p equals the column space of its dominator (the
    unique Kleene star with that column space).  Otherwise the first failing
    column certifies non-convexity.

    Column ``D_i`` is in p iff it is a shifted generator ``v_k - v_ik * 1``:
    every u in p with ``u_i >= 0`` satisfies ``u >= D_i``.  If ``D_i`` is in p,
    the term ``lambda_k + v_k`` that attains ``D_ii = 0`` has
    ``lambda_k = -v_ik``, so ``D_i <= v_k - v_ik <= D_i``.  Conversely a
    shifted generator is in p.  So each column costs one set lookup, and
    deciding p costs the dominator plus O(nm + n^2).
    """
    star = dominator(p)
    i = next(_failing_columns(p, star), None)
    return Classification(
        dominator=star,
        is_min_plus_convex=i is None,
        witness=None if i is None else star.matrix.col(i),
    )


def is_min_plus_convex(p: Polytope) -> bool:
    """True iff every dominator column is already a member of p."""
    return classify(p).is_min_plus_convex


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

    Requires p to be min-plus convex (so that it is a set with dominators on
    both sides).  The polytope is re-presented min-plus as the span of the
    rows of the negated dominator, the dual dominator of that presentation is
    computed, and the two matrices are compared exactly.
    """
    result = classify(p)
    if not result.is_min_plus_convex:
        raise PreconditionError("polytope is not min-plus convex; it has no dual dominator")
    negt = negate_transpose(result.dominator.matrix)
    dual = dominator_dual(Polytope(Flavor.MIN_PLUS, negt))
    return dual.matrix == negt
