"""Exact scalar, vector and matrix arithmetic for the two tropical semirings.

The max-plus semiring is the real numbers with addition ``a (+) b = max(a, b)``
and multiplication ``a (*) b = a + b``; the min-plus semiring replaces max by
min.  All values are exact rationals, read as ``fractions.Fraction``, so every
identity tested elsewhere in the package (idempotency, greatest lower bounds,
projections) is decidable by plain equality.  Neither semiring carries an
infinite element here: every entry is a finite rational, and no operation may
assume an additive identity matrix exists.

The API takes and gives ``Fraction``s, but every value holds Python ints
and every kernel runs on them.  The operations used (+, -, min, max) never
leave the lattice ``(1/L)·Z``, where L is the lcm of the inputs'
denominators, so a matrix or vector holds only its int form, L and the
numerators over L.  A constructor
given ``Fraction``s converts them once, and ``entries`` builds its
``Fraction``s on each read and keeps none, so a caller reads it once.
``fractions`` is imported by the first call that builds a ``Fraction``
(``_fraction``).  The known cost: inputs whose denominators are pairwise
coprime make L, and every int, large.

The package's value classes (``Lattice``, ``TropVector`` and ``TropMatrix``
here, and the result types of the other modules) are plain immutable classes
on ``Frozen``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from functools import cache
from itertools import chain, repeat
from operator import add, attrgetter


class DimensionError(ValueError):
    """Operands have incompatible lengths or shapes."""


class FlavorError(ValueError):
    """An operation received a polytope or matrix of the wrong flavor."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


def as_scalar(value: Fraction | int | str) -> Fraction:
    """Coerce to an exact rational.

    Accepts ``Fraction``, ``int`` and strings such as ``"-3"`` or ``"1/2"``.
    Floats are rejected: binary floats would smuggle rounding into a library
    whose point is exactness.
    """
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a Fraction, int or 'p/q' string")
    return _fraction()(value)


@cache
def _fraction() -> type[Fraction]:
    """``fractions.Fraction``, imported by the first call that builds or type-checks one."""
    from fractions import Fraction

    return Fraction


class Flavor(Enum):
    """Selects one of the two semirings: max-plus or min-plus."""

    MAX_PLUS = "max-plus"
    MIN_PLUS = "min-plus"

    @property
    def sign(self) -> int:
        """1 or -1: integer kernels run max-plus on ``lattice.cols_times(sign)``."""
        return 1 if self is Flavor.MAX_PLUS else -1


def common_denominator(dens: Iterable[int], max_bits: int | None = None) -> int:
    """The lcm of the denominators ``dens``.

    With ``max_bits``, it stops at the first partial lcm longer than that, so
    a caller can refuse a scale too large to compute with without building it.
    """
    scale = 1
    for den in set(dens):
        scale = math.lcm(scale, den)
        if max_bits is not None and scale.bit_length() > max_bits:
            break
    return scale


def _normalised(col: Sequence[int]) -> tuple[int, ...]:
    """``col`` shifted to first coordinate 0: two columns are tropical scalings
    of each other iff their normalised forms are equal."""
    c0 = col[0]
    return tuple([x - c0 for x in col])


class Frozen:
    """Base of the value classes: fields set once, then compared, hashed and shown together.

    A subclass names its fields in ``__slots__``; those without a leading
    underscore are its ``_fields``, and this constructor binds positional,
    then keyword, arguments to them, raising ``TypeError`` as a function with
    that signature would.  Instances are equal only to instances of the same
    class with equal fields, like a frozen dataclass (importing
    ``dataclasses`` cost about 15 ms of every CLI call), and have no
    ``__dict__``.  ``copy`` and ``pickle`` rebuild an instance through its
    constructor, so a copied ``KleeneStar`` is checked again.  ``KleeneStar``
    keeps its own ``__init__`` to check a caller's star after this one runs
    (the dominator fold binds its fields with ``_bound``, which runs neither).
    ``TropVector``, ``TropMatrix`` and ``MatrixDocument`` hold their values as
    ints in a private slot: each names its public fields in ``_fields``,
    converts them in its own ``__init__``, and compares the ints in canonical
    form by its ``_key``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _key: Callable[[Frozen], object]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__slots__" in vars(cls) and "_key" not in vars(cls):  # else it inherits or gives them
            cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
            cls._key = staticmethod(attrgetter(*cls._fields))  # the fields, or the one field

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            object.__setattr__(self, key, value)
        if len(args) + len(kwargs) < len(fields):
            missing = [f for f in fields[len(args) :] if f not in kwargs]
            raise TypeError(f"{name}() missing {missing}")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # copy and pickle would restore the slots by setattr, which __setattr__ refuses
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Lattice(Frozen):
    """Integer form of a matrix, column-major: entry (i, j) is ``cols[j][i] / scale``.

    ``scale`` is a positive common denominator of the entries, not always the least.
    """

    __slots__ = ("scale", "cols")
    scale: int
    cols: tuple[tuple[int, ...], ...]

    def cols_times(self, factor: int) -> tuple[tuple[int, ...], ...]:
        """The columns multiplied by ``factor``: a rescaling, negated when factor < 0."""
        if factor == 1:
            return self.cols
        return tuple(tuple(factor * x for x in c) for c in self.cols)


def _canonical(scale: int, ints: Iterable[int]) -> tuple[int, ...]:
    """``(scale, *ints)`` divided by their gcd: the one form of a value over every
    positive scale, which ``==`` and ``hash`` compare."""
    ints = tuple(ints)
    g = math.gcd(scale, *ints)
    return (scale // g, *[x // g for x in ints])


def _rational_texts(scale: int, ints: Sequence[int]) -> list[str]:
    """Each ``x / scale`` of ``ints`` as ``str`` of its ``Fraction`` reads, one ``gcd`` per distinct x."""
    texts = {}
    for x in set(ints):
        g = math.gcd(x, scale)
        texts[x] = str(x // g) if g == scale else f"{x // g}/{scale // g}"
    return list(map(texts.__getitem__, ints))


def _to_ints(entries: Sequence[Fraction], what: str) -> tuple[int, tuple[int, ...]]:
    """``(scale, ints)``: the lcm of the denominators of ``entries``, each of which
    must be a ``Fraction``, and their numerators over it."""
    fraction, dens = _fraction(), set()
    for e in entries:
        if not isinstance(e, fraction):
            raise TypeError(f"{what} entry {e!r} is not a Fraction")
        dens.add(e.denominator)
    scale = common_denominator(dens)
    return scale, tuple([e.numerator * (scale // e.denominator) for e in entries])


def _fractions(scale: int, ints: Sequence[int]) -> tuple[Fraction, ...]:
    """Each ``x / scale`` of ``ints``, equal ints sharing one ``Fraction``: a 32x40
    dominator has about 370 distinct values in 1,024 entries."""
    fraction = _fraction()
    shared = {x: fraction(x, scale) for x in set(ints)}
    return tuple(map(shared.__getitem__, ints))


def _bound(cls: type, *values: object) -> Frozen:
    """An instance of ``cls`` whose slots, in order, hold ``values``: no constructor runs."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class TropVector(Frozen):
    """A dense point of R^n with exact rational coordinates, n >= 1.

    It holds only ``(scale, ints)``; ``entries`` builds its ``Fraction``s on
    each read and keeps none, so a caller reads it once.
    """

    __slots__ = ("_lattice",)
    _fields = ("entries",)

    @staticmethod
    def _key(v: TropVector) -> tuple[int, ...]:
        return _canonical(*v._lattice)

    def __init__(self, entries: tuple[Fraction, ...]) -> None:
        if len(entries) < 1:
            raise DimensionError("vector must have at least one entry")
        object.__setattr__(self, "_lattice", _to_ints(entries, "vector"))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return _fractions(*self._lattice)

    lattice = property(attrgetter("_lattice"), doc="``(scale, ints)``, scale > 0: entry i is ``ints[i] / scale``.")

    def __len__(self) -> int:
        return len(self._lattice[1])

    def __getitem__(self, i: int | slice) -> Fraction | tuple[Fraction, ...]:
        scale, ints = self._lattice
        return _fractions(scale, ints[i]) if isinstance(i, slice) else _fraction()(ints[i], scale)

    def __iter__(self) -> Iterator[Fraction]:
        scale, ints = self._lattice
        return map(_fraction(), ints, repeat(scale))

    def __neg__(self) -> "TropVector":
        scale, ints = self._lattice
        return vector_from_ints(-scale, ints)

    def __repr__(self) -> str:
        return "vec(%s)" % ", ".join(_rational_texts(*self._lattice))


class TropMatrix(Frozen):
    """A dense n x m array of exact rationals.

    Matrices double as generator lists: a polytope's generators are the
    columns of its matrix.  It holds only its ``lattice``, column-major;
    ``entries``, row-major, builds its ``Fraction``s on each read and keeps
    none, so a caller reads it once.
    """

    __slots__ = ("_lattice",)
    _fields = ("entries",)

    @staticmethod
    def _key(m: TropMatrix) -> tuple[int, ...]:
        lat = m._lattice
        return (len(lat.cols), *_canonical(lat.scale, chain.from_iterable(lat.cols)))

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]) -> None:
        if len(entries) < 1 or len(entries[0]) < 1:
            raise DimensionError("matrix must be at least 1x1")
        for r in entries:
            if len(r) != len(entries[0]):
                raise DimensionError("matrix rows have unequal lengths")
        scale, ints = _to_ints([*chain.from_iterable(entries)], "matrix")
        m = len(entries[0])
        object.__setattr__(self, "_lattice", Lattice(scale, tuple([ints[j::m] for j in range(m)])))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        lat = self._lattice
        flat = iter(_fractions(lat.scale, [*chain.from_iterable(zip(*lat.cols))]))
        return tuple(zip(*[flat] * len(lat.cols)))  # consecutive rows of the row-major entries

    @property
    def n_rows(self) -> int:
        return len(self._lattice.cols[0])

    @property
    def n_cols(self) -> int:
        return len(self._lattice.cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    # A row or column holds only ints.
    def row(self, i: int) -> TropVector:
        lat = self._lattice
        return vector_from_ints(lat.scale, tuple([c[i] for c in lat.cols]))

    def col(self, j: int) -> TropVector:
        return vector_from_ints(self._lattice.scale, self._lattice.cols[j])

    def columns(self) -> Iterator[TropVector]:
        return map(self.col, range(self.n_cols))

    lattice = property(attrgetter("_lattice"), doc="The entries over a common denominator.")

    def __repr__(self) -> str:
        lat = self._lattice
        rows = zip(*[_rational_texts(lat.scale, c) for c in lat.cols])
        return "mat[%s]" % "; ".join(map(",".join, rows))


def matrix_from_lattice(lat: Lattice) -> TropMatrix:
    """The matrix ``lat`` represents, holding ``lat``."""
    return _bound(TropMatrix, lat)


def vector_from_ints(scale: int, ints: tuple[int, ...]) -> TropVector:
    """The vector ``ints / scale``, held over a positive scale: ints negated when scale < 0."""
    v = object.__new__(TropVector)  # not ``_bound``: the sampler builds one for each violation
    object.__setattr__(v, "_lattice", (scale, ints) if scale > 0 else (-scale, tuple([-x for x in ints])))
    return v


def vec(*entries: Fraction | int | str) -> TropVector:
    """Build a TropVector from ints, Fractions or 'p/q' strings."""
    return TropVector(tuple(as_scalar(e) for e in entries))


def mat(rows: Sequence[Sequence[Fraction | int | str]]) -> TropMatrix:
    """Build a TropMatrix from a sequence of rows."""
    return TropMatrix(tuple(tuple(as_scalar(e) for e in r) for r in rows))


def mat_from_columns(columns: Sequence[TropVector]) -> TropMatrix:
    """Assemble a matrix whose j-th column is ``columns[j]``."""
    if not columns:
        raise DimensionError("need at least one column")
    lats = [c.lattice for c in columns]
    for _, ints in lats:
        if len(ints) != len(lats[0][1]):
            raise DimensionError("columns have unequal lengths")
    scale = math.lcm(*(s for s, _ in lats))  # the columns' ints on their common scale
    return matrix_from_lattice(Lattice(scale, tuple(tuple([scale // s * x for x in ints]) for s, ints in lats)))


def trop_mat_mul(f: Flavor, a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Tropical matrix product: entry (i,j) is max_k (min_k) of ``a[i,k] + b[k,j]``."""
    if a.n_cols != b.n_rows:
        raise DimensionError(f"cannot multiply {a.n_rows}x{a.n_cols} by {b.n_rows}x{b.n_cols}")
    sign = f.sign  # min-plus: the negated max-plus product of the negated operands
    la, lb = a.lattice, b.lattice
    scale = math.lcm(la.scale, lb.scale)
    arows = tuple(zip(*la.cols_times(sign * (scale // la.scale))))
    bcols = lb.cols_times(sign * (scale // lb.scale))
    cols = tuple(tuple(sign * max(map(add, r, c)) for r in arows) for c in bcols)
    return matrix_from_lattice(Lattice(scale, cols))


def negate_transpose(a: TropMatrix) -> TropMatrix:
    """Entrywise negation followed by transposition.

    Negation is an isomorphism between the two semirings, so this map
    exchanges their matrix products: ``-(A (x) B)^T = (-B^T) (min*) (-A^T)``.
    """
    lat = a.lattice
    return matrix_from_lattice(Lattice(lat.scale, tuple(zip(*lat.cols_times(-1)))))
