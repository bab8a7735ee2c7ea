"""Exact scalar, vector and matrix arithmetic for the two tropical semirings.

The max-plus semiring is the real numbers with addition ``a (+) b = max(a, b)``
and multiplication ``a (*) b = a + b``; the min-plus semiring replaces max by
min.  All values are exact rationals (``fractions.Fraction``), so every
identity tested elsewhere in the package (idempotency, greatest lower bounds,
projections) is decidable by plain equality.  Neither semiring carries an
infinite element here: every entry is a finite rational, and no operation may
assume an additive identity matrix exists.

Values are exact ``Fraction``s at the API, but the kernels run on Python
ints.  The operations used (+, -, min, max) never leave the lattice
``(1/L)·Z``, where L is the lcm of the inputs' denominators, so a matrix or
vector holds its ``entries``, its int form (L and the numerators over L), or
both, and builds the missing one from the other on first read.  Kernel
results and parsed documents hold only ints, and ``fractions`` is imported
by the first call that builds a ``Fraction`` (``_fraction``).  The known cost:
inputs whose denominators are pairwise coprime make L, and every int, large.

The package's value classes (``Lattice``, ``TropVector`` and ``TropMatrix``
here, and the result types of the other modules) are plain immutable classes
on ``Frozen``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from functools import cache
from itertools import chain
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


def to_lattice(values: Iterable[Fraction], scale: int) -> list[int]:
    """The numerators of ``values`` over ``scale``, which every denominator divides."""
    return [e.numerator * (scale // e.denominator) for e in values]


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
    constructor, so a copied ``KleeneStar`` is checked again.  Three classes
    keep their own ``__init__`` to validate: ``KleeneStar`` checks a caller's star
    after this one runs (the dominator fold runs this one alone); ``TropVector``
    and ``TropMatrix``, built hundreds of times per call, set their field directly (~1 µs less).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _key: Callable[[Frozen], object]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
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
        if other is self:  # reads no field, so a value holding only ints builds no entries
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

    ``scale`` is a common denominator of the entries, not always the least.
    """

    __slots__ = ("scale", "cols")
    scale: int
    cols: tuple[tuple[int, ...], ...]

    def cols_times(self, factor: int) -> tuple[tuple[int, ...], ...]:
        """The columns multiplied by ``factor``: a rescaling, negated when factor < 0."""
        if factor == 1:
            return self.cols
        return tuple(tuple(factor * x for x in c) for c in self.cols)


class _Over(dict):
    """A scale and the Fractions over it, ``x -> Fraction(x, scale)``, built as entries are read."""

    __slots__ = ("scale",)

    def __init__(self, scale: int) -> None:
        self.scale = scale


class TropVector(Frozen):
    """A dense point of R^n with exact rational coordinates, n >= 1."""

    __slots__ = ("entries", "_lattice")
    entries: tuple[Fraction, ...]

    def __init__(self, entries: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise DimensionError("vector must have at least one entry")
        fraction = _fraction()
        for e in entries:
            if not isinstance(e, fraction):
                raise TypeError(f"vector entry {e!r} is not a Fraction")

    def __getattr__(self, name: str) -> object:
        # called only while slot ``name`` is unset; the other slot is read through
        # its descriptor, so a value with neither form raises instead of recursing
        if name == "_lattice":
            entries = TropVector.entries.__get__(self)
            scale = common_denominator({e.denominator for e in entries})
            value = _Over(scale), tuple(to_lattice(entries, scale))
            object.__setattr__(self, name, value)
            return value
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        try:
            over, ints = TropVector._lattice.__get__(self)
        except AttributeError:  # neither form, or another thread has just built the entries
            return TropVector.entries.__get__(self)
        fraction = _fraction()  # probe only these ints: many vectors may share ``over``
        over.update({x: fraction(x, over.scale) for x in set(ints) if x not in over})
        value = tuple(map(over.__getitem__, ints))
        object.__setattr__(self, name, value)
        # the ints go, so that a sampler report whose entries were read holds no more
        # than one built from Fractions would; ``lattice`` builds them again if asked
        try:
            TropVector._lattice.__delete__(self)
        except AttributeError:  # another thread has dropped them
            pass
        return value

    @property
    def lattice(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, ints)``: entry i is ``ints[i] / scale``."""
        over, ints = self._lattice
        return over.scale, ints

    def __len__(self) -> int:
        try:  # the ints, if held: the length of a vector born from ints builds no Fraction
            return len(TropVector._lattice.__get__(self)[1])
        except AttributeError:
            return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __neg__(self) -> "TropVector":
        return TropVector(tuple(-e for e in self.entries))

    def __repr__(self) -> str:
        return "vec(%s)" % ", ".join(str(e) for e in self.entries)


class TropMatrix(Frozen):
    """A dense n x m array of exact rationals, stored row-major.

    Matrices double as generator lists: a polytope's generators are the
    columns of its matrix.
    """

    __slots__ = ("entries", "_lattice")
    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1 or len(entries[0]) < 1:
            raise DimensionError("matrix must be at least 1x1")
        width, fraction = len(entries[0]), _fraction()
        for r in entries:
            if len(r) != width:
                raise DimensionError("matrix rows have unequal lengths")
            for e in r:
                if not isinstance(e, fraction):
                    raise TypeError(f"matrix entry {e!r} is not a Fraction")

    def __getattr__(self, name: str) -> object:
        # as TropVector.__getattr__, but a matrix keeps both forms.  Equal ints share
        # one Fraction: a 32x40 dominator has about 370 distinct values in 1,024 entries.
        if name == "entries":
            lat, fraction = TropMatrix._lattice.__get__(self), _fraction()
            shared = {x: fraction(x, lat.scale) for x in set(chain.from_iterable(lat.cols))}
            value = tuple(zip(*(map(shared.__getitem__, c) for c in lat.cols)))
        elif name == "_lattice":
            entries = TropMatrix.entries.__get__(self)
            scale = common_denominator({e.denominator for r in entries for e in r})
            value = Lattice(scale, tuple(tuple(to_lattice(c, scale)) for c in zip(*entries)))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @property
    def n_rows(self) -> int:
        return len(self.lattice.cols[0])

    @property
    def n_cols(self) -> int:
        return len(self.lattice.cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    # A row or column holds only ints, and builds its Fractions if they are read.
    def row(self, i: int) -> TropVector:
        lat = self.lattice
        return vector_from_ints(lat.scale, tuple([c[i] for c in lat.cols]))

    def col(self, j: int) -> TropVector:
        return vector_from_ints(self.lattice.scale, self.lattice.cols[j])

    def columns(self) -> Iterator[TropVector]:
        return map(self.col, range(self.n_cols))

    lattice = property(attrgetter("_lattice"), doc="The entries over a common denominator.")

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(e) for e in r) for r in self.entries)
        return f"mat[{body}]"


def matrix_from_lattice(lat: Lattice) -> TropMatrix:
    """The matrix ``lat`` represents, holding only ``lat``: its entries are built on first read."""
    m = object.__new__(TropMatrix)
    object.__setattr__(m, "_lattice", lat)
    return m


def vector_from_ints(scale: int | _Over, ints: tuple[int, ...]) -> TropVector:
    """The vector ``ints / scale`` (negated ints when scale < 0), holding only its int form.
    Vectors given one ``_Over`` as their scale share a Fraction for each equal entry."""
    v = object.__new__(TropVector)
    object.__setattr__(v, "_lattice", (scale if isinstance(scale, _Over) else _Over(scale), ints))
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
    n = len(columns[0])
    for c in columns:
        if len(c) != n:
            raise DimensionError("columns have unequal lengths")
    return TropMatrix(tuple(tuple(c[i] for c in columns) for i in range(n)))


def _check_same_length(x: TropVector, y: TropVector) -> None:
    if len(x) != len(y):
        raise DimensionError(f"vector lengths differ: {len(x)} vs {len(y)}")


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
