"""JSON matrix documents and exact rational string handling.

A matrix travels as a single JSON object with rationals as strings, so that
values survive serialization without rounding:

    {"flavor": "max-plus", "rows": 2, "cols": 2,
     "entries": ["0", "1", "1", "0"], "role": "matrix"}

``entries`` is row-major; ``role`` says whether the matrix is meant as a plain
matrix or as a generator list (one generator per column).  Parsing normalizes
every entry to lowest terms, so serialize(parse(text)) is canonical and
parse(serialize(doc)) == doc.  Entries go from strings to lattice ints and
back with no ``Fraction`` built; a document's ``entries`` builds its
``Fraction``s on each read and keeps none.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain

from .core import Flavor, Frozen, Lattice, TropMatrix, TropVector, _bound, _canonical, _fraction, _rational_texts
from .core import _fractions, _to_ints, common_denominator, matrix_from_lattice, vector_from_ints
from .residuation import Polytope

ROLE_MATRIX = "matrix"
ROLE_GENERATORS = "generators-as-columns"

_ROLES = (ROLE_MATRIX, ROLE_GENERATORS)

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")

# The integer kernels run every matrix over L, the lcm of its denominators, so
# the cost of each operation grows with the bit length of L.
MAX_SCALE_BITS = 4096

# A document is held as bytes, text and parsed JSON at once, so a large one ends
# in a MemoryError; 16 MiB is about 200 times the 84 KB of a 96x120 document.
MAX_DOCUMENT_BYTES = 16 * 2**20

# The byte limit alone lets through 4,000,000 one-digit entries, which ended in
# a MemoryError under a 400 MB address-space limit when each became a Fraction.
# The count is checked before any entry is parsed.
MAX_ENTRIES = 1_000_000


class DocumentError(ValueError):
    """Malformed document: bad syntax, bad entry, or inconsistent shape."""


def parse_rational(text: object, where: str = "value") -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a reduced Fraction.

    JSON integers are accepted as-is; anything else (floats, decimal points,
    exponents) is rejected so no rounding can sneak in.
    """
    return _fraction()(*_reduced(text, where))


def _reduced(text: object, where: str = "value") -> tuple[int, int]:
    """``parse_rational``'s value as ``(p, q)`` in lowest terms, q >= 1, or its error."""
    if isinstance(text, bool):
        raise DocumentError(f"{where}: not a rational: {text!r}")
    if isinstance(text, int):
        return text, 1
    body = text.strip() if isinstance(text, str) else ""
    if not _RATIONAL_RE.match(body):
        raise DocumentError(f"{where}: not a rational: {text!r}")
    num, _, den = body.partition("/")  # the pattern has checked the syntax
    try:
        p, q = int(num), int(den or 1)
    except ValueError as e:  # CPython's limit on digits in an int string
        raise DocumentError(f"{where}: {e}") from None
    if not q:
        raise DocumentError(f"{where}: zero denominator: {text!r}")
    g = math.gcd(p, q)
    return p // g, q // g


def _lattice(raw: list, where: str) -> tuple[int, tuple[int, ...]]:
    """L and the numerators over L of ``raw``, read as ``parse_rational`` reads each entry,
    labelled ``where[k]`` on failure, with L refused above ``MAX_SCALE_BITS`` bits before
    any numerator is built.  Each distinct string is parsed once; any other entry each
    time, since JSON ``1``, ``1.0`` and ``true`` are equal keys."""
    parsed: dict[str | int, tuple[int, int]] = {}
    for k, e in enumerate(raw):
        if type(e) is not str or e not in parsed:
            try:
                parsed[e] = _reduced(e)
            except DocumentError:
                _reduced(e, f"{where}[{k}]")  # the same parse fails again, now with the entry's label
                raise
    scale = common_denominator((q for _, q in parsed.values()), MAX_SCALE_BITS)
    if scale.bit_length() > MAX_SCALE_BITS:
        raise DocumentError(f"{where}: common denominator has more than {MAX_SCALE_BITS} bits")
    over = {e: p * (scale // q) for e, (p, q) in parsed.items()}
    return scale, tuple(map(over.__getitem__, raw))


def format_rational(value: Fraction) -> str:
    """Canonical string form: ``p`` when integral, else ``p/q`` in lowest terms."""
    return str(value)


def parse_vector(text: str, where: str = "vector") -> TropVector:
    """Parse comma-separated rationals, with or without surrounding parentheses.

    A vector whose entries' common denominator has more than
    ``MAX_SCALE_BITS`` bits is refused.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(",")
    if parts == [""]:
        raise DocumentError(f"{where}: empty vector")
    return vector_from_ints(*_lattice(parts, where))


def format_vector(v: TropVector) -> str:
    """``(e0,e1,...)``, each entry as ``format_rational`` writes it, from v's ints."""
    return "(%s)" % ",".join(_rational_texts(*v.lattice))


class MatrixDocument(Frozen):
    """In-memory form of one matrix/polytope file.  It holds its entries, row-major,
    as ``(scale, ints)``; ``entries`` builds their ``Fraction``s on each read and keeps
    none, so a caller reads it once, and ``to_matrix`` builds the matrix on each call."""

    __slots__ = ("flavor", "rows", "cols", "role", "_lattice")
    _fields = ("flavor", "rows", "cols", "entries", "role")
    flavor: Flavor
    rows: int
    cols: int
    role: str

    @staticmethod
    def _key(doc: MatrixDocument) -> tuple:
        return doc.flavor, doc.rows, doc.cols, doc.role, _canonical(*doc._lattice)

    def __init__(self, flavor: Flavor, rows: int, cols: int, entries: tuple[Fraction, ...], role: str) -> None:
        for name, value in zip(self.__slots__, (flavor, rows, cols, role, _to_ints(entries, "document"))):
            object.__setattr__(self, name, value)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return _fractions(*self._lattice)

    def to_matrix(self) -> TropMatrix:
        (scale, ints), cols = self._lattice, self.cols
        if not 0 < len(ints) == self.rows * cols:
            raise DocumentError(f"entry count mismatch: {len(ints)} entries for {self.rows}x{cols}")
        return matrix_from_lattice(Lattice(scale, tuple([ints[j::cols] for j in range(cols)])))

    def to_polytope(self) -> Polytope:
        """Interpret the columns as generators of a polytope of this flavor."""
        return Polytope(self.flavor, self.to_matrix())

    @classmethod
    def from_matrix(cls, matrix: TropMatrix, flavor: Flavor, role: str = ROLE_MATRIX) -> "MatrixDocument":
        if role not in _ROLES:
            raise DocumentError(f"role: expected one of {_ROLES}, got {role!r}")
        lat = matrix.lattice
        flat = (lat.scale, tuple(chain.from_iterable(zip(*lat.cols))))
        return _bound(cls, flavor, matrix.n_rows, matrix.n_cols, role, flat)

    def to_json_obj(self) -> dict:
        return {
            "flavor": self.flavor.value,
            "rows": self.rows,
            "cols": self.cols,
            "entries": _rational_texts(*self._lattice),
            "role": self.role,
        }


def _require_positive_int(obj: dict, key: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DocumentError(f"{key}: expected a positive integer, got {value!r}")
    return value


def parse_matrix_document(text: bytes | str) -> MatrixDocument:
    """Parse one matrix document, reporting the offending position on failure.

    A document of more than ``MAX_ENTRIES`` entries, or whose entries' common
    denominator has more than ``MAX_SCALE_BITS`` bits, is refused.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DocumentError(f"not UTF-8: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:  # a JSON integer beyond CPython's int-string limit
        raise DocumentError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(obj, dict):
        raise DocumentError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("flavor", "rows", "cols", "entries", "role"):
        if key not in obj:
            raise DocumentError(f"missing field: {key}")
    try:
        flavor = Flavor(obj["flavor"])
    except ValueError:
        raise DocumentError(
            f"flavor: expected 'max-plus' or 'min-plus', got {obj['flavor']!r}"
        ) from None
    rows = _require_positive_int(obj, "rows")
    cols = _require_positive_int(obj, "cols")
    role = obj["role"]
    if role not in _ROLES:
        raise DocumentError(f"role: expected one of {_ROLES}, got {role!r}")
    raw = obj["entries"]
    if not isinstance(raw, list):
        raise DocumentError(f"entries: expected an array, got {type(raw).__name__}")
    if len(raw) != rows * cols:
        try:
            expected = str(rows * cols)
        except ValueError:  # more digits than CPython's int-string limit allows
            expected = f"{rows}*{cols}"
        raise DocumentError(f"entry count mismatch: expected {expected}, got {len(raw)}")
    if len(raw) > MAX_ENTRIES:
        raise DocumentError(f"entries: more than {MAX_ENTRIES} entries")
    return _bound(MatrixDocument, flavor, rows, cols, role, _lattice(raw, "entries"))


def serialize_matrix_document(doc: MatrixDocument) -> str:
    return json.dumps(doc.to_json_obj(), indent=2) + "\n"
