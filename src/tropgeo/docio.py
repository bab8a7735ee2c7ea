"""JSON matrix documents and exact rational string handling.

A matrix travels as a single JSON object with rationals as strings, so that
values survive serialization without rounding:

    {"flavor": "max-plus", "rows": 2, "cols": 2,
     "entries": ["0", "1", "1", "0"], "role": "matrix"}

``entries`` is row-major; ``role`` says whether the matrix is meant as a plain
matrix or as a generator list (one generator per column).  Parsing normalizes
every entry to lowest terms, so serialize(parse(text)) is canonical and
parse(serialize(doc)) == doc.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .core import Flavor, Frozen, TropMatrix, TropVector, common_denominator
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

# A parsed entry costs about 160 bytes, so the byte limit alone lets through
# 4,000,000 one-digit entries, which ended in a MemoryError under a 400 MB
# address-space limit. The count is checked before any Fraction is built.
MAX_ENTRIES = 1_000_000


class DocumentError(ValueError):
    """Malformed document: bad syntax, bad entry, or inconsistent shape."""


def parse_rational(text: object, where: str = "value") -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a reduced Fraction.

    JSON integers are accepted as-is; anything else (floats, decimal points,
    exponents) is rejected so no rounding can sneak in.
    """
    if isinstance(text, bool):
        raise DocumentError(f"{where}: not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    body = text.strip() if isinstance(text, str) else ""
    if not _RATIONAL_RE.match(body):
        raise DocumentError(f"{where}: not a rational: {text!r}")
    # the pattern has checked the syntax, so the parts go straight to int
    # instead of through Fraction's own parse of the string
    num, _, den = body.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise DocumentError(f"{where}: zero denominator: {text!r}") from None
    except ValueError as e:  # CPython's limit on digits in an int string
        raise DocumentError(f"{where}: {e}") from None


def format_rational(value: Fraction) -> str:
    """Canonical string form: ``p`` when integral, else ``p/q`` in lowest terms."""
    return str(value)


def _check_scale(entries: tuple[Fraction, ...], where: str) -> None:
    if common_denominator(entries, max_bits=MAX_SCALE_BITS).bit_length() > MAX_SCALE_BITS:
        raise DocumentError(f"{where}: common denominator has more than {MAX_SCALE_BITS} bits")


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
    entries = tuple(parse_rational(s, f"{where}[{k}]") for k, s in enumerate(parts))
    _check_scale(entries, where)
    return TropVector(entries)


def format_vector(v: TropVector) -> str:
    """``(e0,e1,...)``, each entry as ``format_rational`` writes it, from v's ints."""
    scale, ints = v.lattice
    gcds = [math.gcd(x, scale) * (-1 if scale < 0 else 1) for x in ints]  # so scale // g > 0
    texts = (str(x // g) if g == scale else f"{x // g}/{scale // g}" for x, g in zip(ints, gcds))
    return "(%s)" % ",".join(texts)


class MatrixDocument(Frozen):
    """In-memory form of one matrix/polytope file."""

    __slots__ = ("flavor", "rows", "cols", "entries", "role")
    flavor: Flavor
    rows: int
    cols: int
    entries: tuple[Fraction, ...]
    role: str

    def to_matrix(self) -> TropMatrix:
        return TropMatrix(
            tuple(self.entries[i * self.cols : (i + 1) * self.cols] for i in range(self.rows))
        )

    def to_polytope(self) -> Polytope:
        """Interpret the columns as generators of a polytope of this flavor."""
        return Polytope(self.flavor, self.to_matrix())

    @classmethod
    def from_matrix(cls, matrix: TropMatrix, flavor: Flavor, role: str = ROLE_MATRIX) -> "MatrixDocument":
        if role not in _ROLES:
            raise DocumentError(f"role: expected one of {_ROLES}, got {role!r}")
        flat = tuple(e for row in matrix.entries for e in row)
        return cls(flavor=flavor, rows=matrix.n_rows, cols=matrix.n_cols, entries=flat, role=role)

    def to_json_obj(self) -> dict:
        return {
            "flavor": self.flavor.value,
            "rows": self.rows,
            "cols": self.cols,
            "entries": [format_rational(e) for e in self.entries],
            "role": self.role,
        }


def _require_positive_int(obj: dict, key: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DocumentError(f"{key}: expected a positive integer, got {value!r}")
    return value


def _parse_entries(raw: list) -> tuple[Fraction, ...]:
    """``parse_rational`` of each entry, labelled ``entries[k]`` on failure.

    Equal strings are parsed once and share one ``Fraction``: a 96x120
    document of small rationals has a few hundred distinct strings.  Only
    strings are cached, since JSON ``1``, ``1.0`` and ``true`` are equal keys.
    """
    parsed: dict[str, Fraction] = {}
    entries = []
    for e in raw:
        try:
            if type(e) is str:
                value = parsed.get(e)
                if value is None:
                    value = parsed[e] = parse_rational(e)
            else:
                value = parse_rational(e)
        except DocumentError:
            # the same parse fails again, now with the entry's label
            parse_rational(e, f"entries[{len(entries)}]")
            raise
        entries.append(value)
    return tuple(entries)


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
    entries = _parse_entries(raw)
    _check_scale(entries, "entries")
    return MatrixDocument(flavor=flavor, rows=rows, cols=cols, entries=entries, role=role)


def serialize_matrix_document(doc: MatrixDocument) -> str:
    return json.dumps(doc.to_json_obj(), indent=2) + "\n"
