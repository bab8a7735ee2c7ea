"""Fuzz ``parse_matrix_document`` on its own: any input either raises
``DocumentError`` or gives a document that survives a serialize/parse round
trip unchanged.  No other exception may escape.  ``parse_rational`` is also
compared with the parse it replaced, which handed the string to ``Fraction``."""

import json
import re
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropgeo.docio import DocumentError, parse_matrix_document, parse_rational, serialize_matrix_document

HUGE = "@huge@"  # stands for a JSON number of 5000 digits, which json.dumps cannot write

huge_ints = st.integers(-(10**80), 10**80) | st.sampled_from([2**63, -(2**64), 10**4000])
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | huge_ints
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | st.just(HUGE)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
good_rationals = st.integers(-9, 9) | st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-(10**30), 10**30), st.integers(1, 10**30)
)
bad_rationals = (
    json_values
    | st.builds(lambda p: f"{p}/0", st.integers(-9, 9))
    | st.sampled_from(["0.5", "1e3", "", "1/-2", "-", "١", HUGE])
    | st.sampled_from(["9" * 5000, "1/" + "7" * 5000])  # beyond CPython's int-string limit
)
FAULTS = ["none", "none", "flavor", "rows", "cols", "entries", "count", "role", "missing", "extra"] + ["entry"] * 3


@st.composite
def near_documents(draw):
    """A valid document, or one with one fault: a field of a wrong type or value, or a key missing or added."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {
        "flavor": draw(st.sampled_from(["max-plus", "min-plus"])),
        "rows": rows,
        "cols": cols,
        "entries": draw(st.lists(good_rationals, min_size=rows * cols, max_size=rows * cols)),
        "role": draw(st.sampled_from(["matrix", "generators-as-columns"])),
    }
    fault = draw(st.sampled_from(FAULTS))
    if fault in ("flavor", "entries", "role"):
        doc[fault] = draw(json_values)
    elif fault in ("rows", "cols"):
        doc[fault] = draw(st.integers(-2, 4) | huge_ints | json_values)
    elif fault == "entry":
        doc["entries"][draw(st.integers(0, rows * cols - 1))] = draw(bad_rationals)
    elif fault == "count":
        doc["entries"] = doc["entries"][:-1] if draw(st.booleans()) else doc["entries"] + ["0"]
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "extra":
        doc[draw(st.text(max_size=6))] = draw(json_values)
    return doc


def _text(obj, nest: int) -> str:
    text = json.dumps(obj).replace(json.dumps(HUGE), "9" * 5000)
    return "[" * nest + text + "]" * nest


def _check(data) -> None:
    try:
        doc = parse_matrix_document(data)
    except DocumentError:
        return
    assert parse_matrix_document(serialize_matrix_document(doc)) == doc


@settings(max_examples=200)
@given(st.binary(max_size=200))
def test_arbitrary_bytes(data):
    _check(data)


@settings(max_examples=200)
@given(json_values, st.sampled_from([0, 0, 0, 1, 3, 100_000]), st.booleans())
def test_arbitrary_json(obj, nest, as_bytes):
    text = _text(obj, nest)
    _check(text.encode() if as_bytes else text)


@settings(max_examples=200)
@given(near_documents(), st.booleans())
# rows * cols has more digits than CPython will print: the count message once raised ValueError
@example({"flavor": "max-plus", "rows": 10**4000, "cols": 10**4000, "entries": [], "role": "matrix"}, False)
def test_near_documents(obj, as_bytes):
    text = _text(obj, 0)
    _check(text.encode() if as_bytes else text)


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


def _outcome(parse, text):
    try:
        value = parse(text, "entries[3]")
    except DocumentError as e:
        return "error", str(e)
    return "value", type(value), value.numerator, value.denominator


digits = st.integers(0, 10**12).map(str) | st.sampled_from(["0", "00", "0007", "9" * 4300, "9" * 4301, "1" + "0" * 4300])
spaces = st.sampled_from(["", "", " ", "\t", "\n", " \r\n ", "\u2003", "\x0b"])
rational_texts = st.builds(
    lambda pre, sign, num, slash, den, post: f"{pre}{sign}{num}{slash}{den if slash else ''}{post}",
    spaces,
    st.sampled_from(["", "-", "+", "--", "+-"]),
    digits,
    st.sampled_from(["", "/", "/", "//", " /"]),
    digits | st.sampled_from(["", "-3", "0"]),
    spaces,
)


@settings(max_examples=300)
@given(rational_texts | json_values)
@example("-0")
@example("0/5")
@example(" +007/010 ")
@example("-0/0")
@example("1/" + "7" * 5000)
@example("9" * 4301 + "/0")
@example(True)
@example(0.5)
@example(10**4000)
def test_parse_rational_matches_fraction_parse(text):
    """Same value, or the same message, as ``Fraction(text)`` behind the same pattern."""
    assert _outcome(parse_rational, text) == _outcome(parse_rational_by_fraction, text)


# few distinct strings, so that entries repeat; equal values in other spellings;
# JSON values that compare equal to 1 (1, 1.0, true) but are not all rationals
repeated_entries = st.sampled_from(["1/2", "2/4", " 1/2", "-3", "0", "1", "1/0", "x", ""]) | st.sampled_from(
    [1, 1.0, True, 0, -3, None]
)


@settings(max_examples=300)
@given(st.lists(repeated_entries, min_size=1, max_size=12))
@example(["1/2", "x", "1/2", "x"])
@example([1, "1", True, 1.0])
@example(["1", 1, 1.0])
def test_document_entries_parse_as_each_alone(raw):
    """A document's entries have the values, or the first failure's message,
    of ``parse_rational`` on each entry alone, and equal strings share one
    ``Fraction``."""
    text = json.dumps({"flavor": "max-plus", "rows": 1, "cols": len(raw), "entries": raw, "role": "matrix"})
    try:
        expected = tuple(parse_rational(e, f"entries[{k}]") for k, e in enumerate(raw))
    except DocumentError as e:
        expected = str(e)
    try:
        entries = parse_matrix_document(text).entries
    except DocumentError as e:
        assert str(e) == expected
        return
    assert entries == expected and all(type(x) is Fraction for x in entries)
    for k, e in enumerate(raw):
        assert entries[k] is entries[raw.index(e)] or type(e) is not str
