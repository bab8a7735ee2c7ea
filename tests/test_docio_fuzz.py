"""Fuzz ``parse_matrix_document`` on its own: any input either raises
``DocumentError`` or gives a document that survives a serialize/parse round
trip unchanged.  No other exception may escape.  ``parse_rational`` is also
compared with the parse it replaced, which handed the string to ``Fraction``,
and documents and vector flags, which go straight to lattice ints, with the
read that built a ``Fraction`` for every entry first."""

import json
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropgeo.docio import (
    MAX_SCALE_BITS,
    DocumentError,
    format_vector,
    parse_matrix_document,
    parse_rational,
    parse_vector,
    serialize_matrix_document,
)

from oracles import document_text_by_fraction, lattice_by_fraction, parse_rational_by_fraction

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


# Entries for the differential test below: valid and invalid strings, JSON
# ints and bools, zero denominators, numbers of 4,300 and 4,301 digits, and
# denominators 2**k and 3**j whose lcm has about MAX_SCALE_BITS bits.
near_scale = st.integers(MAX_SCALE_BITS - 3, MAX_SCALE_BITS + 1).map(lambda k: f"1/{2**k}") | st.integers(
    2582, 2586
).map(lambda j: f"-2/{3**j}")
small = st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 20), st.integers(1, 12))
faults = st.builds(lambda p: f"{p}/0", st.integers(-9, 9)) | st.sampled_from(["-0/000", "1/2/3", "1.5", ""]) | rational_texts
json_ints = st.integers(-(10**30), 10**30) | st.booleans()
lattice_entries = st.one_of(small, small, small, small, small, json_ints, faults, near_scale)


@st.composite
def lattice_documents(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return {
        "flavor": draw(st.sampled_from(["max-plus", "min-plus"])),
        "rows": rows,
        "cols": cols,
        "entries": draw(st.lists(lattice_entries, min_size=rows * cols, max_size=rows * cols)),
        "role": draw(st.sampled_from(["matrix", "generators-as-columns"])),
    }


def _outcome_of(read, *args):
    try:
        return read(*args)
    except DocumentError as e:
        return "error", str(e)


@settings(max_examples=300, deadline=None)
@given(lattice_documents())
@example({"flavor": "max-plus", "rows": 1, "cols": 3, "entries": [True, 1, "1"], "role": "matrix"})
@example({"flavor": "max-plus", "rows": 1, "cols": 3, "entries": [2, "2/4", 2], "role": "matrix"})
@example({"flavor": "max-plus", "rows": 1, "cols": 2, "entries": ["1/0", "1/0"], "role": "matrix"})
@example({"flavor": "max-plus", "rows": 1, "cols": 2, "entries": ["1/2", "9" * 4301], "role": "matrix"})
@example({"flavor": "min-plus", "rows": 1, "cols": 2, "entries": [f"1/{2**4095}", "5"], "role": "matrix"})
@example({"flavor": "min-plus", "rows": 2, "cols": 1, "entries": [f"1/{2**4095}", "1/3"], "role": "matrix"})
def test_int_read_matches_the_fraction_read(obj):
    """A document, and its entries as a vector flag, give the L and the ints,
    or the ``DocumentError`` text, that the read through ``Fraction``s gives,
    and are written back to the same bytes."""
    raw = obj["entries"]
    expected = _outcome_of(lattice_by_fraction, raw, "entries", MAX_SCALE_BITS)
    if expected[0] == "error":
        with pytest.raises(DocumentError) as e:
            parse_matrix_document(json.dumps(obj))
        assert ("error", str(e.value)) == expected
    else:
        doc = parse_matrix_document(json.dumps(obj))
        lat = doc.to_matrix().lattice
        assert (lat.scale, [*chain.from_iterable(zip(*lat.cols))]) == expected
        assert serialize_matrix_document(doc) == document_text_by_fraction(obj)
        assert doc.entries == tuple(Fraction(x, lat.scale) for x in expected[1])
    if not all(type(e) is str for e in raw) or not ",".join(raw).strip():
        return
    parts = ",".join(raw).strip().split(",")  # as parse_vector splits its text
    expected = _outcome_of(lattice_by_fraction, parts, "x", MAX_SCALE_BITS)
    got = _outcome_of(parse_vector, ",".join(raw), "x")
    if expected[0] == "error":
        assert got == expected
    else:
        scale, ints = got.lattice
        assert (scale, list(ints)) == expected
        texts = [str(Fraction(x, expected[0])) for x in expected[1]]
        assert format_vector(got) == "(%s)" % ",".join(texts)
