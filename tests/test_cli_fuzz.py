"""Fuzz every subcommand in-process: whatever its flags hold, ``run`` ends with
exit code 0-3, one ``error:`` line on exits 1 and 2, JSON on stdout on exit 0,
and never lets an exception out."""

import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropgeo.cli import run

from test_cli import CLI_SURFACE

MAX_TRIALS = 20

rationals = st.builds(
    lambda p, q, slash: f"{p}/{q}" if slash else str(p),
    st.integers(-30, 30),
    st.integers(1, 9),
    st.booleans(),
)
junk = st.text(max_size=12) | st.sampled_from(["1/0", "0.5", "1e3", "", "-", "--", "()", "1,,2", "9" * 5000])


@st.composite
def vectors(draw, n):
    """Comma-separated rationals, mostly ``n`` of them: bare, negative-first or in parentheses."""
    size = draw(st.sampled_from([n] * 4 + [1, 2, 3, 4]))
    coords = draw(st.lists(rationals, min_size=size, max_size=size))
    form = draw(st.sampled_from(["bare", "negative", "parentheses"]))
    if form == "negative":
        coords[0] = "-" + coords[0].lstrip("-")
    text = ",".join(coords)
    return f"({text})" if form == "parentheses" else text


def _not_many_trials(text: str) -> bool:
    try:
        return abs(int(text)) <= MAX_TRIALS
    except ValueError:
        return True


@st.composite
def documents(draw, rows):
    """A small matrix document: well-formed, broken in one field, or arbitrary bytes."""
    cols = draw(st.integers(1, 3))
    doc = {
        "flavor": draw(st.sampled_from(["max-plus", "min-plus"])),
        "rows": rows,
        "cols": cols,
        "entries": draw(st.lists(rationals | st.integers(-5, 5), min_size=rows * cols, max_size=rows * cols)),
        "role": draw(st.sampled_from(["matrix", "generators-as-columns"])),
    }
    kind = draw(st.sampled_from(["good", "good", "good", "field", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(
            st.one_of(junk, st.integers(-2, 4), st.none(), st.lists(rationals, max_size=3), st.floats(-2, 2))
        )
    return json.dumps(doc).encode()


@st.composite
def command_lines(draw, name, workdir):
    """A document, and ``name`` with a drawn subset of its flags in any order.

    Required flags are left out one time in eight, optional ones half the
    time.  A value is mostly of the flag's kind; else it is junk, or for a
    path a directory or a missing file.  Every path is inside ``workdir``.
    """
    rows = draw(st.integers(1, 3))
    doc_path = str(workdir / "doc.json")
    values = {
        "--i": st.integers(-4, 4).map(str),
        "--file": st.just(doc_path),
        "--other": st.just(doc_path),
        "--emit-csv": st.just(str(workdir / "points.csv")),
        "--flavor": st.sampled_from(["max-plus", "min-plus"]),
        "--trials": st.integers(-2, MAX_TRIALS).map(str),
        "--seed": st.integers(-5, 10**20).map(str),
        "--max-violations": st.integers(-1, 3).map(str),
    }
    bad_path = st.just(str(workdir)) | junk.map(lambda s: str(workdir / f"j{s}"))
    argv = [name]
    for spec in draw(st.permutations(CLI_SURFACE[name].split())):
        flag = spec.rstrip("!")
        if not draw(st.sampled_from([True] * 7 + [False]) if spec.endswith("!") else st.booleans()):
            continue
        if flag in ("--verbose", "--assert"):
            argv.append(flag)
            continue
        bad = bad_path if flag in ("--file", "--other", "--emit-csv") else rationals | junk
        value = draw(bad if draw(st.sampled_from([False] * 5 + [True])) else values.get(flag, vectors(rows)))
        if flag == "--trials":
            assume(_not_many_trials(value))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return draw(documents(rows)), argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(CLI_SURFACE))
def test_subcommand_exits_cleanly_on_any_flags(workdir, name):
    @settings(max_examples=40)
    @given(command_lines(name, workdir))
    def check(case):
        document, argv = case
        (workdir / "doc.json").write_bytes(document)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)  # an exception escaping here fails the test
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        if code == 0:
            json.loads(out.getvalue())

    check()
