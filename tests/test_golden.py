r"""The CLI's byte contract: every case under ``tests/golden/``, run as written.

Each case is one directory ``tests/golden/<case>/`` of plain files:

- ``argv``: one line, the words after ``tropgeo``, split on whitespace;
- the documents the case reads, at paths relative to the case directory;
- ``stdout`` and ``stderr``: the exact bytes the call writes (empty when it
  writes nothing), and ``exit``: its exit code;
- optionally ``why``: one line for the reader, which no runner reads.

A case runs with its directory as the working directory and ``TROPGEO_SEED``
unset.  Every case runs in-process through ``cli.run``, and the first case of
each subcommand (by name) also runs through ``python -m tropgeo.cli``.  CI's
installed-script step runs every case once more with the ``tropgeo`` script.
An ``argv`` holding a quote, ``$``, a backslash, ``*``, ``?`` or ``[`` is
refused, so that the shell's word splitting and ``str.split`` give the same
words.

To add a case, make its directory with ``argv`` and the documents it reads,
then run the CLI there and save what it prints:

    tropgeo $(cat argv) > stdout 2> stderr; echo $? > exit

This module needs neither pytest nor hypothesis, so any Python the package
supports can run it as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tropgeo import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SHELL_CHARACTERS = frozenset("'\"$\\*?[")
SRC = str(Path(cli.__file__).resolve().parents[1])


def words(text: str, where: str) -> list[str]:
    """``text`` split on whitespace, refused if the shell would split or expand it otherwise."""
    found = "".join(sorted(SHELL_CHARACTERS & set(text)))
    if found:
        raise ValueError(f"{where} holds shell characters: {found}")
    return text.split()


def argv_of(case: str) -> list[str]:
    return words((GOLDEN / case / "argv").read_text(), f"{case}/argv")


def expected(case: str) -> tuple[int, bytes, bytes]:
    d = GOLDEN / case
    return int((d / "exit").read_text()), (d / "stdout").read_bytes(), (d / "stderr").read_bytes()


def cases() -> list[str]:
    return sorted(d.name for d in GOLDEN.iterdir() if d.is_dir())


def first_of_each() -> list[str]:
    """The first case, by name, of each subcommand."""
    first = {}
    for case in cases():
        first.setdefault(argv_of(case)[0], case)
    return sorted(first.values())


def run_in_process(case: str) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    cwd, seed = os.getcwd(), os.environ.pop(cli.SEED_ENV_VAR, None)
    try:
        os.chdir(GOLDEN / case)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv_of(case))
    finally:
        os.chdir(cwd)
        if seed is not None:
            os.environ[cli.SEED_ENV_VAR] = seed
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_as_module(case: str) -> tuple[int, bytes, bytes]:
    env = {k: v for k, v in os.environ.items() if k != cli.SEED_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tropgeo.cli", *argv_of(case)], cwd=GOLDEN / case, env=env, capture_output=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def check_case(case: str, run=run_in_process) -> None:
    """Run one case and compare its exit code and the exact bytes of stdout and stderr."""
    got, want = run(case), expected(case)
    assert got == want, f"{case}: (exit, stdout, stderr) is {got!r}, expected {want!r}"


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", cases())
    if "first_case" in metafunc.fixturenames:
        metafunc.parametrize("first_case", first_of_each())


def test_case(case):
    check_case(case)


def test_case_as_module(first_case):
    check_case(first_case, run_as_module)


def test_every_subcommand_has_a_case():
    # argparse has no public way to list the subcommands, so this reads _actions
    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert {argv_of(case)[0] for case in cases()} == set(subparsers.choices)


def test_argv_with_a_shell_character_is_refused():
    for ch in SHELL_CHARACTERS:
        try:
            words(f"bracket --x 0,1{ch} --y 0,0", "argv")
        except ValueError as e:
            assert str(e) == f"argv holds shell characters: {ch}"
        else:
            raise AssertionError(f"{ch!r} was not refused")


if __name__ == "__main__":
    for case in cases():
        test_case(case)
    for case in first_of_each():
        test_case_as_module(case)
    test_every_subcommand_has_a_case()
    test_argv_with_a_shell_character_is_refused()
    print(f"{len(cases())} cases in-process, {len(first_of_each())} through python -m: ok")
