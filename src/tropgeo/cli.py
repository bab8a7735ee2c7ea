"""Command-line front end: one subcommand per polytope-level operation.

Results go to stdout as JSON (bare booleans and integers stay bare; other
rationals and vectors are JSON strings like ``"1/2"`` and ``"(0,-1)"``;
matrices are full matrix documents that can be written to a file and fed
straight back into another subcommand).  Vector flags (``--x``, ``--y``,
``--r``, ``--c``) take comma-separated rationals, bare or in parentheses, and
the first coordinate may be negative in every form: ``--x -1,0``,
``--x=-1,0`` and ``--x "(-1,0)"`` are the same vector.  ``--verbose`` adds a
human summary on stderr.  Exit codes: 0 success (whatever the computed
answer), 1 input or parse error, 2 dimension or precondition error, 3 failed
``--assert``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .core import (
    DimensionError,
    Flavor,
    FlavorError,
    PreconditionError,
    TropVector,
)
from .docio import (
    MAX_DOCUMENT_BYTES,
    ROLE_GENERATORS,
    ROLE_MATRIX,
    DocumentError,
    MatrixDocument,
    format_rational,
    format_vector,
    parse_matrix_document,
    parse_vector,
)
from .residuation import (
    Polytope,
    bracket,
    dominates_at,
    dominates_polytope_at,
    principal_projection,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_ASSERT = 3

DEFAULT_SEED = 0
SEED_ENV_VAR = "TROPGEO_SEED"
MAX_TRIALS = 100_000  # sample-midpoints: 100,000 trials on a 2x2 polytope take about 2.3 s
# Work limits on n coordinates and m generators, checked before any work starts; set at about
# 10 s on older code with 12-bit L (README "Limits" has today's times; ROADMAP item 5 large L)
MAX_FOLD_DIM = 1_000  # n of a dominator: at 1,000 its document's n^2 entries reach docio.MAX_ENTRIES
MAX_FOLD_WORK = 50_000_000  # n*n*m of a dominator fold
MAX_REDUCE_WORK = 64_000_000  # n*m*m of reduce
MAX_EQUAL_WORK = 7_000_000  # n*m*m' of equal
MAX_SAMPLE_WORK = 5_000_000  # n*m*trials of sample-midpoints: a trial costs about n*m


class CliUsageError(Exception):
    pass


class _HelpShown(Exception):
    """Raised where argparse would sys.exit(0) after printing a help message."""


class _Parser(argparse.ArgumentParser):
    vector_flags: tuple = ()

    def error(self, message):  # argparse would sys.exit(2); keep exit codes ours
        raise CliUsageError(message)

    def exit(self, status=0, message=None):  # only -h/--help reaches this
        raise _HelpShown

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes a bare "-1,0" for an option string; hand it to its vector flag as "--x=-1,0"
        args = list(sys.argv[1:] if args is None else args)
        for k in range(len(args) - 1, 0, -1):
            if args[k - 1] in self.vector_flags and args[k].startswith("-") and args[k][1:2].isdigit():
                args[k - 1 : k + 1] = [f"{args[k - 1]}={args[k]}"]
        namespace, extras = super().parse_known_args(args, namespace)
        # argparse before 3.13 strips "--" from "--file=--" and stores an untyped []; no flag here takes a list
        if any(isinstance(value, list) for value in vars(namespace).values()):
            self.error("'--' is not a flag value")
        return namespace, extras


def _vector_flag(flag: str, text: str) -> TropVector:
    """``type=`` of a vector flag; unlike a ValueError, a CliUsageError is not reworded by argparse."""
    try:
        return parse_vector(text, flag)
    except DocumentError as e:
        raise CliUsageError(e) from None


def _scalar_json(value: Fraction):
    """Integers as JSON numbers, other rationals as exact strings."""
    return int(value) if value.denominator == 1 else format_rational(value)


def _note(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _open(path: str, *args, **kwargs):
    """``open``, with a path it refuses as a value (a NUL byte) reported as an input error."""
    try:
        return open(path, *args, **kwargs)
    except ValueError as e:
        raise CliUsageError(f"{path!r}: {e}") from None


def _load_document(path: str) -> MatrixDocument:
    with _open(path, "rb") as fh:
        text = fh.read(MAX_DOCUMENT_BYTES + 1)
    if len(text) > MAX_DOCUMENT_BYTES:
        raise DocumentError(f"{path}: more than {MAX_DOCUMENT_BYTES} bytes")
    return parse_matrix_document(text)


def _polytope(args, path: str | None = None, fold: bool = False) -> Polytope:
    """The polytope in ``--file`` (or at ``path``), of the flavor the subcommand requires;
    with ``fold``, within the limits on folding its dominator."""
    path = args.file if path is None else path
    p = _load_document(path).to_polytope()
    if args.require is not None and p.flavor is not args.require:
        raise FlavorError(f"{path}: expected a {args.require.value} polytope, got {p.flavor.value}")
    if fold:
        _fold_limits(args, p, path)
    return p


def _at_most(args, what: str, work: int, limit: int) -> None:
    """Refuse an input whose ``work`` is above ``limit``, before the work starts."""
    if work > limit:
        raise CliUsageError(f"{what} is {work}: at most {limit} for {args.command}")


def _fold_limits(args, p: Polytope, path: str) -> None:
    """Refuse p if its dominator fold is above the work limits.  dom-relation also
    folds the n x n presentation of the dominator in the other flavor."""
    n, m = p.ambient_dim, p.n_generators
    _at_most(args, f"{path}: dimension", n, MAX_FOLD_DIM)
    if args.command == "dom-relation":
        _at_most(args, f"{path}: n*n*(m+n)", n * n * (m + n), MAX_FOLD_WORK)
    else:
        _at_most(args, f"{path}: n*n*m", n * n * m, MAX_FOLD_WORK)


def _vector_or_file(args) -> TropVector | None:
    """The ``either`` vector, or None when ``--file`` is given instead."""
    vector = getattr(args, args.either)
    if (vector is None) == (args.file is None):
        raise CliUsageError(f"{args.command} needs exactly one of --{args.either} or --file")
    return vector


def _result(args, payload, ok: bool = True) -> int:
    """Print one JSON result; with ``--assert``, exit 3 when ``ok`` is false."""
    print(json.dumps(payload, indent=2))
    if getattr(args, "assert_", False) and not ok:
        return EXIT_ASSERT
    return EXIT_OK


def _matrix_result(args, result) -> int:
    """Print a polytope as the document of its generators, a Kleene star as that of its matrix."""
    if isinstance(result, Polytope):
        doc = MatrixDocument.from_matrix(result.generators, result.flavor, ROLE_GENERATORS)
    else:
        doc = MatrixDocument.from_matrix(result.matrix, result.flavor, ROLE_MATRIX)
    return _result(args, doc.to_json_obj())


def _cmd_bracket(args) -> int:
    value = bracket(args.x, args.y)
    _note(args, f"bracket{format_vector(args.x)}|{format_vector(args.y)} = {format_rational(value)}")
    return _result(args, _scalar_json(value))


def _cmd_dominates(args) -> int:
    y = _vector_or_file(args)
    if y is not None:
        result = dominates_at(args.x, y, args.i)
    else:
        result = dominates_polytope_at(args.x, _polytope(args), args.i)
    _note(args, f"dominates at position {args.i}: {result}")
    return _result(args, result, result)


def _cmd_member(args) -> int:
    projection = principal_projection(_polytope(args), args.y)
    inside = projection is args.y
    _note(args, f"member: {inside}; projection = {format_vector(projection)}")
    return _result(args, {"member": inside, "projection": format_vector(projection)}, inside)


def _cmd_reduce(args) -> int:
    from .polytope import reduce_generators

    p = _polytope(args)
    _at_most(args, f"{args.file}: n*m*m", p.ambient_dim * p.n_generators**2, MAX_REDUCE_WORK)
    reduced = reduce_generators(p)
    _note(args, f"kept {reduced.n_generators} of {p.n_generators} generators")
    return _matrix_result(args, reduced)


def _cmd_project(args) -> int:
    from .polytope import projectivise, projectivise_generators

    x = _vector_or_file(args)
    points = [projectivise(x)] if x is not None else projectivise_generators(_polytope(args))
    if args.emit_csv is not None:
        _write_points_csv(args.emit_csv, points)
        _note(args, f"wrote {len(points)} points to {args.emit_csv}")
    if x is not None:
        return _result(args, format_vector(points[0]))
    return _result(args, {"points": [format_vector(pt) for pt in points]})


def _write_points_csv(path: str, points: list[TropVector]) -> None:
    import csv  # only --emit-csv needs it, so the other calls skip its import

    dim = len(points[0])
    if dim == 2:
        header = ["x", "y"]
    elif dim == 1:
        header = ["x"]
    else:
        header = [f"x{i}" for i in range(1, dim + 1)]
    with _open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pt in points:
            writer.writerow([format_rational(e) for e in pt])


def _cmd_equal(args) -> int:
    from .polytope import polytope_equal

    p, q = _polytope(args), _polytope(args, args.other)
    work = p.ambient_dim * p.n_generators * q.n_generators
    _at_most(args, f"{args.file}, {args.other}: n*m*m'", work, MAX_EQUAL_WORK)
    if p.flavor is not q.flavor:  # each is folded, to test it for convexity in the other flavor
        _fold_limits(args, p, args.file)
        _fold_limits(args, q, args.other)
    result = polytope_equal(p, q)
    _note(args, f"equal: {result}")
    return _result(args, result, result)


def _cmd_star_check(args) -> int:
    from .kleene import is_kleene_star

    doc = _load_document(args.file)
    flavor = Flavor(args.flavor) if args.flavor else doc.flavor
    result = is_kleene_star(flavor, doc.to_matrix())
    _note(args, f"{flavor.value} Kleene star: {result}")
    return _result(args, result, result)


def _cmd_matrix(args) -> int:
    """dominator, dominator-dual and hull-min: a matrix built from the polytope."""
    from . import kleene

    return _matrix_result(args, getattr(kleene, args.build)(_polytope(args, fold=True)))


def _cmd_decide(args) -> int:
    """convex-check and dom-relation: one boolean about a max-plus polytope."""
    from . import kleene

    result = getattr(kleene, args.decide)(_polytope(args, fold=True))
    _note(args, f"{args.label}: {result}")
    return _result(args, result, result)


def _cmd_classify(args) -> int:
    from .kleene import classify

    result = classify(_polytope(args, fold=True))
    star_doc = MatrixDocument.from_matrix(result.dominator.matrix, result.dominator.flavor, ROLE_MATRIX)
    _note(args, f"polytrope: {result.is_polytrope}")
    return _result(
        args,
        {
            "is_polytrope": result.is_polytrope,
            "is_min_plus_convex": result.is_polytrope,
            "witness": None if result.witness is None else format_vector(result.witness),
            "dominator": star_doc.to_json_obj(),
        },
        result.is_polytrope,
    )


def _cmd_dual_map(args) -> int:
    """dual-rho (of ``--r``) and dual-chi (of ``--c``) on the document's matrix."""
    from . import kleene

    matrix = _load_document(args.file).to_matrix()
    return _result(args, format_vector(getattr(kleene, args.dual_map)(matrix, getattr(args, args.point))))


def _cmd_sample_midpoints(args) -> int:
    from .polytope import sample_euclidean_midpoints

    if args.trials > MAX_TRIALS:
        raise CliUsageError(f"--trials: at most {MAX_TRIALS}, got {args.trials}")
    p = _polytope(args, fold=True)
    _at_most(args, f"{args.file}: n*m*trials", p.ambient_dim * p.n_generators * args.trials, MAX_SAMPLE_WORK)
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            seed = DEFAULT_SEED
        else:
            try:
                seed = int(raw)
            except ValueError:
                raise DocumentError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    report = sample_euclidean_midpoints(p, args.trials, seed, max_violations=args.max_violations)
    _note(args, f"{len(report.violations)} violation(s) in {report.trials} trial(s)")
    return _result(
        args,
        {
            "seed": report.seed,
            "trials": report.trials,
            "violations": [format_vector(z) for z in report.violations],
            "certificates": [
                {"u": format_vector(u), "v": format_vector(v), "t": format_rational(t)}
                for (u, v, t) in report.certificates
            ],
        },
        not report.violations,
    )


def _add_subcommand(
    sub, name, handler, help_, *vectors, file=True, either=None, boolean=False, require=None, flags=None, **defaults
) -> None:
    """Declare one subcommand with the flags it shares with others.

    Each takes ``--verbose``, and ``--assert`` when ``boolean``.  ``vectors``
    are ``(flag, help)`` pairs of vector flags, which argparse parses into
    TropVectors.  ``file`` is True for a required ``--file``, or the help of
    an optional one that stands in for the vector flag named ``either``.  A
    polytope read from ``--file`` must have flavor ``require`` unless it is
    None.  ``flags`` maps each further flag of its own to its ``add_argument``
    keywords.  ``defaults`` tell apart twins that share a handler; a function
    among them is named, and its handler finds it in ``kleene`` when the
    command runs.
    """
    p = sub.add_parser(name, help=help_)
    p.set_defaults(handler=handler, require=require, either=either, **defaults)
    p.add_argument("--verbose", action="store_true", help="human summary on stderr")
    if boolean:
        p.add_argument(
            "--assert", dest="assert_", action="store_true",
            help="exit 3 when the computed boolean is false",
        )
    if file is True:
        p.add_argument("--file", required=True)
    for flag, vector_help in vectors:
        option = f"--{flag}"
        p.vector_flags += (option,)
        vector = functools.partial(_vector_flag, option)
        p.add_argument(option, required=flag != either, type=vector, help=vector_help)
    if isinstance(file, str):
        p.add_argument("--file", help=file)
    for flag, keywords in (flags or {}).items():
        p.add_argument(flag, **keywords)


def build_parser(only: str | None = None) -> _Parser:
    """The parser of every subcommand, or of ``only`` alone if that names one.

    A call runs one subcommand, so ``run`` builds only the one its first
    argument names; any other first argument (none, ``-h``, an unknown name,
    a flag) builds them all, so help and every error message read as they would.
    """
    parser = _Parser(prog="tropgeo", description="Exact tropical convexity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, tuple] = {}

    def add(name, *args, **kwargs):
        commands[name] = args, kwargs

    max_plus = dict(require=Flavor.MAX_PLUS)
    rationals = "comma-separated rationals"
    add(
        "bracket", _cmd_bracket, "residuation bracket of two vectors",
        ("x", rationals), ("y", rationals), file=False,
    )
    add(
        "dominates", _cmd_dominates, "domination at a position", ("x", None), ("y", "single vector to test"),
        either="y", file="polytope file: test all generators", boolean=True,
        flags={"--i": dict(required=True, type=int, help="0-based position")},
    )
    add("member", _cmd_member, "span membership via principal projection", ("y", None), boolean=True)
    add("reduce", _cmd_reduce, "drop redundant generators")
    add(
        "project", _cmd_project, "projectivise a vector or all generators", ("x", "single vector"),
        either="x", file="polytope file: projectivise every generator",
        flags={"--emit-csv": dict(help="also write the points as CSV to this path")},
    )
    add("equal", _cmd_equal, "extensional polytope equality", boolean=True, flags={"--other": dict(required=True)})
    add(
        "star-check", _cmd_star_check, "is the matrix a Kleene star?", boolean=True,
        flags={"--flavor": dict(choices=[f.value for f in Flavor], help="override the file's flavor")},
    )
    add("dominator", _cmd_matrix, "dominator matrix of a max-plus polytope", build="dominator", **max_plus)
    add(
        "dominator-dual", _cmd_matrix, "dual dominator of a min-plus polytope",
        build="dominator", require=Flavor.MIN_PLUS,
    )
    add("hull-min", _cmd_matrix, "min-plus hull of a max-plus polytope", build="min_plus_hull", **max_plus)
    add(
        "convex-check", _cmd_decide, "is the max-plus polytope min-plus convex?", boolean=True,
        decide="is_min_plus_convex", label="min-plus convex", **max_plus,
    )
    add("classify", _cmd_classify, "polytrope decision with dominator and witness", boolean=True, **max_plus)
    add(
        "dual-rho", _cmd_dual_map, "row-space to column-space duality map", ("r", "row-space member"),
        dual_map="duality_rho", point="r",
    )
    add(
        "dual-chi", _cmd_dual_map, "column-space to row-space duality map", ("c", "column-space member"),
        dual_map="duality_chi", point="c",
    )
    add(
        "dom-relation", _cmd_decide, "dual dominator vs negated transpose", boolean=True,
        decide="verify_dominator_relation", label="dual dominator equals negated transpose", **max_plus,
    )
    add(
        "sample-midpoints", _cmd_sample_midpoints, "randomized Euclidean-convexity falsifier", boolean=True,
        flags={
            "--trials": dict(type=int, default=200),
            "--seed": dict(type=int, help=f"default: ${SEED_ENV_VAR} or {DEFAULT_SEED}"),
            "--max-violations": dict(type=int, help="stop after this many violations"),
        },
    )
    for name, (args, kwargs) in commands.items():
        if only not in commands or name == only:
            _add_subcommand(sub, name, *args, **kwargs)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _HelpShown:
        return EXIT_OK
    except (CliUsageError, DocumentError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (DimensionError, FlavorError, PreconditionError, IndexError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
