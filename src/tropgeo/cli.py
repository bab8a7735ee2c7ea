"""Command-line front end: one subcommand per polytope-level operation.

Results go to stdout as JSON (bare booleans and integers stay bare; other
rationals and vectors are JSON strings like ``"1/2"`` and ``"(0,-1)"``;
matrices are full matrix documents that can be written to a file and fed
straight back into another subcommand).  ``--verbose`` adds a human summary
on stderr.  Exit codes: 0 success (whatever the computed answer), 1 input or
parse error, 2 dimension or precondition error, 3 failed ``--assert``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .core import (
    DimensionError,
    Flavor,
    FlavorError,
    PreconditionError,
    TropVector,
)
from .docio import (
    ROLE_GENERATORS,
    ROLE_MATRIX,
    DocumentError,
    MatrixDocument,
    format_rational,
    format_vector,
    parse_matrix_document,
    parse_vector,
    serialize_matrix_document,
)
from .kleene import (
    classify,
    dominator,
    dominator_dual,
    duality_chi,
    duality_rho,
    is_kleene_star,
    min_plus_hull,
    verify_dominator_relation,
)
from .polytope import projectivise, polytope_equal, reduce_generators, sample_euclidean_midpoints
from .residuation import (
    Polytope,
    bracket,
    dominates_at,
    dominates_polytope_at,
    member,
    principal_projection,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_ASSERT = 3

DEFAULT_SEED = 0
SEED_ENV_VAR = "TROPGEO_SEED"


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep exit codes ours
        raise CliUsageError(message)


def _scalar_json(value: Fraction):
    """Integers as JSON numbers, other rationals as exact strings."""
    return int(value) if value.denominator == 1 else format_rational(value)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _note(args, message: str) -> None:
    if getattr(args, "verbose", False):
        print(message, file=sys.stderr)


def _load_document(path: str) -> MatrixDocument:
    with open(path, "rb") as fh:
        return parse_matrix_document(fh.read())


def _load_polytope(path: str, require: Optional[Flavor] = None) -> Polytope:
    p = _load_document(path).to_polytope()
    if require is not None and p.flavor is not require:
        raise FlavorError(f"{path}: expected a {require.value} polytope, got {p.flavor.value}")
    return p


def _vector(text: str, flag: str) -> TropVector:
    return parse_vector(text, f"--{flag}")


def _result(args, payload, ok: bool) -> int:
    _emit(payload)
    if getattr(args, "assert_", False) and not ok:
        return EXIT_ASSERT
    return EXIT_OK


def _bool_result(args, value: bool) -> int:
    return _result(args, value, value)


def _cmd_bracket(args) -> int:
    x = _vector(args.x, "x")
    y = _vector(args.y, "y")
    value = bracket(x, y)
    _note(args, f"bracket{format_vector(x)}|{format_vector(y)} = {format_rational(value)}")
    _emit(_scalar_json(value))
    return EXIT_OK


def _cmd_dominates(args) -> int:
    x = _vector(args.x, "x")
    if (args.y is None) == (args.file is None):
        raise CliUsageError("dominates needs exactly one of --y or --file")
    if args.y is not None:
        result = dominates_at(x, _vector(args.y, "y"), args.i)
    else:
        result = dominates_polytope_at(x, _load_polytope(args.file), args.i)
    _note(args, f"dominates at position {args.i}: {result}")
    return _bool_result(args, result)


def _cmd_member(args) -> int:
    p = _load_polytope(args.file)
    y = _vector(args.y, "y")
    projection = principal_projection(p, y)
    inside = projection == y
    _note(args, f"member: {inside}; projection = {format_vector(projection)}")
    return _result(args, {"member": inside, "projection": format_vector(projection)}, inside)


def _cmd_reduce(args) -> int:
    p = _load_polytope(args.file)
    reduced = reduce_generators(p)
    _note(args, f"kept {reduced.n_generators} of {p.n_generators} generators")
    doc = MatrixDocument.from_matrix(reduced.generators, reduced.flavor, ROLE_GENERATORS)
    print(serialize_matrix_document(doc), end="")
    return EXIT_OK


def _cmd_project(args) -> int:
    if (args.x is None) == (args.file is None):
        raise CliUsageError("project needs exactly one of --x or --file")
    if args.x is not None:
        point = projectivise(_vector(args.x, "x"))
        _emit(format_vector(point.coords))
        return EXIT_OK
    p = _load_polytope(args.file)
    points = [projectivise(g).coords for g in p]
    if args.emit_csv:
        _write_points_csv(args.emit_csv, points)
        _note(args, f"wrote {len(points)} points to {args.emit_csv}")
    _emit({"points": [format_vector(pt) for pt in points]})
    return EXIT_OK


def _write_points_csv(path: str, points: list[TropVector]) -> None:
    dim = len(points[0])
    if dim == 2:
        header = ["x", "y"]
    elif dim == 1:
        header = ["x"]
    else:
        header = [f"x{i}" for i in range(1, dim + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pt in points:
            writer.writerow([format_rational(e) for e in pt])


def _cmd_equal(args) -> int:
    p = _load_polytope(args.file)
    q = _load_polytope(args.other)
    result = polytope_equal(p, q)
    _note(args, f"equal: {result}")
    return _bool_result(args, result)


def _cmd_star_check(args) -> int:
    doc = _load_document(args.file)
    flavor = Flavor(args.flavor) if args.flavor else doc.flavor
    result = is_kleene_star(flavor, doc.to_matrix())
    _note(args, f"{flavor.value} Kleene star: {result}")
    return _bool_result(args, result)


def _cmd_dominator(args) -> int:
    star = args.star(_load_polytope(args.file, require=args.require))
    print(serialize_matrix_document(MatrixDocument.from_matrix(star.matrix, star.flavor, ROLE_MATRIX)), end="")
    return EXIT_OK


def _cmd_hull_min(args) -> int:
    hull = min_plus_hull(_load_polytope(args.file, require=Flavor.MAX_PLUS))
    doc = MatrixDocument.from_matrix(hull.generators, hull.flavor, ROLE_GENERATORS)
    print(serialize_matrix_document(doc), end="")
    return EXIT_OK


def _cmd_convex_check(args) -> int:
    result = classify(_load_polytope(args.file, require=Flavor.MAX_PLUS))
    _note(args, f"min-plus convex: {result.is_min_plus_convex}")
    return _bool_result(args, result.is_min_plus_convex)


def _cmd_classify(args) -> int:
    result = classify(_load_polytope(args.file, require=Flavor.MAX_PLUS))
    star_doc = MatrixDocument.from_matrix(result.dominator.matrix, Flavor.MAX_PLUS, ROLE_MATRIX)
    _note(args, f"polytrope: {result.is_polytrope}")
    return _result(
        args,
        {
            "is_polytrope": result.is_polytrope,
            "is_min_plus_convex": result.is_min_plus_convex,
            "witness": None if result.witness is None else format_vector(result.witness),
            "dominator": star_doc.to_json_obj(),
        },
        result.is_polytrope,
    )


def _cmd_dual_rho(args) -> int:
    doc = _load_document(args.file)
    result = duality_rho(doc.to_matrix(), _vector(args.r, "r"))
    _emit(format_vector(result))
    return EXIT_OK


def _cmd_dual_chi(args) -> int:
    doc = _load_document(args.file)
    result = duality_chi(doc.to_matrix(), _vector(args.c, "c"))
    _emit(format_vector(result))
    return EXIT_OK


def _cmd_dom_relation(args) -> int:
    result = verify_dominator_relation(_load_polytope(args.file, require=Flavor.MAX_PLUS))
    _note(args, f"dual dominator equals negated transpose: {result}")
    return _bool_result(args, result)


def _cmd_sample_midpoints(args) -> int:
    p = _load_polytope(args.file)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="tropgeo", description="Exact tropical convexity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str, boolean: bool = False) -> _Parser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--verbose", action="store_true", help="human summary on stderr")
        if boolean:
            p.add_argument(
                "--assert", dest="assert_", action="store_true",
                help="exit 3 when the computed boolean is false",
            )
        return p

    p = add("bracket", _cmd_bracket, "residuation bracket of two vectors")
    p.add_argument("--x", required=True, help="comma-separated rationals")
    p.add_argument("--y", required=True, help="comma-separated rationals")

    p = add("dominates", _cmd_dominates, "domination at a position", boolean=True)
    p.add_argument("--x", required=True)
    p.add_argument("--i", required=True, type=int, help="0-based position")
    p.add_argument("--y", help="single vector to test")
    p.add_argument("--file", help="polytope file: test all generators")

    p = add("member", _cmd_member, "span membership via principal projection", boolean=True)
    p.add_argument("--file", required=True)
    p.add_argument("--y", required=True)

    p = add("reduce", _cmd_reduce, "drop redundant generators")
    p.add_argument("--file", required=True)

    p = add("project", _cmd_project, "projectivise a vector or all generators")
    p.add_argument("--x", help="single vector")
    p.add_argument("--file", help="polytope file: projectivise every generator")
    p.add_argument("--emit-csv", help="also write the points as CSV to this path")

    p = add("equal", _cmd_equal, "extensional polytope equality", boolean=True)
    p.add_argument("--file", required=True)
    p.add_argument("--other", required=True)

    p = add("star-check", _cmd_star_check, "is the matrix a Kleene star?", boolean=True)
    p.add_argument("--file", required=True)
    p.add_argument("--flavor", choices=[f.value for f in Flavor], help="override the file's flavor")

    p = add("dominator", _cmd_dominator, "dominator matrix of a max-plus polytope")
    p.set_defaults(star=dominator, require=Flavor.MAX_PLUS)
    p.add_argument("--file", required=True)

    p = add("dominator-dual", _cmd_dominator, "dual dominator of a min-plus polytope")
    p.set_defaults(star=dominator_dual, require=Flavor.MIN_PLUS)
    p.add_argument("--file", required=True)

    p = add("hull-min", _cmd_hull_min, "min-plus hull of a max-plus polytope")
    p.add_argument("--file", required=True)

    p = add("convex-check", _cmd_convex_check, "is the max-plus polytope min-plus convex?", boolean=True)
    p.add_argument("--file", required=True)

    p = add("classify", _cmd_classify, "polytrope decision with dominator and witness", boolean=True)
    p.add_argument("--file", required=True)

    p = add("dual-rho", _cmd_dual_rho, "row-space to column-space duality map")
    p.add_argument("--file", required=True)
    p.add_argument("--r", required=True, help="row-space member")

    p = add("dual-chi", _cmd_dual_chi, "column-space to row-space duality map")
    p.add_argument("--file", required=True)
    p.add_argument("--c", required=True, help="column-space member")

    p = add("dom-relation", _cmd_dom_relation, "dual dominator vs negated transpose", boolean=True)
    p.add_argument("--file", required=True)

    p = add("sample-midpoints", _cmd_sample_midpoints, "randomized Euclidean-convexity falsifier", boolean=True)
    p.add_argument("--file", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, help=f"default: ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    p.add_argument("--max-violations", type=int, help="stop after this many violations")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except CliUsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (DocumentError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (DimensionError, FlavorError, PreconditionError, IndexError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
