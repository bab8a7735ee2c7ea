import argparse
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropgeo
from tropgeo import Flavor, docio, parse_matrix_document, serialize_matrix_document
import tropgeo.cli as tropgeo_cli
from tropgeo.cli import build_parser, run
from tropgeo.docio import MAX_DOCUMENT_BYTES, MAX_SCALE_BITS, DocumentError, MatrixDocument, parse_vector, format_vector
from tropgeo import vec

from test_golden import check_case, run_as_module

SEGMENT_DOC = {
    "flavor": "max-plus",
    "rows": 3,
    "cols": 2,
    "entries": ["0", "0", "0", "1", "0", "2"],
    "role": "generators-as-columns",
}

# the segment's negation, a min-plus polytope
NEGATED_SEGMENT_DOC = {**SEGMENT_DOC, "flavor": "min-plus", "entries": ["0", "0", "0", "-1", "0", "-2"]}

SWAP_DOC = {
    "flavor": "max-plus",
    "rows": 2,
    "cols": 2,
    "entries": ["0", "1", "1", "0"],
    "role": "matrix",
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocumentParsing:
    def test_direct_field_mapping(self):
        doc = parse_matrix_document(json.dumps(SWAP_DOC).encode())
        m = doc.to_matrix()
        assert (m.n_rows, m.n_cols) == (2, 2)
        assert m.entries == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
        assert doc.flavor is Flavor.MAX_PLUS and doc.role == "matrix"

    def test_entries_normalized_to_lowest_terms(self):
        doc = parse_matrix_document(
            json.dumps({**SWAP_DOC, "entries": ["2/4", "1", "1", "0"]})
        )
        assert doc.entries[0] == Fraction(1, 2)
        assert '"1/2"' in serialize_matrix_document(doc)

    def test_entry_count_mismatch(self):
        with pytest.raises(DocumentError, match="entry count mismatch"):
            parse_matrix_document(json.dumps({**SWAP_DOC, "entries": ["0", "1", "1"]}))

    def test_bad_entry_reports_index(self):
        with pytest.raises(DocumentError, match=r"entries\[2\]"):
            parse_matrix_document(
                json.dumps({**SWAP_DOC, "entries": ["0", "1", "0.5", "0"]})
            )

    def test_zero_denominator(self):
        with pytest.raises(DocumentError, match="zero denominator"):
            parse_matrix_document(json.dumps({**SWAP_DOC, "entries": ["0", "1", "1/0", "0"]}))

    def test_invalid_json_reports_position(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_matrix_document(b"{not json")

    def test_missing_field(self):
        broken = {k: v for k, v in SWAP_DOC.items() if k != "role"}
        with pytest.raises(DocumentError, match="missing field: role"):
            parse_matrix_document(json.dumps(broken))

    def test_bad_flavor_and_role(self):
        with pytest.raises(DocumentError, match="flavor"):
            parse_matrix_document(json.dumps({**SWAP_DOC, "flavor": "maxish"}))
        with pytest.raises(DocumentError, match="role"):
            parse_matrix_document(json.dumps({**SWAP_DOC, "role": "rows"}))

    def test_round_trip_identity(self):
        doc = parse_matrix_document(json.dumps(SEGMENT_DOC))
        assert parse_matrix_document(serialize_matrix_document(doc)) == doc

    def test_integer_entries_accepted(self):
        doc = parse_matrix_document(json.dumps({**SWAP_DOC, "entries": [0, 1, 1, 0]}))
        assert doc.entries == (Fraction(0), Fraction(1), Fraction(1), Fraction(0))

    def test_vector_strings_round_trip(self):
        v = vec(-1, 0, "1/2")
        assert parse_vector(format_vector(v)) == v


def golden(*cases):
    """A test that runs golden cases.

    Each test built this way once checked single ``cli.run`` calls; the cases
    in ``tests/golden/`` now pin their full bytes, and the test keeps its name
    as a pointer to them.
    """

    def test(self):
        for case in cases:
            check_case(case)

    return test


class TestScalarAndBooleanCommands:
    test_bracket_integral_prints_bare = golden("bracket-integral")
    test_bracket_fractional_prints_quoted = golden("bracket-fractional")
    test_bracket_dimension_mismatch_is_exit_2 = golden("bracket-dimension-mismatch")
    test_bad_rational_flag_is_exit_1 = golden("bracket-non-rational")
    test_dominates_vector_mode = golden("dominates-vector-at-0", "dominates-vector-at-1")
    test_dominates_polytope_mode = golden("dominates-polytope-at-0", "dominates-polytope-at-2")
    test_dominates_requires_one_target = golden("dominates-no-target")
    test_dominates_position_out_of_range_is_exit_2 = golden("dominates-position-out-of-range")
    test_assert_flag = golden("dominates-vector-assert")


class TestPolytopeCommands:
    test_member_document = golden("member-segment", "member-segment-assert")
    test_member_accepts_parenthesized_vector = golden("member-parenthesized")
    test_reduce_round_trips = golden("reduce-three")
    test_project_single_vector = golden("project-vector")
    test_project_file_needs_dimension_2 = golden("project-dimension-1")
    test_project_needs_exactly_one_input = golden("project-no-input")
    test_equal = golden("equal-same-set")
    test_equal_across_flavors = golden(
        "equal-cross-flavor", "equal-cross-flavor-assert",
        "equal-cross-flavor-reversed", "equal-cross-flavor-reversed-assert",
    )
    test_star_check_uses_file_flavor_and_override = golden("star-check-file-flavor", "star-check-flavor-override")
    test_star_check_counterexample = golden("star-check-swap", "star-check-swap-assert")
    test_dominator_rejects_min_plus_file = golden("dominator-wrong-flavor", "dominator-dual-wrong-flavor")
    test_dominator_dual = golden("dominator-dual-2x2")
    test_hull_min = golden("hull-min-segment")
    test_convex_check = golden("convex-check-segment")
    test_classify_document = golden("classify-segment", "classify-segment-assert")
    test_classify_polytrope_has_null_witness = golden("classify-null-witness")
    test_dual_maps = golden("dual-rho-swap", "dual-chi-neg")
    test_dom_relation = golden("dom-relation-2x2")
    test_dom_relation_precondition_is_exit_2 = golden("dom-relation-segment")

    @pytest.mark.parametrize(
        "command, flavor, wanted",
        [(c, "min-plus", "max-plus") for c in ("dominator", "hull-min", "convex-check", "classify", "dom-relation")]
        + [("dominator-dual", "max-plus", "min-plus")],
    )
    def test_flavor_guard_is_one_line_exit_2(self, command, flavor, wanted):
        # flavor and wanted name the test; the case holds the document and the message
        check_case(f"{command}-wrong-flavor")

    def test_project_file_and_csv(self, capsys, tmp_path):
        gens = write(tmp_path, "g.json", SEGMENT_DOC)
        csv_path = tmp_path / "pts.csv"
        code, out, _ = cli(capsys, "project", "--file", gens, "--emit-csv", str(csv_path))
        assert code == 0
        assert json.loads(out) == {"points": ["(0,0)", "(1,2)"]}
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1:] == ["0,0", "1,2"]

    @pytest.mark.parametrize(
        "x, header, row", [("1,3", "x", "2"), ("1,2,3", "x,y", "1,2"), ("(0,1/2,-1,3)", "x1,x2,x3", "1/2,-1,3")]
    )
    def test_project_single_vector_and_csv(self, capsys, tmp_path, x, header, row):
        """``--emit-csv`` writes the one projected point, under the header ``--file`` would give it;
        stdout is what the call without ``--emit-csv`` prints."""
        csv_path = tmp_path / "pt.csv"
        code, out, _ = cli(capsys, "project", "--x", x, "--emit-csv", str(csv_path))
        assert (code, out) == cli(capsys, "project", "--x", x)[:2]
        assert csv_path.read_text().splitlines() == [header, row]

    @pytest.mark.parametrize("flavor", ["max-plus", "min-plus"])
    def test_project_file_matches_projectivise_per_generator(self, capsys, tmp_path, flavor):
        """The points are computed on the lattice; the bytes must be those of
        ``e - g[0]`` on each generator g's Fractions."""
        rng = random.Random(5)
        rows, cols = 6, 9
        entries = [f"{rng.randint(-20, 20)}/{rng.choice([1, 2, 3, 7, 10])}" for _ in range(rows * cols)]
        obj = {"flavor": flavor, "rows": rows, "cols": cols, "entries": entries, "role": "generators-as-columns"}
        code, out, _ = cli(capsys, "project", "--file", write(tmp_path, "g.json", obj))
        gens = [[Fraction(entries[i * cols + k]) for i in range(rows)] for k in range(cols)]
        points = [vec(*[e - g[0] for e in g[1:]]) for g in gens]
        assert code == 0
        assert out == json.dumps({"points": [format_vector(pt) for pt in points]}, indent=2) + "\n"

    def test_dominator_output_feeds_star_check(self, capsys, tmp_path):
        gens = write(tmp_path, "g.json", SEGMENT_DOC)
        code, out, _ = cli(capsys, "dominator", "--file", gens)
        assert code == 0
        doc = parse_matrix_document(out)
        assert doc.role == "matrix" and doc.flavor is Flavor.MAX_PLUS
        dom_path = tmp_path / "dom.json"
        dom_path.write_text(out)
        code, out2, _ = cli(capsys, "star-check", "--file", str(dom_path))
        assert code == 0 and out2.strip() == "true"


class TestSampling:
    test_byte_identical_runs = golden("sample-midpoints-seed-9")
    test_assert_no_violations = golden("sample-midpoints-seed-9-assert")
    test_max_violations_stops_early = golden("sample-midpoints-stop-after-1")
    test_trials_above_the_limit_is_exit_1 = golden(
        "sample-midpoints-trials-above-limit", "sample-midpoints-trials-at-limit", "sample-midpoints-trials-0"
    )

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_max_violations_below_one_is_exit_2(self, bound):
        check_case(f"sample-midpoints-stop-after-{bound.replace('-', 'minus-')}")

    def test_env_seed_default_and_override(self, capsys, tmp_path, monkeypatch):
        gens = write(tmp_path, "g.json", SEGMENT_DOC)
        monkeypatch.setenv("TROPGEO_SEED", "77")
        code, out, _ = cli(capsys, "sample-midpoints", "--file", gens, "--trials", "5")
        assert code == 0 and json.loads(out)["seed"] == 77
        code, out, _ = cli(capsys, "sample-midpoints", "--file", gens, "--trials", "5", "--seed", "5")
        assert code == 0 and json.loads(out)["seed"] == 5

    def test_bad_env_seed_is_exit_1(self, capsys, tmp_path, monkeypatch):
        gens = write(tmp_path, "g.json", SEGMENT_DOC)
        monkeypatch.setenv("TROPGEO_SEED", "many")
        code, _, err = cli(capsys, "sample-midpoints", "--file", gens, "--trials", "5")
        assert code == 1 and "TROPGEO_SEED" in err


class TestErrorPaths:
    test_missing_file_is_exit_1 = golden("classify-missing-file")
    test_malformed_json_is_exit_1 = golden("classify-malformed-json")
    test_verbose_writes_summary_to_stderr = golden("bracket-verbose")

    def test_unknown_subcommand_is_exit_1(self, capsys):
        code, _, _ = cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag_is_exit_1(self, capsys):
        code, _, _ = cli(capsys, "bracket", "--x", "0,1")
        assert code == 1

    @pytest.mark.parametrize(
        "entry",
        ['"%s"' % ("9" * 5000), '"1/%s"' % ("7" * 5000), "9" * 5000],
        ids=["string", "denominator", "json-number"],
    )
    def test_over_long_rational_in_document_is_exit_1(self, capsys, tmp_path, entry):
        path = tmp_path / "long.json"
        text = json.dumps({**SEGMENT_DOC, "entries": ["@"] + SEGMENT_DOC["entries"][1:]})
        path.write_text(text.replace('"@"', entry))
        code, out, err = cli(capsys, "classify", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_over_long_rational_in_vector_flag_is_exit_1(self, capsys, flag):
        argv = {"--x": "0,0", "--y": "0,0"}
        argv[flag] = "9" * 5000 + ",0"
        code, _, err = cli(capsys, "bracket", *[t for kv in argv.items() for t in kv])
        assert code == 1 and f"{flag}[0]" in err

    def test_shape_too_large_to_print_is_exit_1(self, capsys, tmp_path):
        # rows * cols has more digits than CPython will convert to a string
        path = write(tmp_path, "huge.json", {**SEGMENT_DOC, "rows": 10**4000, "cols": 10**4000})
        code, out, err = cli(capsys, "classify", "--file", path)
        assert code == 1 and out == ""
        assert err.startswith("error: entry count mismatch: expected 1000") and err.count("\n") == 1

    @pytest.mark.parametrize("extra_bits", [0, 1], ids=["at-limit", "above-limit"])
    def test_common_denominator_above_the_bit_limit_is_exit_1(self, capsys, tmp_path, extra_bits):
        assert MAX_SCALE_BITS == 4096
        # each denominator is far below the limit; only their lcm L reaches it
        three = 3**200
        two = 2 ** (MAX_SCALE_BITS - three.bit_length() + extra_bits)
        assert (two * three).bit_length() == MAX_SCALE_BITS + extra_bits
        entries = [f"1/{two}", f"1/{three}"] + SEGMENT_DOC["entries"][2:]
        path = write(tmp_path, "wide.json", {**SEGMENT_DOC, "entries": entries})
        code, out, err = cli(capsys, "classify", "--file", path)
        if extra_bits:
            assert code == 1 and out == ""
            assert err == f"error: entries: common denominator has more than {MAX_SCALE_BITS} bits\n"
        else:
            assert code == 0 and err == "" and json.loads(out)["is_polytrope"] is False

    @pytest.mark.parametrize("extra_bits", [0, 1], ids=["at-limit", "above-limit"])
    @pytest.mark.parametrize("command, flag", [("member", "--y"), ("bracket", "--x")])
    def test_vector_common_denominator_above_the_bit_limit_is_exit_1(
        self, capsys, tmp_path, command, flag, extra_bits
    ):
        three = 3**200
        two = 2 ** (MAX_SCALE_BITS - three.bit_length() + extra_bits)
        wide = f"1/{two},1/{three},0"
        if command == "member":
            argv = ["member", "--file", write(tmp_path, "seg.json", SEGMENT_DOC), "--y", wide]
            expected = {"member": False, "projection": "(0,0,0)"}
        else:
            argv = ["bracket", "--x", wide, "--y", "0,0,0"]
            expected = f"-1/{three}"
        code, out, err = cli(capsys, *argv)
        if extra_bits:
            assert code == 1 and out == ""
            assert err == f"error: {flag}: common denominator has more than {MAX_SCALE_BITS} bits\n"
        else:
            assert code == 0 and err == "" and json.loads(out) == expected

    @pytest.mark.parametrize("extra_bytes", [0, 1], ids=["at-limit", "above-limit"])
    def test_document_above_the_byte_limit_is_exit_1(self, capsys, tmp_path, extra_bytes):
        assert MAX_DOCUMENT_BYTES == 16 * 2**20
        # a valid document padded with whitespace, which JSON ignores
        text = json.dumps(SEGMENT_DOC).encode()
        path = tmp_path / "padded.json"
        path.write_bytes(text + b" " * (MAX_DOCUMENT_BYTES - len(text) + extra_bytes))
        code, out, err = cli(capsys, "classify", "--file", str(path))
        if extra_bytes:
            assert code == 1 and out == ""
            assert err == f"error: {path}: more than {MAX_DOCUMENT_BYTES} bytes\n"
        else:
            assert code == 0 and err == "" and json.loads(out)["is_polytrope"] is False

    @pytest.mark.parametrize("extra_cols", [0, 1], ids=["at-limit", "above-limit"])
    def test_document_above_the_entry_limit_is_exit_1(self, capsys, tmp_path, monkeypatch, extra_cols):
        assert docio.MAX_ENTRIES == 1_000_000
        monkeypatch.setattr(docio, "MAX_ENTRIES", 6)
        # the 3x2 segment with extra_cols more copies of its first generator
        rows = [SEGMENT_DOC["entries"][2 * i : 2 * i + 2] for i in range(3)]
        entries = [e for row in rows for e in row + row[:1] * extra_cols]
        path = write(tmp_path, "wide.json", {**SEGMENT_DOC, "cols": 2 + extra_cols, "entries": entries})
        code, out, err = cli(capsys, "classify", "--file", path)
        if extra_cols:
            assert code == 1 and out == ""
            assert err == "error: entries: more than 6 entries\n"
        else:
            assert code == 0 and err == "" and json.loads(out)["is_polytrope"] is False

    @pytest.mark.parametrize("over", [0, 1], ids=["at-limit", "above-limit"])
    @pytest.mark.parametrize(
        "argv, limit, what, work",
        [
            pytest.param("classify --file {a}", "MAX_FOLD_DIM", "{a}: dimension", 3, id="classify-dimension"),
            *(
                pytest.param(f"{c} --file {{a}}", "MAX_FOLD_WORK", "{a}: n*n*m", 18, id=c)
                for c in ("classify", "dominator", "hull-min", "convex-check", "sample-midpoints")
            ),
            pytest.param("dominator-dual --file {b}", "MAX_FOLD_WORK", "{b}: n*n*m", 18, id="dominator-dual"),
            pytest.param("dom-relation --file {a}", "MAX_FOLD_WORK", "{a}: n*n*(m+n)", 45, id="dom-relation"),
            pytest.param("reduce --file {a}", "MAX_REDUCE_WORK", "{a}: n*m*m", 12, id="reduce"),
            pytest.param("equal --file {a} --other {a}", "MAX_EQUAL_WORK", "{a}, {a}: n*m*m'", 12, id="equal"),
            pytest.param("equal --file {a} --other {b}", "MAX_FOLD_WORK", "{a}: n*n*m", 18, id="equal-across-flavors"),
            pytest.param(
                "sample-midpoints --file {a} --trials 7", "MAX_SAMPLE_WORK", "{a}: n*m*trials", 42, id="sample-work"
            ),
        ],
    )
    def test_work_above_a_limit_is_exit_1(self, capsys, tmp_path, monkeypatch, argv, limit, what, work, over):
        """Each work limit, lowered to the 3x2 segment's own work, passes it and refuses it one step lower."""
        assert (tropgeo_cli.MAX_FOLD_DIM, tropgeo_cli.MAX_FOLD_WORK) == (1_000, 50_000_000)
        assert (tropgeo_cli.MAX_REDUCE_WORK, tropgeo_cli.MAX_EQUAL_WORK) == (64_000_000, 7_000_000)
        assert tropgeo_cli.MAX_SAMPLE_WORK == 5_000_000
        monkeypatch.setattr(tropgeo_cli, limit, work - over)
        paths = {"a": write(tmp_path, "seg.json", SEGMENT_DOC), "b": write(tmp_path, "neg.json", NEGATED_SEGMENT_DOC)}
        code, out, err = cli(capsys, *argv.format(**paths).split())
        if over:
            assert code == 1 and out == ""
            command = argv.split()[0]
            assert err == f"error: {what.format(**paths)} is {work}: at most {work - 1} for {command}\n"
        else:
            assert code != 1, err  # dom-relation exits 2: the segment has no dual dominator

    def test_deeply_nested_json_is_one_line_exit_1(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        proc = subprocess.run(
            [sys.executable, "-m", "tropgeo.cli", "classify", "--file", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: invalid JSON") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--file=--"],
            ["dominates", "--x", "0,0", "--y", "0,0", "--i=--"],
            ["bracket", "--x=--", "--y", "0,0"],
        ],
        ids=["file", "int", "vector"],
    )
    def test_double_dash_as_flag_value_is_exit_1(self, capsys, argv):
        code, out, err = cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--file", "a\x00b"],
            ["equal", "--file", "segment", "--other", "a\x00b"],
            ["project", "--file", "segment", "--emit-csv", "a\x00b"],
        ],
        ids=["file", "other", "emit-csv"],
    )
    def test_nul_byte_in_a_path_is_exit_1(self, capsys, tmp_path, argv):
        # argv cannot hold a NUL, so only an in-process caller can pass one
        segment = write(tmp_path, "segment.json", SEGMENT_DOC)
        code, out, err = cli(capsys, *[segment if a == "segment" else a for a in argv])
        assert code == 1 and out == ""
        assert err == "error: 'a\\x00b': embedded null byte\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["equal", "--file", "segment", "--other", ""],
            ["equal", "--file", "segment", "--other", "", "--assert"],
            ["project", "--file", "segment", "--emit-csv", ""],
            ["project", "--x", "1,0,0", "--emit-csv", ""],
        ],
        ids=["other", "other-assert", "emit-csv", "x-emit-csv"],
    )
    def test_empty_path_is_exit_1(self, capsys, tmp_path, argv):
        # a golden argv cannot hold an empty word
        segment = write(tmp_path, "segment.json", SEGMENT_DOC)
        code, out, err = cli(capsys, *[segment if a == "segment" else a for a in argv])
        assert (code, out, err) == (1, "", "error: [Errno 2] No such file or directory: ''\n")


# (subcommand, vector flag, the other arguments): every vector flag of every subcommand
VECTOR_FLAG_CASES = [
    ("bracket", "--x", ["--y", "0,0"]),
    ("bracket", "--y", ["--x", "0,0"]),
    ("dominates", "--x", ["--y", "0,0", "--i", "0"]),
    ("dominates", "--y", ["--x", "0,0", "--i", "1"]),
    ("member", "--y", ["--file", "segment"]),
    ("project", "--x", []),
    ("dual-rho", "--r", ["--file", "swap"]),
    ("dual-chi", "--c", ["--file", "swap"]),
]


class TestVectorFlags:
    def test_cases_cover_every_vector_flag(self):
        declared = {
            (name, opt.rstrip("!"))
            for name, spec in CLI_SURFACE.items()
            for opt in spec.split()
            if opt.rstrip("!") in ("--x", "--y", "--r", "--c")
        }
        assert {(name, flag) for name, flag, _ in VECTOR_FLAG_CASES} == declared

    @pytest.mark.parametrize(
        "name,flag,rest", VECTOR_FLAG_CASES, ids=[f"{n}{f}" for n, f, _ in VECTOR_FLAG_CASES]
    )
    def test_negative_first_coordinate_in_every_form(self, capsys, tmp_path, name, flag, rest):
        files = {"segment": SEGMENT_DOC, "swap": SWAP_DOC}
        rest = [write(tmp_path, f"{a}.json", files[a]) if a in files else a for a in rest]
        value = "-1/2,0,1" if name in ("member", "project") else "-1/2,0"
        forms = [
            [flag, value, *rest],
            [*rest, flag, value],
            [f"{flag}={value}", *rest],
            [flag, f"({value})", *rest],
        ]
        results = [cli(capsys, name, *form) for form in forms]
        assert results[0][0] == 0 and results[0][1]
        assert all(r == results[0] for r in results), results

    def test_bare_negative_vector_from_the_command_line(self):
        check_case("bracket-bare-negative", run_as_module)

    def test_flag_in_place_of_a_vector_is_exit_1(self, capsys):
        code, out, err = cli(capsys, "bracket", "--x", "--y", "0,0")
        assert code == 1 and out == "" and err == "error: argument --x: expected one argument\n"

    test_negative_position_is_exit_2 = golden("dominates-negative-position")


def _readme_subcommands():
    """The subcommands README's CLI section lists after "Subcommands:"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Subcommands:", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`([a-z][a-z-]*)`", paragraph)


# Every option string of every subcommand, "!" marking the required ones
# (-h/--help left out).  Pinned so that a rewrite of the parser can neither
# drop nor add a flag.
CLI_SURFACE = {
    "bracket": "--verbose --x! --y!",
    "dominates": "--verbose --assert --x! --i! --y --file",
    "member": "--verbose --assert --file! --y!",
    "reduce": "--verbose --file!",
    "project": "--verbose --x --file --emit-csv",
    "equal": "--verbose --assert --file! --other!",
    "star-check": "--verbose --assert --file! --flavor",
    "dominator": "--verbose --file!",
    "dominator-dual": "--verbose --file!",
    "hull-min": "--verbose --file!",
    "convex-check": "--verbose --assert --file!",
    "classify": "--verbose --assert --file!",
    "dual-rho": "--verbose --file! --r!",
    "dual-chi": "--verbose --file! --c!",
    "dom-relation": "--verbose --assert --file!",
    "sample-midpoints": "--verbose --assert --file! --trials --seed --max-violations",
}


class TestCommandSurface:
    def test_table_covers_readme_subcommands(self):
        assert sorted(_readme_subcommands()) == sorted(CLI_SURFACE)

    def test_subcommands_and_flags_are_unchanged(self):
        parser = build_parser()
        # argparse has no public way to list a parser's options, so this reads _actions
        (subparsers,) = [a for a in parser._actions if a.dest == "command"]
        assert sorted(subparsers.choices) == sorted(CLI_SURFACE)
        for name, spec in CLI_SURFACE.items():
            actions = subparsers.choices[name]._actions
            found = {
                opt + ("!" if a.required else "")
                for a in actions
                for opt in a.option_strings
                if opt not in ("-h", "--help")
            }
            assert found == set(spec.split()), name


class TestHelp:
    @pytest.mark.parametrize("name", [None, *sorted(CLI_SURFACE)])
    def test_help_prints_and_returns_0(self, capsys, name):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if a.dest == "command"]
        expected = (parser if name is None else subparsers.choices[name]).format_help()
        argv = [] if name is None else [name]
        for flag in ("-h", "--help"):
            assert cli(capsys, *argv, flag) == (0, expected, "")


# what each subcommand imports beyond the modules every call loads
BASE_MODULES = {"tropgeo", "tropgeo.core", "tropgeo.residuation", "tropgeo.docio", "tropgeo.cli"}
ADDED_MODULES = {
    "member": set(),
    "classify": {"tropgeo.kleene"},
    "reduce": {"tropgeo.polytope"},  # kleene only for a reduction that computes brackets
    "sample-midpoints": {"tropgeo.kleene", "tropgeo.polytope", "random"},
    "equal": {"tropgeo.polytope"},  # kleene only for polytopes of different flavors
}


def _modules_loaded_by(code: str) -> set[str]:
    """The modules a bare interpreter loads while it runs ``code`` after ``import tropgeo.cli``.

    -I -S: what site preloads cannot hide an import; -B: no .pyc.  ``code`` may
    print to stdout, so the module names go to stderr.
    """
    src = os.path.dirname(os.path.dirname(tropgeo.__file__))
    program = (
        f"import sys; before = set(sys.modules); sys.path.insert(0, {src!r}); import tropgeo.cli\n"
        f"{code}\nprint(*sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", program], capture_output=True, text=True, check=True
    )
    return set(proc.stderr.split())


class TestStartup:
    @pytest.mark.parametrize(
        "argv", [["classify", "--file", "x.json"], [], ["-h"], ["nope"], ["--verbose", "classify"]]
    )
    def test_run_builds_only_the_subparser_it_runs(self, monkeypatch, capsys, argv):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        run(argv)
        # a first argument that names a subcommand builds it alone; any other builds all 16
        assert built == (["classify"] if argv[:1] == ["classify"] else list(CLI_SURFACE))

    def test_import_loads_no_module_the_calls_do_not_need(self):
        loaded = _modules_loaded_by("")
        assert BASE_MODULES <= loaded
        unneeded = {"dataclasses", "inspect", "csv", "typing", "random", "tropgeo.kleene", "tropgeo.polytope"}
        assert loaded.isdisjoint(unneeded), sorted(loaded)

    @pytest.mark.parametrize("command", sorted(ADDED_MODULES))
    def test_subcommand_loads_only_the_modules_it_runs(self, tmp_path, command):
        obj = {**SEGMENT_DOC, "cols": 4, "entries": ["0", "1/2", "-1", "2", "0", "0", "3", "-1", "1", "-2", "0", "1"]}
        argv = [command, "--file", write(tmp_path, "g.json", obj)]
        extra = {"member": ["--y", "0,1,2"], "sample-midpoints": ["--trials", "20"], "equal": ["--other", argv[2]]}
        argv += extra.get(command, [])
        loaded = _modules_loaded_by(f"assert tropgeo.cli.run({argv!r}) == 0")
        ours = {m for m in loaded if m.split(".")[0] == "tropgeo" or m == "random"}
        assert ours == BASE_MODULES | ADDED_MODULES[command]
