"""Smoke test of the benchmark itself, on small inputs (``--smoke``).

    python -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a correct program shows no mismatch and no error, and that the
benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5"]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc: subprocess.CompletedProcess) -> tuple:
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def check_result(report: dict, result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    assert result["correct"] is True and report["mismatches"] == 0, report["mismatch_details"]
    assert result["failed"] == 0 and report["error_rate"] == 0, report["errors"]
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    report, result = parse(bench(workload, 0))
    check_result(report, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(t["samples"] >= 22 and t["percentile"] > 50 for t in report["tails"].values())
    for key in ("python", "nproc", "git_commit", "seed"):
        assert key in report


def test_per_layer_metrics():
    report, result = parse(bench("cli", 1))
    check_result(report, result, SPEC["per_layer"])
    assert set(report["moves"]) == set(result["metrics"])
    assert all(report["moves"][name] for name in result["metrics"])
    assert "untraced_s" in report["tracing_overhead"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
