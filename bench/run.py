#!/usr/bin/env python3
"""The tropgeo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload large-classify --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  The line before it is a ``{"report": ...}`` object with the run's
metadata, tail percentiles, error and mismatch counts and result digest.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import marshal
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_digests.json"

DEFAULT_SEED = 0  # the seed whose result digests are checked in
SETUP_REPS = 3  # setup_s is the median of this many set-ups
MIN_SAMPLES = 22  # fewest samples with a percentile above the median that has 10 samples beyond it
HARD_CAP_S = 110.0  # the measuring loop ends here even when a family is short of samples
CALIBRATION_S = 2.0  # untraced stretch timed again traced, for the tracing overhead
SWEEP_MIN_S = 0.5  # each sweep size repeats its operations for at least this long
PROBE_REPS = 5
CLI_TIMEOUT_S = 60
YARDSTICK_EVERY_S = 0.2  # how often the loop times a yardstick (see Speed) between operations
FAMILIES = ("classify_polytrope", "classify_nonpolytrope", "reduce", "sample", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("large-classify", "small-sampler", "cli"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrink every input, for the benchmark's own test")
    p.add_argument(
        "--write-reference",
        action="store_true",
        help=f"record this run's result digests as the reference for seed {DEFAULT_SEED}",
    )
    return p.parse_args(argv)


# ---------------------------------------------------------------- running one operation


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class CliFailure(Exception):
    pass


def run_cli(argv: list, inproc: bool) -> str:
    """``tropgeo <argv>``: a subprocess, or ``tropgeo.cli.run`` in this process."""
    if inproc:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = sys.modules["tropgeo.cli"].run(argv)
        text = out.getvalue()
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "tropgeo.cli", *argv],
            capture_output=True,
            env=cli_env(),
            cwd=ROOT,
            timeout=CLI_TIMEOUT_S,
        )
        code, text = proc.returncode, proc.stdout.decode("utf-8")
    if code != 0:
        raise CliFailure(f"tropgeo {argv[0]} exited {code}")
    return text


def run_op(op, inproc: bool):
    return op.call() if op.call is not None else run_cli(op.argv, inproc)


def digest(obj) -> str:
    data = obj.encode() if isinstance(obj, str) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- measuring


def startup_yardstick() -> None:
    """Unmarshal and compile a fixed source: the kind of work interpreter start-up does."""
    for _ in range(3):
        marshal.loads(_STARTUP_CODE)
    compile(_STARTUP_SOURCE, "yardstick", "exec")


_STARTUP_SOURCE = (BENCH / "workloads.py").read_text()
_STARTUP_CODE = marshal.dumps(compile(_STARTUP_SOURCE, "yardstick", "exec"))


class Speed:
    """Times of a fixed kernel that uses no tropgeo code, taken between operations.

    The machine's speed drifts by up to 2x over tens of seconds, in CPU time
    as well as wall time, and not alike for all code.  Scaling each timing
    by the recent time of a kernel like it turns it into a time at one
    nominal speed, so that runs made at different moments compare.
    ``oracle.yardstick`` (exact arithmetic) stands for library calls,
    ``startup_yardstick`` for CLI subprocesses.
    """

    def __init__(self, kernel, nominal_s: float):
        self.kernel, self.nominal_s = kernel, nominal_s
        self.times: list = []
        self.last = float("-inf")

    def sample(self) -> None:
        t = perf_counter()
        self.kernel()
        self.last = perf_counter()
        self.times.append(self.last - t)

    def sample_if_due(self) -> None:
        if perf_counter() - self.last >= YARDSTICK_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor from a time measured now to one at the nominal speed."""
        return self.nominal_s / statistics.median(self.times[-5:])

    def summary(self) -> dict:
        return {"ms_p50": statistics.median(self.times) * 1e3 if self.times else None, "samples": len(self.times)}


def speeds() -> dict:
    import oracle

    return {"library": Speed(oracle.yardstick, 0.003), "process": Speed(startup_yardstick, 0.006)}


class Outcome:
    def __init__(self):
        self.samples = defaultdict(list)  # family -> seconds per op, at the nominal speed
        self.raw = defaultdict(list)  # family -> seconds per op, as measured
        self.speed = speeds()
        self.trials = 0
        self.sample_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.first: dict = {}  # op key -> digest of its first result
        self.problems: list = []  # failed independent checks
        self.unstable: set = set()  # keys whose repeats gave another result
        self.elapsed = 0.0


def measure(cycle: list, seconds: float, inproc: bool, tracer=None) -> Outcome:
    """Closed loop over whole cycles for at least ``seconds``.

    Whole cycles keep the mix of inputs the same from run to run, and give
    every key a result.  The loop also goes on until each family has
    ``MIN_SAMPLES`` samples.  ``HARD_CAP_S`` ends it in any case.
    """
    r = Outcome()
    families = {k for op in cycle for k in op.kinds}
    n = len(cycle)
    i = 0
    start = perf_counter()
    while True:
        now = perf_counter() - start
        enough = all(len(r.samples[k]) >= MIN_SAMPLES for k in families)
        if i >= n and (now >= HARD_CAP_S or (i % n == 0 and now >= seconds and enough)):
            break
        op = cycle[i % n]
        speed = r.speed["process" if op.argv and not inproc else "library"]
        speed.sample_if_due()
        if tracer is not None:
            tracer.begin_op(phase="workload", cls=op.cls, first=i < n, command=op.command)
        t = perf_counter()
        try:
            result = run_op(op, inproc)
        except Exception as e:  # a failing op is counted, and the run goes on
            result, error = None, e
        else:
            error = None
        dt = perf_counter() - t
        i += 1
        r.attempted += 1
        if error is not None:
            r.failed += 1
            if len(r.errors) < 5:
                r.errors.append(f"{op.key}: {type(error).__name__}: {error}")
            continue
        scaled = dt * speed.scale()
        for k in op.kinds:
            r.samples[k].append(scaled)
            r.raw[k].append(dt)
        if "sample" in op.kinds:
            r.trials += op.trials
            r.sample_s += scaled
        d = digest(op.canon(result))
        if op.key not in r.first:
            r.first[op.key] = d
            r.problems += check(op, result)
        elif r.first[op.key] != d:
            r.unstable.add(op.key)
    r.elapsed = perf_counter() - start
    return r


def p50_and_tail(xs: list):
    """Median, and the highest percentile with at least 10 samples beyond it.

    Returns ``(p50, tail, percentile, n)``; with fewer than ``MIN_SAMPLES``
    samples no such percentile lies above the median, and the tail is the
    maximum (percentile 100).
    """
    xs = sorted(xs)
    n = len(xs)
    if n >= MIN_SAMPLES:
        k = n - 11
        return statistics.median(xs), xs[k], 100.0 * k / (n - 1), n
    return statistics.median(xs), xs[-1], 100.0, n


# ---------------------------------------------------------------- exactness


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def check(op, result) -> list:
    """The op's independent checks on a result, as problem lines."""
    try:
        found = op.check(result)
    except Exception as e:  # a malformed result fails its check
        found = [f"check raised {type(e).__name__}: {e}"]
    return [f"{op.key}: {p}" for p in found]


def verify(r: Outcome, reference: dict) -> list:
    """Problems found: independent checks, unstable repeats, reference digests."""
    problems = list(r.problems)
    problems += [f"{key}: repeated call gave another result" for key in sorted(r.unstable)]
    for key, want in sorted(reference.items()):
        got = r.first.get(key)
        if got is None:
            problems.append(f"{key}: no result to compare with the reference")
        elif got != want:
            problems.append(f"{key}: digest differs from the reference")
    return problems


def workload_digest(r: Outcome) -> str:
    return digest("\n".join(f"{k} {v}" for k, v in sorted(r.first.items())))


# ---------------------------------------------------------------- metadata


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
        "load_model": "one process, one thread, closed loop; CLI calls one subprocess at a time",
    }


# ---------------------------------------------------------------- end-to-end run


def end_to_end(workload: str, r: Outcome, setup_s: float) -> tuple:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    tails, raw = {}, {}
    for fam in FAMILIES:
        p50, tail, pct, n = p50_and_tail(r.samples[fam])
        metrics[f"{fam}_ms_p50"] = (p50 * 1e3, "ms")
        metrics[f"{fam}_ms_tail"] = (tail * 1e3, "ms")
        tails[f"{fam}_ms_tail"] = {"percentile": round(pct, 1), "samples": n}
        p50, tail, _, _ = p50_and_tail(r.raw[fam])
        raw[f"{fam}_ms_p50"], raw[f"{fam}_ms_tail"] = p50 * 1e3, tail * 1e3
    metrics["trials_per_s"] = (r.trials / r.sample_s if r.sample_s else 0.0, "1/s")
    yardsticks = {name: s.summary() for name, s in r.speed.items()}
    return metrics, {"tails": tails, "unscaled": raw, "yardsticks": yardsticks}


# ---------------------------------------------------------------- traced run


def tracing_overhead(cycle: list) -> tuple:
    """(ops, untraced s, traced s) for the first ``CALIBRATION_S`` of the cycle.

    Each op runs untraced and traced back to back, in alternating order, so
    that drift in the machine's speed cancels out of the difference.  The
    spans go to a scratch tracer.
    """
    from spans import Tracer

    scratch = Tracer()
    times = {False: 0.0, True: 0.0}
    k = 0
    while k < len(cycle) and (k == 0 or times[False] < CALIBRATION_S):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            restore = scratch.install() if traced else (lambda: None)
            try:
                t = perf_counter()
                run_op(cycle[k], inproc=True)
                times[traced] += perf_counter() - t
            finally:
                restore()
        k += 1
    return k, times[False], times[True]


def sweep(tracer, seed: int) -> list:
    """classify and reduce at each sweep size, traced; returns check problems."""
    import workloads as w

    rng = random.Random(f"tropgeo-bench:sweep:{seed}")
    problems = []
    for n, m in w.SWEEP_SIZES:
        size = f"{n}x{m}"
        poly = w.make_instance(rng, f"sweep-poly-{size}", "polytrope", n, m, w.LARGE_BOUNDS)
        non = w.make_instance(rng, f"sweep-non-{size}", "nonpolytrope", n, m, w.LARGE_BOUNDS)
        ops = [w.classify_op(poly), w.classify_op(non), w.reduce_op(non)]
        start, reps = perf_counter(), 0
        while reps == 0 or (perf_counter() - start < SWEEP_MIN_S and reps < 50):
            for op in ops:
                tracer.begin_op(phase="sweep", size=size, cls=op.cls)
                result = op.call()
                if reps == 0:
                    problems += check(op, result)
            reps += 1
    return problems


def probes(tracer, seed: int, workdir: Path, smoke: bool) -> dict:
    """Layer figures that do not depend on the workload: docio, CLI start-up, CLI handlers."""
    import workloads as w
    from spans import SpanView, median

    rng = random.Random(f"tropgeo-bench:probe:{seed}")
    docs, big, big_y = w.cli_documents(rng, workdir, smoke)
    text = Path(big.doc).read_text()
    docio = sys.modules["tropgeo.docio"]
    for _ in range(PROBE_REPS):
        tracer.begin_op(phase="probe", command="docio")
        docio.serialize_matrix_document(docio.parse_matrix_document(text))

    p, q, mp = docs[(8, "polytrope", 0)], docs[(8, "nonpolytrope", 0)], docs[(8, "minplus", 0)]
    y = w.oracle.random_member(rng, p.gens, *w.CLI_BOUNDS)
    commands = {
        "classify": w.cli_op(p, "classify", ()),
        "convex-check": w.cli_op(q, "convex-check", ()),
        "dominator": w.cli_op(p, "dominator", ()),
        "dominator-dual": w.cli_op(mp, "dominator-dual", ()),
        "hull-min": w.cli_op(q, "hull-min", ()),
        "reduce": w.cli_op(q, "reduce", ()),
        "member": w.cli_op(p, "member", (), y=y),
        "sample-midpoints": w.cli_op(q, "sample-midpoints", (), trials=w.CLI_SAMPLER_TRIALS),
        "member.96x120": w.cli_op(big, "member", (), y=big_y),
        "project.96x120": w.cli_op(big, "project", ()),
    }
    for name, op in commands.items():
        for _ in range(3):
            tracer.begin_op(phase="probe", command=name)
            run_cli(op.argv, inproc=True)

    interp, imports = [], []
    for _ in range(PROBE_REPS):
        for argv, into in ((["-c", "pass"], interp), (["-c", "import tropgeo.cli"], imports)):
            t = perf_counter()
            subprocess.run([sys.executable, *argv], env=cli_env(), cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)
            into.append(perf_counter() - t)

    v = SpanView(tracer)
    parse = median(v.dur_ms(i) for i in v.select("docio.parse", phase="probe", command="docio"))
    entries = big.document()["rows"] * big.document()["cols"]
    out = {
        "docio.parse.ms": (parse, "ms"),
        "docio.parse.entries_per_s": (entries / (parse / 1e3) if parse else 0.0, "1/s"),
        "docio.serialize.ms": (
            median(v.dur_ms(i) for i in v.select("docio.serialize", phase="probe", command="docio")),
            "ms",
        ),
        "cli.interpreter_ms": (statistics.median(interp) * 1e3, "ms"),
        "cli.import_ms": ((statistics.median(imports) - statistics.median(interp)) * 1e3, "ms"),
    }
    for name in commands:
        sel = v.select("cli.run", phase="probe", command=name)
        out[f"cli.run_inproc_ms.{name}"] = (median(v.dur_ms(i) for i in sel), "ms")
    return out


def traced_run(args, wl, workdir: Path) -> tuple:
    import workloads as w
    from spans import SpanView, Tracer, moves, sweep_metrics, workload_metrics

    k, untraced_s, traced_s = tracing_overhead(wl.cycle)
    tracer = Tracer()
    restore = tracer.install()
    try:
        r = measure(wl.cycle, args.seconds, inproc=True, tracer=tracer)
        extra_problems = sweep(tracer, args.seed)
        probe = probes(tracer, args.seed, workdir, args.smoke)
    finally:
        restore()
    v = SpanView(tracer)
    metrics = workload_metrics(v)
    for n, m in w.SWEEP_SIZES:
        metrics.update(sweep_metrics(v, f"{n}x{m}"))
    metrics.update(probe)
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) / k * 1e3, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    spans_file = OUT / f"spans-{args.workload}.jsonl"
    tracer.write(spans_file)
    extra = {
        "tracing_overhead": {"ops": k, "untraced_s": untraced_s, "traced_s": traced_s},
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "moves": {name: moves(name) for name in metrics},
    }
    return r, metrics, extra, extra_problems


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tropgeo" / "__init__.py").is_file():
        print(f"error: no tropgeo sources under {SRC}; run from the root of a tropgeo checkout", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != DEFAULT_SEED or args.smoke):
        print(f"error: --write-reference needs --seed {DEFAULT_SEED} and no --smoke", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every CLI subprocess it starts, so that
        # the yardstick times the CPU the measured code runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    t = perf_counter()
    import tropgeo  # noqa: F401
    import tropgeo.cli  # noqa: F401

    import_s = perf_counter() - t
    import workloads

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_speed = speeds()["library"]
    try:
        setup_times, scaled = [], []
        for rep in range(SETUP_REPS):
            for _ in range(5):
                setup_speed.sample()
            if rep == 0:
                import_scaled = import_s * setup_speed.scale()
            rep_dir = workdir / f"setup{rep}"
            rep_dir.mkdir()
            t = perf_counter()
            wl = workloads.build(args.workload, args.seed, rep_dir, args.smoke)
            for op in wl.warmup:
                run_op(op, inproc=bool(args.trace))
            setup_times.append(perf_counter() - t)
            scaled.append(setup_times[-1] * setup_speed.scale())
        setup_s = import_scaled + statistics.median(scaled)

        if args.trace:
            r, metrics, extra, problems = traced_run(args, wl, workdir)
        else:
            r = measure(wl.cycle, args.seconds, inproc=False)
            metrics, extra = end_to_end(args.workload, r, setup_s)
            problems = []

        reference = {} if args.smoke or args.seed != DEFAULT_SEED else load_reference(args.workload)
        problems = verify(r, reference) + problems
        if args.write_reference:
            table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
            table[args.workload] = dict(sorted(r.first.items()))
            REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = metadata(args)
    report.update(
        {
            "import_s": import_s,
            "setup_reps_s": setup_times,
            "measured_s": r.elapsed,
            "samples": {fam: len(r.samples[fam]) for fam in FAMILIES},
            "attempted": r.attempted,
            "failed": r.failed,
            "error_rate": r.failed / r.attempted,
            "errors": r.errors,
            "mismatches": len(problems),
            "mismatch_details": problems[:10],
            "results": len(r.first),
            "digest": workload_digest(r),
            "reference": "checked" if reference else "none for this seed; compare the digest between commits",
            **extra,
        }
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": r.attempted,
                "failed": r.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
