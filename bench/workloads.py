"""Seeded inputs and operation cycles for the three benchmark workloads.

Every workload is a finite *cycle* of operations that the runner repeats
until its time is up.  Each operation feeds one or more end-to-end metric
families (``classify_polytrope``, ``classify_nonpolytrope``, ``reduce``,
``sample``, ``cli``), carries a stable key (same key, same input, same
expected result), a canonical form of its result for the exactness digest,
and an independent check built on :mod:`oracle`.

Inputs are made from the seed alone, with the reference arithmetic in
:mod:`oracle`, so the program under test only ever sees finished inputs.
The library is reached through module attributes at call time, so that the
traced run's wrappers are the functions actually called.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle

# Entry bounds: |p| <= num and q <= den for entries p/q.
LARGE_BOUNDS = (20, 10)
SMALL_BOUNDS = (8, 4)
CLI_BOUNDS = (20, 10)

SAMPLER_TRIALS = 300
CLI_SAMPLER_TRIALS = 50
PROBE_TRIALS = 20  # sampler calls on 8x10 inputs that keep sample_ms defined on large-classify
SWEEP_SIZES = ((4, 5), (16, 20), (32, 40), (48, 60))


@dataclass
class Instance:
    """One generator set, with its class known by construction."""

    name: str
    cls: str  # "polytrope" | "nonpolytrope" | "minplus" | "random" (max-plus, class not fixed)
    gens: list
    doc: Optional[str] = None  # path of its matrix document, once written
    _dominator: Optional[list] = field(default=None, repr=False)

    @property
    def min_plus(self) -> bool:
        return self.cls == "minplus"

    def dominator(self) -> list:
        if self._dominator is None:
            self._dominator = oracle.dominator_rows(self.gens, self.min_plus)
        return self._dominator

    def polytope(self):
        import tropgeo as tg

        flavor = tg.Flavor.MIN_PLUS if self.min_plus else tg.Flavor.MAX_PLUS
        return tg.Polytope(flavor, tg.TropMatrix(tuple(zip(*self.gens))))

    def document(self) -> dict:
        rows = list(zip(*self.gens))
        return {
            "flavor": "min-plus" if self.min_plus else "max-plus",
            "rows": len(rows),
            "cols": len(self.gens),
            "entries": [str(e) for r in rows for e in r],
            "role": "generators-as-columns",
        }


@dataclass
class Op:
    """One timed call: a library function, or a ``tropgeo`` command line."""

    key: str
    kinds: tuple
    cls: str
    canon: Callable
    check: Callable
    call: Optional[Callable] = None
    argv: Optional[list] = None
    trials: int = 0

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else self.key.split(":")[0]


@dataclass
class Workload:
    name: str
    cycle: list
    warmup: list  # ops run once before timing


# ---------------------------------------------------------------- instances


def make_instance(rng: random.Random, name: str, cls: str, n: int, m: int, bounds) -> Instance:
    num, den = bounds
    if cls == "polytrope":
        gens = oracle.polytrope(rng, n, m, num, den)
    elif cls == "nonpolytrope":
        gens = oracle.non_polytrope(rng, n, m, num, den)
    else:
        gens = [oracle.random_vector(rng, n, num, den) for _ in range(m)]
    return Instance(name, cls, gens)


def write_docs(instances: list, directory: Path) -> None:
    for inst in instances:
        path = directory / f"{inst.name}.json"
        path.write_text(json.dumps(inst.document()))
        inst.doc = str(path)


# ---------------------------------------------------------------- checks


def _rows_text(rows) -> list:
    return [[str(e) for e in r] for r in rows]


def _expect_dominator(inst: Instance, rows, problems: list) -> None:
    rows = [list(r) for r in rows]
    if any(rows[i][i] != 0 for i in range(len(rows))):
        problems.append("dominator has a non-zero diagonal entry")
    if rows != inst.dominator():
        problems.append("dominator differs from V (min*) (-V^T)")


def _expect_decision(inst: Instance, polytrope: bool, witness, problems: list) -> None:
    if inst.cls == "polytrope":
        if polytrope is not True or witness is not None:
            problems.append("polytrope by construction not classified as one")
        return
    failing = oracle.first_failing_column(inst.gens, inst.dominator())
    if polytrope is not False or failing is None or witness != failing[1]:
        problems.append("non-polytrope: decision or witness differs from the reference")


def _expect_reduced(inst: Instance, kept: list, problems: list) -> None:
    it = iter(inst.gens)
    if not all(any(g == k for g in it) for k in kept):
        problems.append("reduced generators are not a subsequence of the input")
        return
    dropped = [g for g in inst.gens if g not in kept]
    if any(not oracle.is_member(kept, g, inst.min_plus) for g in dropped):
        problems.append("a dropped generator is not in the span of the kept ones")


def _expect_sample(inst: Instance, report: list, problems: list) -> None:
    """``report`` is a list of (violation, (u, v, t)) pairs."""
    if inst.cls == "polytrope" and report:
        problems.append("sampler reported a violation on a polytrope")
    for z, (u, v, t) in report:
        if not 0 < t < 1 or oracle.affine(u, v, t) != z:
            problems.append("violation does not re-derive from its (u, v, t) certificate")
        elif oracle.is_member(inst.gens, z, inst.min_plus):
            problems.append("reported violation is a member of the span")


# ---------------------------------------------------------------- library ops


def classify_op(inst: Instance) -> Op:
    p = inst.polytope()

    def call():
        import tropgeo

        return tropgeo.classify(p)

    def canon(r):
        return {
            "polytrope": r.is_polytrope,
            "witness": None if r.witness is None else oracle.fmt_vector(tuple(r.witness)),
            "dominator": _rows_text(r.dominator.matrix.entries),
        }

    def check(r):
        problems: list = []
        _expect_dominator(inst, r.dominator.matrix.entries, problems)
        witness = None if r.witness is None else tuple(r.witness)
        _expect_decision(inst, r.is_polytrope, witness, problems)
        return problems

    return Op(f"classify:{inst.name}", (f"classify_{inst.cls}",), inst.cls, canon, check, call=call)


def reduce_op(inst: Instance) -> Op:
    p = inst.polytope()

    def call():
        import tropgeo

        return tropgeo.reduce_generators(p)

    def canon(r):
        return {"flavor": r.flavor.value, "generators": [oracle.fmt_vector(tuple(g)) for g in r]}

    def check(r):
        problems: list = []
        if r.flavor is not p.flavor:
            problems.append("reduce changed the flavor")
        _expect_reduced(inst, [tuple(g) for g in r], problems)
        return problems

    return Op(f"reduce:{inst.name}", ("reduce",), inst.cls, canon, check, call=call)


def sample_op(inst: Instance, trials: int, seed: int) -> Op:
    p = inst.polytope()

    def call():
        import tropgeo

        return tropgeo.sample_euclidean_midpoints(p, trials=trials, seed=seed)

    def canon(r):
        return {
            "trials": r.trials,
            "violations": [oracle.fmt_vector(tuple(z)) for z in r.violations],
            "certificates": [
                [oracle.fmt_vector(tuple(u)), oracle.fmt_vector(tuple(v)), str(t)]
                for u, v, t in r.certificates
            ],
        }

    def check(r):
        problems: list = []
        if r.trials != trials or len(r.violations) != len(r.certificates):
            problems.append("sampler report has the wrong trial or certificate count")
        pairs = [
            (tuple(z), (tuple(u), tuple(v), t)) for z, (u, v, t) in zip(r.violations, r.certificates)
        ]
        _expect_sample(inst, pairs, problems)
        return problems

    return Op(
        f"sample:{inst.name}:{seed}", ("sample",), inst.cls, canon, check, call=call, trials=trials
    )


# ---------------------------------------------------------------- CLI ops


def _doc_columns(doc: dict) -> list:
    rows, cols = doc["rows"], doc["cols"]
    entries = [Fraction(e) for e in doc["entries"]]
    return [tuple(entries[i * cols + j] for i in range(rows)) for j in range(cols)]


def _doc_rows(doc: dict) -> list:
    return [list(c) for c in zip(*_doc_columns(doc))]


def cli_op(inst: Instance, command: str, kinds: tuple, y=None, trials: int = 0, seed: int = 1) -> Op:
    """``tropgeo <command> --file <inst.doc>``; the result is its stdout text."""
    argv = [command, "--file", inst.doc]
    key = f"cli:{command}:{inst.name}"
    if y is not None:
        argv += ["--y", oracle.fmt_vector(y)]
    if command == "sample-midpoints":
        argv += ["--trials", str(trials), "--seed", str(seed)]
        key += f":{seed}"

    def check(out: str):
        problems: list = []
        obj = json.loads(out)
        if command == "classify":
            _expect_dominator(inst, _doc_rows(obj["dominator"]), problems)
            witness = None if obj["witness"] is None else oracle.parse_vector(obj["witness"])
            _expect_decision(inst, obj["is_polytrope"], witness, problems)
        elif command == "convex-check":
            if obj is not (inst.cls == "polytrope"):
                problems.append("convex-check disagrees with the construction")
        elif command in ("dominator", "dominator-dual", "hull-min"):
            _expect_dominator(inst, _doc_rows(obj), problems)
        elif command == "reduce":
            _expect_reduced(inst, _doc_columns(obj), problems)
        elif command == "member":
            proj = oracle.projection(inst.gens, y, inst.min_plus)
            if obj != {"member": proj == tuple(y), "projection": oracle.fmt_vector(proj)}:
                problems.append("member output differs from the reference projection")
        elif command == "project":
            want = [oracle.fmt_vector(tuple(e - g[0] for e in g[1:])) for g in inst.gens]
            if obj != {"points": want}:
                problems.append("project output differs from the reference")
        elif command == "sample-midpoints":
            if obj["trials"] != trials or len(obj["violations"]) != len(obj["certificates"]):
                problems.append("sampler report has the wrong trial or certificate count")
            pairs = [
                (
                    oracle.parse_vector(z),
                    (oracle.parse_vector(c["u"]), oracle.parse_vector(c["v"]), Fraction(c["t"])),
                )
                for z, c in zip(obj["violations"], obj["certificates"])
            ]
            _expect_sample(inst, pairs, problems)
        return problems

    return Op(key, kinds, inst.cls, lambda out: out, check, argv=argv, trials=trials)


def _cli_kinds(command: str, cls: str) -> tuple:
    """End-to-end families a call feeds in the ``cli`` workload."""
    if command == "classify":
        return (f"classify_{cls}", "cli")
    if command == "reduce":
        return ("reduce", "cli")
    if command == "sample-midpoints":
        return ("sample", "cli")
    return ("cli",)


# ---------------------------------------------------------------- workloads


def _warmup(rng: random.Random) -> list:
    """One call of each library operation on 4x5 inputs, so that every code path has run once."""
    poly = make_instance(rng, "warm-poly", "polytrope", 4, 5, SMALL_BOUNDS)
    non = make_instance(rng, "warm-non", "nonpolytrope", 4, 5, SMALL_BOUNDS)
    return [classify_op(poly), classify_op(non), reduce_op(non), sample_op(non, 20, 0)]


# Every shape of the sampler distribution, n in [2,8] and m in [2,10], in one
# fixed order: every seed sees the same sizes, and seeds change only the
# entries.
SMALL_SHAPES = [(n, m) for n in range(2, 9) for m in range(2, 11)]
random.Random(0).shuffle(SMALL_SHAPES)
CLASSES = ("polytrope", "nonpolytrope", "minplus")


def _small_instances(rng: random.Random, count: int, shape=None) -> list:
    """The sampler acceptance distribution, three classes in turn.

    Non-polytropes need n >= 3, the dimensions where they exist.
    """
    out = []
    for i in range(count):
        cls = CLASSES[i % 3]
        n, m = shape or SMALL_SHAPES[(i // 3) % len(SMALL_SHAPES)]
        if cls == "nonpolytrope":
            n = max(n, 3)
        out.append(make_instance(rng, f"s{i}-{cls}", cls, n, m, SMALL_BOUNDS))
    return out


def large_classify(rng: random.Random, workdir: Path, smoke: bool) -> Workload:
    n, m = (6, 8) if smoke else (32, 40)
    per_class = 2 if smoke else 4
    polys = [make_instance(rng, f"poly{i}", "polytrope", n, m, LARGE_BOUNDS) for i in range(per_class)]
    nons = [make_instance(rng, f"non{i}", "nonpolytrope", n, m, LARGE_BOUNDS) for i in range(per_class)]
    probes = _small_instances(rng, 6 * per_class, shape=(8, 10))
    docs = polys + nons
    write_docs(docs, workdir)
    num, den = LARGE_BOUNDS
    ys = [
        oracle.random_member(rng, d.gens, num, den) if d.cls == "polytrope" else oracle.random_vector(rng, n, num, den)
        for d in docs
    ]
    cycle = []
    for k in range(2 * per_class):
        i = k % per_class
        cycle += [
            classify_op(polys[i]),
            classify_op(nons[i]),
            reduce_op(polys[i] if k < per_class else nons[i]),
            cli_op(docs[k], "member", ("cli",), y=ys[k]),
        ]
        cycle += [sample_op(probes[j], PROBE_TRIALS, j) for j in range(3 * k, 3 * k + 3)]
    return Workload("large-classify", cycle, _warmup(rng) + [cycle[3]])


def small_sampler(rng: random.Random, workdir: Path, smoke: bool) -> Workload:
    # Three inputs of each class for every shape: many distinct inputs keep the
    # medians and tails of a run close to those of the distribution.
    instances = _small_instances(rng, 6 if smoke else 9 * len(SMALL_SHAPES))
    trials = 30 if smoke else SAMPLER_TRIALS
    write_docs(instances, workdir)
    cycle = []
    for i, inst in enumerate(instances):
        if inst.cls != "minplus":
            cycle.append(classify_op(inst))
        cycle.append(reduce_op(inst))
        # The sampler runs on every eighth shape slot, all three classes: 72
        # inputs over 24 shapes, which keeps a cycle near 17 s.
        if (i // 3) % 8 == 0:
            cycle.append(sample_op(inst, trials, i))
        if i % 20 == 0:
            cycle.append(cli_op(inst, "sample-midpoints", ("cli",), trials=CLI_SAMPLER_TRIALS, seed=i))
    cli_first = next(op for op in cycle if op.argv)
    return Workload("small-sampler", cycle, _warmup(rng) + [cli_first])


def cli_documents(rng: random.Random, workdir: Path, smoke: bool) -> tuple:
    """Seeded 4x5 and 8x10 documents per class, and one large random document."""
    docs = {}
    for n, m in ((4, 5), (8, 10)):
        for cls, count in (("polytrope", 3), ("nonpolytrope", 3), ("minplus", 1)):
            for j in range(count):
                inst = make_instance(rng, f"{n}x{m}-{cls}{j}", cls, n, m, CLI_BOUNDS)
                docs[(n, cls, j)] = inst
    bn, bm = (12, 15) if smoke else (96, 120)
    big = make_instance(rng, f"{bn}x{bm}-big", "random", bn, bm, CLI_BOUNDS)
    big_y = oracle.random_vector(rng, bn, *CLI_BOUNDS)
    write_docs(list(docs.values()) + [big], workdir)
    return docs, big, big_y


def cli(rng: random.Random, workdir: Path, smoke: bool) -> Workload:
    docs, big, big_y = cli_documents(rng, workdir, smoke)
    cycle = []

    def add(inst, command, **kw):
        cycle.append(cli_op(inst, command, _cli_kinds(command, inst.cls), **kw))

    for n in (4, 8):
        p = [docs[(n, "polytrope", j)] for j in range(3)]
        q = [docs[(n, "nonpolytrope", j)] for j in range(3)]
        mp = docs[(n, "minplus", 0)]
        y = oracle.random_member(rng, p[0].gens, *CLI_BOUNDS)
        for j, (extra_cmd, extra_inst) in enumerate(
            (("convex-check", q[0]), ("dominator", p[1]), ("dominator-dual", mp))
        ):
            add(p[j], "classify")
            add(q[j], "classify")
            add((p[0], q[0], mp)[j], "reduce")
            add((p[0], q[0], mp)[j], "sample-midpoints", trials=CLI_SAMPLER_TRIALS)
            add(extra_inst, extra_cmd)
        add(q[1], "hull-min")
        add(p[0], "member", y=y)
        add(big, "member" if n == 4 else "project", **({"y": big_y} if n == 4 else {}))
    return Workload("cli", cycle, _warmup(rng) + [cycle[0]])


BUILDERS = {"large-classify": large_classify, "small-sampler": small_sampler, "cli": cli}


def build(name: str, seed: int, workdir: Path, smoke: bool) -> Workload:
    rng = random.Random(f"tropgeo-bench:{name}:{seed}")
    return BUILDERS[name](rng, workdir, smoke)
