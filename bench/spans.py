"""Span recording around tropgeo's public functions, for the traced run only.

``install`` replaces each function listed in ``TRACED`` by a wrapper in
every ``tropgeo`` module that binds it (``kleene.member`` and
``polytope.dominator`` are the same objects as ``residuation.member`` and
``kleene.dominator``), and returns a function that puts the originals back.
Spans stay in memory as ``[name, start_ns, end_ns, parent, op, info]``;
``op`` is the index of the benchmark operation that caused them.  Nothing in
``src/`` is changed: a function missing from a later version is skipped.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns


def _mul_info(args, kwargs, result):
    a, b = args[1], args[2]
    return {"inner_ops": a.n_rows * a.n_cols * b.n_cols, "star_check": a is b}


def _member_info(args, kwargs, result):
    return {"gens": args[0].n_generators}


def _sample_info(args, kwargs, result):
    return {"trials": result.trials, "violations": len(result.violations)}


def _affine_info(args, kwargs, result):
    return {"den_bits": max(e.denominator.bit_length() for e in result)}


# (module, function, span name, info taken from the call)
TRACED = (
    ("tropgeo.core", "trop_mat_mul", "core.trop_mat_mul", _mul_info),
    ("tropgeo.core", "mat_from_columns", "core.mat_from_columns", None),
    ("tropgeo.kleene", "dominator", "kleene.dominator", None),
    ("tropgeo.kleene", "dominator_dual", "kleene.dominator_dual", None),
    ("tropgeo.kleene", "classify", "kleene.classify", None),
    ("tropgeo.residuation", "member", "residuation.member", _member_info),
    ("tropgeo.polytope", "reduce_generators", "polytope.reduce", None),
    ("tropgeo.polytope", "sample_euclidean_midpoints", "polytope.sample", _sample_info),
    ("tropgeo.polytope", "affine_point", "polytope.affine_point", _affine_info),
    ("tropgeo.docio", "parse_matrix_document", "docio.parse", None),
    ("tropgeo.docio", "serialize_matrix_document", "docio.serialize", None),
    ("tropgeo.cli", "run", "cli.run", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.ops: list = []  # tags of the operations, indexed by span[4]
        self._stack: list = []
        self._op = None

    def begin_op(self, **tags) -> int:
        self.ops.append(tags)
        self._op = len(self.ops) - 1
        return self._op

    def wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self._op, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever tropgeo binds it; return the undo."""
        modules = [m for k, m in sys.modules.items() if k == "tropgeo" or k.startswith("tropgeo.")]
        undo = []
        for module_name, attr, name, info in TRACED:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, info)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        undo.append((module, binding, original))

        def restore():
            for module, binding, original in undo:
                setattr(module, binding, original)

        return restore

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": self.ops}) + "\n")
            for name, start, end, parent, op, info in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op, "info": info}
                    )
                    + "\n"
                )


class SpanView:
    """Per-layer figures from a tracer's spans, filtered by operation tags."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.child_ns = [0] * len(tracer.spans)
        self.kids = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, (name, start, end, parent, op, info) in enumerate(tracer.spans):
            self.by_name[name].append(i)
            if parent is not None:
                self.child_ns[parent] += end - start
                self.kids[parent].append(i)

    def select(self, name: str, **tags) -> list:
        """Indices of spans called ``name`` whose operation carries all ``tags``."""
        ops, spans = self.t.ops, self.t.spans
        return [
            i
            for i in self.by_name[name]
            if spans[i][4] is not None and all(ops[spans[i][4]].get(k) == v for k, v in tags.items())
        ]

    def dur_ms(self, i: int) -> float:
        s = self.t.spans[i]
        return (s[2] - s[1]) / 1e6

    def self_ms(self, i: int) -> float:
        return self.dur_ms(i) - self.child_ns[i] / 1e6

    def parent_name(self, i: int):
        p = self.t.spans[i][3]
        return None if p is None else self.t.spans[p][0]

    def info(self, i: int, key: str, default=0):
        return (self.t.spans[i][5] or {}).get(key, default)

    def children(self, i: int) -> list:
        return self.kids[i]


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def workload_metrics(v: SpanView) -> dict:
    """Per-layer figures of the traced workload phase.

    Times are means (or medians, where named) over the whole phase; counts
    are totals over its first cycle, so they repeat exactly for a seed.
    """
    wl = {"phase": "workload"}
    first = {"phase": "workload", "first": True}
    out = {}

    mul = v.select("core.trop_mat_mul", **wl)
    out["core.trop_mat_mul.ms"] = (mean(v.dur_ms(i) for i in mul), "ms")
    mul1 = v.select("core.trop_mat_mul", **first)
    out["core.trop_mat_mul.calls"] = (len(mul1), "count")
    out["core.trop_mat_mul.inner_ops"] = (sum(v.info(i, "inner_ops") for i in mul1), "count")
    out["core.mat_from_columns.ms"] = (mean(v.dur_ms(i) for i in v.select("core.mat_from_columns", **wl)), "ms")

    out.update(dominator_metrics(v, wl, ""))
    out["kleene.classify.self_ms"] = (mean(v.self_ms(i) for i in v.select("kleene.classify", **wl)), "ms")

    member = v.select("residuation.member", **wl)
    member1 = v.select("residuation.member", **first)
    out["residuation.member.calls"] = (len(member1), "count")
    out["residuation.member.ms_p50"] = (median(v.dur_ms(i) for i in member), "ms")
    classify_ms = sum(v.dur_ms(i) for i in v.select("kleene.classify", **wl))
    in_classify = sum(v.dur_ms(i) for i in member if v.parent_name(i) == "kleene.classify")
    out["residuation.member.share_of_classify"] = (in_classify / classify_ms if classify_ms else 0.0, "ratio")
    out["residuation.bracket_evals"] = (sum(v.info(i, "gens") for i in member1), "count")

    out["polytope.reduce.member_calls"] = (
        sum(1 for i in member1 if v.parent_name(i) == "polytope.reduce"),
        "count",
    )
    samples = v.select("polytope.sample", **wl)
    sample_dom, trial_ms, trials = 0.0, 0.0, 0
    for i in samples:
        kids = v.children(i)
        sample_dom += sum(v.dur_ms(j) for j in kids if v.t.spans[j][0].startswith("kleene.dominator"))
        affine = [j for j in kids if v.t.spans[j][0] == "polytope.affine_point"]
        if affine:
            first_trial = v.t.spans[affine[0]][1]
            setup_end = max(
                [v.t.spans[j][2] for j in kids if v.t.spans[j][1] < first_trial] or [v.t.spans[i][1]]
            )
            trial_ms += (v.t.spans[i][2] - setup_end) / 1e6
        trials += v.info(i, "trials")
    out["polytope.sample.dominator_ms"] = (sample_dom / len(samples) if samples else 0.0, "ms")
    out["polytope.sample.trial_ms"] = (trial_ms / trials if trials else 0.0, "ms")
    for cls in ("polytrope", "nonpolytrope", "minplus"):
        sel = v.select("polytope.sample", phase="workload", cls=cls)
        done = sum(v.info(i, "trials") for i in sel)
        found = sum(v.info(i, "violations") for i in sel)
        out[f"polytope.sample.violation_yield.{cls}"] = (found / done if done else 0.0, "ratio")
    out["polytope.affine_point.max_den_bits"] = (
        max([v.info(i, "den_bits") for i in v.select("polytope.affine_point", **first)] or [0]),
        "bits",
    )
    return out


def dominator_metrics(v: SpanView, tags: dict, suffix: str) -> dict:
    dom = v.select("kleene.dominator", **tags)
    star = [
        v.dur_ms(j)
        for i in dom
        for j in v.children(i)
        if v.t.spans[j][0] == "core.trop_mat_mul" and v.info(j, "star_check", False)
    ]
    return {
        f"kleene.dominator.ms{suffix}": (mean(v.dur_ms(i) for i in dom), "ms"),
        f"kleene.dominator.self_ms{suffix}": (mean(v.self_ms(i) for i in dom), "ms"),
        f"kleene.dominator.star_check_ms{suffix}": (sum(star) / len(dom) if dom else 0.0, "ms"),
    }


def sweep_metrics(v: SpanView, size: str) -> dict:
    tags = {"phase": "sweep", "size": size}
    sfx = "." + size
    out = {f"core.trop_mat_mul.ms{sfx}": (mean(v.dur_ms(i) for i in v.select("core.trop_mat_mul", **tags)), "ms")}
    out.update(dominator_metrics(v, tags, sfx))
    for cls in ("polytrope", "nonpolytrope"):
        sel = v.select("kleene.classify", phase="sweep", size=size, cls=cls)
        out[f"kleene.classify.{cls}_ms{sfx}"] = (median(v.dur_ms(i) for i in sel), "ms")
    out[f"residuation.member.ms_p50{sfx}"] = (median(v.dur_ms(i) for i in v.select("residuation.member", **tags)), "ms")
    out[f"polytope.reduce.ms{sfx}"] = (median(v.dur_ms(i) for i in v.select("polytope.reduce", **tags)), "ms")
    return out


# The end-to-end metric and workload each per-layer figure is expected to move.
MOVES = {
    "core.trop_mat_mul.ms": "classify_*_ms on large-classify",
    "core.trop_mat_mul.calls": "classify_*_ms on large-classify",
    "core.trop_mat_mul.inner_ops": "classify_*_ms on large-classify",
    "core.mat_from_columns.ms": "reduce_ms_* on large-classify and small-sampler",
    "kleene.dominator.ms": "classify_*_ms on large-classify",
    "kleene.dominator.self_ms": "classify_*_ms on large-classify",
    "kleene.dominator.star_check_ms": "classify_*_ms on large-classify",
    "kleene.classify.self_ms": "classify_*_ms on large-classify",
    "residuation.member.calls": "classify_polytrope_ms_* on large-classify; trials_per_s, reduce_ms_* on small-sampler",
    "residuation.member.ms_p50": "classify_polytrope_ms_* on large-classify; trials_per_s, reduce_ms_* on small-sampler",
    "residuation.member.share_of_classify": "classify_polytrope_ms_* on large-classify",
    "residuation.bracket_evals": "classify_polytrope_ms_* on large-classify; trials_per_s on small-sampler",
    "polytope.reduce.member_calls": "reduce_ms_* on large-classify and small-sampler",
    "polytope.sample.dominator_ms": "sample_ms_* on small-sampler",
    "polytope.sample.trial_ms": "trials_per_s on small-sampler",
    "polytope.sample.violation_yield": "sample_ms_* and trials_per_s on small-sampler",
    "polytope.affine_point.max_den_bits": "trials_per_s on small-sampler",
    "docio.parse.ms": "cli_ms_tail on cli; setup_s",
    "docio.parse.entries_per_s": "cli_ms_tail on cli; setup_s",
    "docio.serialize.ms": "cli_ms_p50 on cli",
    "cli.interpreter_ms": "none: reference for cli_ms_* on cli, not the program",
    "cli.import_ms": "cli_ms_p50 on cli",
    "cli.run_inproc_ms": "cli_ms_* on cli",
    "trace.overhead_ms": "none: cost of tracing itself",
    "trace.overhead_pct": "none: cost of tracing itself",
    "kleene.classify": "classify_*_ms at this size (large-classify is 32x40)",
    "polytope.reduce.ms": "reduce_ms_* at this size (large-classify is 32x40)",
}


def moves(name: str) -> str:
    """The MOVES entry for a metric, matched on its longest listed prefix."""
    keys = [k for k in MOVES if name == k or name.startswith(k + ".") or name.startswith(k + "_")]
    return MOVES[max(keys, key=len)] if keys else ""
