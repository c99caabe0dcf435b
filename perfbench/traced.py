"""The traced run: per-layer self time, counts and ratios.

Three passes over the units an untraced run of ``--seconds`` does.  The
first runs untraced and supplies the latency tail and the figures the
benchmark times itself (reduction, event fold, service calls).  The second
re-runs the same units with every layer's entry points wrapped
(``layers.py``) and the program's PROBE counters on; the third runs them
untraced again.  The mean wall time of the first and third is the
reference for the tracing overhead.  Every pass must give the same
results, because tracing may not change what the program does.  On
``grid`` the second and third passes are the inline leg only: the in-cell
layers come from it, the service layers from the first pass.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List

from repro.cypher.printer import print_query
from repro.experiments.campaign import run_tool_campaign
from repro.obs import observed
from repro.obs.coverage import query_of

import layers
import workloads
from spans import SpanRecorder
from stamping import QueryStamps, StampLog, percentile, text_hash

#: Slowest judged queries listed per traced run.
SLOWEST = 5

#: Span names whose self time is reported as ``<name>_s``.
TIMED = (
    "graph.generate", "graph.copy", "cypher.print", "cypher.parse",
    "synth.synthesize", "synth.pin_match", "synth.ground_truth",
    "oracle.check", "core.propose", "core.judge", "state.propose",
    "state.shadow_apply", "state.digest", "engine.interpret", "plan.build",
    "plan.execute", "gdb.execute", "gdb.features", "gdb.load_graph",
    "baselines.propose", "baselines.judge", "runtime.kernel",
    "runtime.emit", "obs.coverage", "obs.triage", "obs.record",
    "reduce.bundle", "reduce.replay",
)
#: Span names whose call count is reported as ``<name>_calls``.
COUNTED = (
    "graph.generate", "graph.copy", "cypher.print", "cypher.parse",
    "synth.synthesize", "synth.pin_match", "oracle.check",
    "engine.interpret", "plan.build", "plan.execute", "gdb.execute",
)


class QueryLabels:
    """Engine and query-text hash of each judged query, by query index."""

    def __init__(self):
        self.labels: List[Dict[str, str]] = []

    def __call__(self, engine, proposal) -> None:
        text = getattr(proposal, "text", None)
        if text is None:
            query = query_of(proposal)
            text = print_query(query) if query is not None else repr(proposal)
        self.labels.append({"engine": engine.name, "hash": text_hash(text)})


def slowest(stamps: QueryStamps, labels: List[Dict[str, str]],
            count: int = SLOWEST, tag: str = "") -> List[Dict[str, Any]]:
    order = sorted(range(len(stamps.latency)),
                   key=lambda i: stamps.latency[i], reverse=True)[:count]
    rows = []
    for index in order:
        row = {"ms": round(1000.0 * stamps.latency[index], 3),
               "query": index + 1, "label": stamps.labels[index]}
        if index < len(labels):
            row.update(labels[index])
        if tag:
            row["run"] = tag
        rows.append(row)
    return rows


def pinned_tail() -> List[Dict[str, Any]]:
    """The gqs-write read that cost-ordered matching targets, every time."""
    pinned = workloads.PINNED_TAIL
    stamps = QueryStamps()
    labels = QueryLabels()
    undo = layers.label_judges(labels)
    try:
        run_tool_campaign(
            "GQS", pinned["engine"], budget_seconds=pinned["budget_seconds"],
            seed=pinned["seed"], execution_mode="compiled", stateful=0.5,
            events=StampLog(stamps, pinned["engine"]),
        )
    finally:
        undo()
    return slowest(stamps, labels.labels, count=3, tag="pinned")


def counter(snapshot: Dict[str, Any], name: str, **labels) -> float:
    """Sum of a PROBE counter over every label set matching *labels*."""
    total = 0.0
    for key, value in snapshot.get("counters", {}).items():
        base, _, encoded = key.partition("|")
        if base != name:
            continue
        pairs = dict(item.split("=", 1) for item in encoded.split(",")
                     if item)
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += value
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_traced(workload: str, seed: int, seconds: float, workdir: Path,
               out_dir: Path) -> Dict[str, Any]:
    grid = workload == "grid"
    service_spans = SpanRecorder()
    units = workloads.units_for(workload, seconds)
    first = workloads.execute(workload, seed, units, workdir / "untraced",
                              spans=service_spans if grid else None)
    first.extra["service_spans"] = service_spans.self_times()

    recorder = SpanRecorder()
    second_stamps = QueryStamps()
    labels = QueryLabels()
    second_stamps.on_query_start = lambda index: setattr(
        recorder, "shared_id", index + 1)
    # Labelling is the benchmark's own work: under its own span, left out
    # of TIMED, it is subtracted from the kernel's self time.
    undo = layers.install(recorder,
                          on_judge=recorder.wrap("trace.label", labels))
    try:
        with observed() as (registry, _tracer):
            root = recorder.open("run")
            second = workloads.execute(workload, seed, units,
                                       workdir / "traced",
                                       inline_only=grid,
                                       stamps=second_stamps)
            recorder.close(root)
            snapshot = registry.snapshot()
    finally:
        undo()
    # The same units untraced once more: with the first pass they bracket
    # the traced one, so warm-up and slow drift of the machine's speed do
    # not read as tracing overhead.
    third = workloads.execute(workload, seed, units, workdir / "after",
                              inline_only=grid)
    passes = (first, second, third)

    problems = [problem for run in passes for problem in run.problems]
    expected = [workloads.digest([d]) for d in first.documents]
    for name, run in (("traced", second), ("repeated", third)):
        if [workloads.digest([d]) for d in run.documents] != expected:
            problems.append(f"{name} results differ from the first pass")

    def loop_wall(run):
        return run.extra["inline_wall"] if grid else run.wall

    reference_wall = (loop_wall(first) + loop_wall(third)) / 2.0
    own = recorder.self_times()
    metrics = layer_metrics(recorder, snapshot)
    metrics.update(untraced_metrics(first, second))
    metrics.update(service_metrics(first.extra if grid else None))
    metrics.update({
        "trace.untraced_wall_s": reference_wall,
        "trace.traced_wall_s": loop_wall(second),
        "trace.overhead_s": loop_wall(second) - reference_wall,
        # The host-speed probes between units are the benchmark's own.
        "trace.unattributed_s": (own.get("run", 0.0)
                                 - sum(second.speed.samples)),
        "trace.spans": len(recorder.spans),
    })

    rows = slowest(first.stamps, labels.labels)
    if workload == "gqs-write":
        rows += pinned_tail()
    lines = [f"slowest {json.dumps(row, sort_keys=True)}" for row in rows]
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.jsonl"
    recorder.dump(spans_path)
    lines.append(f"spans {spans_path.name} ({len(recorder.spans)} spans)")
    lines += [f"problem {problem}" for problem in problems]
    return {
        "metrics": metrics,
        "lines": lines,
        "correct": not problems,
        "attempted": sum(run.attempted for run in passes),
        "failed": sum(run.failed for run in passes),
    }


def layer_metrics(recorder: SpanRecorder,
                  snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Self times, call counts and ratios of the traced pass."""
    own = recorder.self_times()
    calls = recorder.call_counts()
    counts = recorder.counts
    metrics: Dict[str, float] = {}
    for name in TIMED:
        metrics[f"{name}_s"] = own.get(name, 0.0)
    for name in COUNTED:
        metrics[f"{name}_calls"] = calls.get(name, 0)
    accepts = calls.get("reduce.accepts", 0)
    metrics.update({
        "state.writes": counts.get("state.writes", 0),
        "plan.cache_lookups": counts.get("plan.cache_lookups", 0),
        "plan.cache_hit_ratio": ratio(counts.get("plan.cache_hits", 0),
                                      counts.get("plan.cache_lookups", 0)),
        "plan.write_fallbacks": counter(snapshot, "plan.write_fallbacks"),
        "plan.scan_rows_per_result": ratio(
            counter(snapshot, "plan.rows", operator="scan"),
            counts.get("plan.result_rows", 0)),
        "gdb.fault_fire_ratio": ratio(counts.get("gdb.fault_fired", 0),
                                      calls.get("gdb.execute", 0)),
        "runtime.events": calls.get("runtime.emit", 0),
        # Oracle checks answered from the verdict memo, without a replay.
        "reduce.memo_hit_ratio": (
            1.0 - ratio(calls.get("reduce.replay", 0), accepts)
            if accepts else 0.0
        ),
    })
    return metrics


def untraced_metrics(first, second) -> Dict[str, float]:
    """Figures the benchmark times itself, from the untraced first pass."""
    extra = first.extra
    shrink = extra.get("shrink", [])
    latency_ms = [1000.0 * value for value in first.stamps.latency]
    return {
        "obs.event_bytes": extra.get("event_bytes", 0),
        "obs.fold_s": extra.get("fold_s", 0.0),
        "reduce.replays": second.extra.get("replays", 0),
        "reduce.replays_per_s": ratio(extra.get("replays", 0),
                                      sum(first.reduce_walls)),
        "reduce.shrink_ratio": statistics.mean(shrink) if shrink else 0.0,
        "reduce.p50_s": (statistics.median(first.reduce_walls)
                         if first.reduce_walls else 0.0),
        "query.p50_ms": statistics.median(latency_ms),
        "query.p99_ms": percentile(latency_ms, 0.99),
        "query.samples": len(latency_ms),
        "run.queries": second.queries,
        "run.fail_frac": ratio(first.failed, first.attempted),
    }


SERVICE_METRICS = (
    "service.admit_s", "service.tick_s", "service.lease_wait_s",
    "service.dispatch_overhead_s", "service.journal_bytes", "service.fsyncs",
    "service.heartbeats", "service.retries", "service.replay_s",
    "service.cells_per_s", "service.cell_p50_s", "service.cell_p90_s",
    "runner.cells_per_s",
)


def service_metrics(extra) -> Dict[str, float]:
    """The service and runner legs of ``grid`` (zero elsewhere)."""
    if extra is None:
        return dict.fromkeys(SERVICE_METRICS, 0.0)
    spans = extra["service_spans"]
    return {
        "service.admit_s": spans.get("service.admit", 0.0),
        "service.tick_s": spans.get("service.tick", 0.0),
        "service.lease_wait_s": statistics.median(extra["lease_wait"]),
        "service.dispatch_overhead_s": statistics.median(extra["dispatch"]),
        "service.journal_bytes": extra["journal_bytes"],
        "service.fsyncs": extra["fsyncs"],
        "service.heartbeats": extra["heartbeats"],
        "service.retries": extra["retries"],
        "service.replay_s": extra["replay_s"],
        "service.cells_per_s": ratio(extra["service_cells"],
                                     extra["service_wall"]),
        "service.cell_p50_s": statistics.median(extra["service_latency"]),
        "service.cell_p90_s": percentile(extra["service_latency"], 0.9),
        "runner.cells_per_s": ratio(extra["service_cells"],
                                    extra["runner_wall"]),
    }
