"""The four benchmark workloads, each a closed loop over public entry points.

A workload turns ``--seed`` into a deterministic sequence of *units* (one
campaign cell each, or one grid job for ``grid``) and runs them one after
the other: a unit starts only after the previous one finished.  How many
units a run does is fixed by ``--seconds`` (:func:`units_for`), not by the
clock, so two runs of one seed judge the same queries.  The digest of the
first ``MIN_UNITS`` units' results is the run's correctness fingerprint.

A host-speed probe (``hostspeed.py``) runs before every unit; the gated
times are scaled by the run's slowdown.

Why these workloads (the layer each one exercises and the one it leaves
idle) is recorded in ``expected.json`` next to this file.
"""

from __future__ import annotations

import glob
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro.reduce.runner as reduce_runner
from repro.core.reporting import campaign_to_dict, load_event_stream
from repro.experiments.campaign import (
    TESTER_NAMES,
    campaign_grid_cells,
    run_campaign_grid,
    run_tool_campaign,
)
from repro.obs import replay_bundle, stats_json
from repro.obs.recorder import load_bundle

import layers
from hostspeed import HostSpeed
from stamping import QueryStamps, StampLog, digest, percentile, trimmed_rate

ENGINES = ("neo4j", "memgraph", "kuzu", "falkordb")
#: Units every run completes, whatever ``--seconds`` says; their results
#: form the run's digest.
MIN_UNITS = {"gqs-read": 8, "gqs-write": 8, "triage-reduce": 4, "grid": 2}
#: Units (grid: jobs) a run does per second of ``--seconds``: about that
#: many seconds' worth on a quiet 2-vCPU x86 VM.
UNITS_PER_SECOND = {"gqs-read": 2.0, "gqs-write": 4.0,
                    "triage-reduce": 1.5, "grid": 0.2}
#: GQS units come in blocks of one per engine.
BLOCK = len(ENGINES)
#: A run starts no further unit (past ``MIN_UNITS``) after this many
#: seconds, so that it ends within 180 s while the shared host stalls; the
#: host has been seen to run one query ten times slower than usual for
#: minutes.
MAX_RUN_S = 100.0
#: Judged queries per GQS campaign unit.  A fixed count (not a simulated
#: budget) gives every engine the same share of the queries in any run.
UNIT_QUERIES = 32
#: Evaluation steps allowed per judged query (the campaigns' existing
#: ``step_budget`` resource envelope).  Rare synthesized reads match for
#: minutes (gqs-write at seed 43 has one); past this budget the kernel
#: records a harness error, counted as a failed operation, and the run
#: still ends within its time limit.  Ordinary queries stay far below it.
STEP_BUDGET = 1_000_000
#: Fault-gate compression of triage-reduce, so bundles are recorded often
#: (at 0.1 about twice as many bundles per cell are recorded, and reducing
#: them takes most of the run).
TRIAGE_GATE_SCALE = 0.2
#: Oracle replays allowed per bundle reduction (``replay_budget``): bounds
#: the reduction deterministically without dropping bundles.
REPLAY_BUDGET = 10
#: Grid seeds per job: 19 supported (tester, engine) pairs x 3 = 57 cells,
#: so every run (at least two jobs) has over 100 cells.
GRID_SEEDS = 3
#: Simulated seconds per grid cell: short cells, so dispatch cost shows.
GRID_CELL_BUDGET = 1.0
#: Stamp label of a write statement; ``query_p50_ms`` is over reads only.
WRITE_LABEL = "write"
#: Longest a grid job may take through the service before the run fails.
SERVICE_TIMEOUT = 120.0
#: The gqs-write tail kept in every traced gqs-write run: a neo4j read
#: with ten patterns that takes tens of seconds at this seed and budget.
PINNED_TAIL = {"engine": "neo4j", "seed": 2, "budget_seconds": 60.0}


def unit_seed(seed: int, index: int) -> int:
    """Campaign seed of unit *index*; units on one engine never share one."""
    return seed + 7919 * index


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


@dataclass
class Run:
    """What one pass of a workload measured and checked."""

    stamps: QueryStamps = field(default_factory=QueryStamps)
    start: float = 0.0
    wall: float = 0.0
    unit_walls: List[float] = field(default_factory=list)
    documents: List[Any] = field(default_factory=list)
    queries: int = 0
    cells: int = 0
    bundles: int = 0
    failed: int = 0
    speed: HostSpeed = field(default_factory=HostSpeed)
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    reduce_walls: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.queries + self.cells + self.bundles


# -- GQS campaign units ------------------------------------------------------


def gqs_unit(workload: str, seed: int, index: int) -> Dict[str, Any]:
    """Keyword arguments of ``run_tool_campaign`` for unit *index*."""
    unit = {
        "tester_name": "GQS",
        "engine_name": ENGINES[index % len(ENGINES)],
        "seed": unit_seed(seed, index),
        "budget_seconds": 3600.0,
        "max_queries": UNIT_QUERIES,
        "execution_mode": "compiled",
        "step_budget": STEP_BUDGET,
    }
    if workload == "gqs-write":
        unit["stateful"] = 0.5
    elif workload == "triage-reduce":
        unit.update(gate_scale=TRIAGE_GATE_SCALE, record_coverage=True,
                    record_triage=True)
    return unit


def stalled(run: Run, index: int, minimum: int) -> bool:
    """Whether the run stops before unit *index*: past *minimum* units
    and ``MAX_RUN_S``; the index it stopped at is kept in ``extra``."""
    if index < minimum or time.perf_counter() - run.start < MAX_RUN_S:
        return False
    run.extra["stopped_at"] = index
    return True


def units_for(workload: str, seconds: float) -> int:
    """Units a run of *seconds* does: at least ``MIN_UNITS``, and whole
    blocks of GQS units, so every engine gets the same share."""
    count = max(MIN_UNITS[workload],
                math.ceil(seconds * UNITS_PER_SECOND[workload]))
    if workload != "grid":
        count = BLOCK * math.ceil(count / BLOCK)
    return count


def check_campaign(run: Run, result, tester: str = "GQS") -> None:
    """Count one finished campaign cell into *run*."""
    run.queries += result.queries_run
    run.cells += 1
    run.failed += result.harness_errors
    if tester == "GQS" and result.false_positive_count:
        run.problems.append(
            f"{result.false_positive_count} GQS false positive(s) on "
            f"{result.engine}"
        )


def run_gqs(workload: str, seed: int, units: int, workdir: Path,
            stamps: Optional[QueryStamps] = None) -> Run:
    """Closed loop of *units* GQS campaign units (plus reduction on
    triage-reduce), each after a host-speed probe."""
    run = Run(stamps=stamps or QueryStamps())
    workdir.mkdir(parents=True, exist_ok=True)
    bundle_dir = workdir / "bundles"
    events_path = workdir / "events.jsonl"
    triage = workload == "triage-reduce"
    writing = [False]  # whether the statement being judged is a write
    run.start = time.perf_counter()
    for index in range(units):
        if stalled(run, index, MIN_UNITS[workload]):
            break
        unit = gqs_unit(workload, seed, index)
        before = set(glob.glob(str(bundle_dir / "*.json")))
        run.speed.sample()
        began = time.perf_counter()
        label = unit["engine_name"]
        undo = None
        if workload == "gqs-write":
            # Reads are stamped with their engine, writes as WRITE_LABEL.
            undo = layers.label_judges(lambda engine, proposal: (
                writing.__setitem__(0, proposal.is_write)))
            label = (lambda engine=label:
                     WRITE_LABEL if writing[0] else engine)
        log = StampLog(run.stamps, label,
                       path=events_path if triage else None)
        try:
            result = run_tool_campaign(
                events=log,
                bundle_dir=bundle_dir if triage else None,
                **unit,
            )
        finally:
            log.close()
            if undo is not None:
                undo()
        run.unit_walls.append(time.perf_counter() - began)
        check_campaign(run, result)
        document = campaign_to_dict(result)
        if triage:
            new = sorted(set(glob.glob(str(bundle_dir / "*.json"))) - before)
            document = {"campaign": document,
                        "bundles": reduce_and_replay(run, new)}
        if index < MIN_UNITS[workload]:
            run.documents.append(document)
    run.wall = time.perf_counter() - run.start
    run.extra["units"] = len(run.unit_walls)
    if triage:
        fold_events(run, events_path)
    return run


def reduce_and_replay(run: Run, paths: List[str]) -> List[Any]:
    """Minimize each new bundle, replay the result, check both."""
    summaries = []
    for path in paths:
        if path.endswith(".min.json"):
            continue
        run.bundles += 1
        began = time.perf_counter()
        outcome = reduce_runner.reduce_bundle(
            path, replay_budget=REPLAY_BUDGET, step_budget=STEP_BUDGET)
        run.reduce_walls.append(time.perf_counter() - began)
        run.extra["replays"] = (run.extra.get("replays", 0)
                                + outcome.oracle_replays)
        if not outcome.reproduced:
            # A recorded bundle that no longer shows its own discrepancy:
            # counted as a failed operation, not hidden.
            run.failed += 1
            summaries.append({"source": Path(path).name,
                              "reproduced": False})
            continue
        replay = replay_bundle(outcome.min_path)
        source = load_bundle(path)
        minimized = load_bundle(outcome.min_path)
        if not replay.reproduced or minimized["signature"] != source[
                "signature"]:
            run.problems.append(
                f"minimized bundle {Path(path).name} does not replay to "
                f"its signature"
            )
        for key, size in outcome.reduced.items():
            if size > outcome.original.get(key, size):
                run.problems.append(
                    f"minimized bundle {Path(path).name} grew: {key} "
                    f"{outcome.original[key]} -> {size}"
                )
        run.extra.setdefault("shrink", []).append(outcome.graph_shrink_ratio)
        summaries.append({
            "source": Path(path).name,
            "reproduced": True,
            "min": digest([minimized]),
        })
    return summaries


def fold_events(run: Run, events_path: Path) -> None:
    """Fold the finished event log into the ``repro stats`` JSON view."""
    began = time.perf_counter()
    events = load_event_stream(events_path)
    view = stats_json(events)
    run.extra["fold_s"] = time.perf_counter() - began
    run.extra["event_bytes"] = events_path.stat().st_size
    if not view.get("schema"):
        run.problems.append("stats fold of the event log has no schema")


# -- grid --------------------------------------------------------------------


def grid_spec(seed: int, round_index: int) -> Dict[str, Any]:
    """The JobSpec dict of grid round *round_index*."""
    base = unit_seed(seed, round_index) * GRID_SEEDS
    return {
        "testers": list(TESTER_NAMES),
        "engines": list(ENGINES),
        "seeds": [base + k for k in range(GRID_SEEDS)],
        "budget_seconds": GRID_CELL_BUDGET,
        "derive_seeds": True,
        "execution_mode": "compiled",
        "step_budget": STEP_BUDGET,
    }


def grid_cells(spec: Dict[str, Any]):
    return campaign_grid_cells(
        spec["testers"], spec["engines"], seeds=spec["seeds"],
        budget_seconds=spec["budget_seconds"],
        derive_seeds=spec["derive_seeds"],
        execution_mode=spec["execution_mode"],
    )


def run_service(spec: Dict[str, Any], journal: Path, jobs: int,
                spans=None) -> Dict[str, Any]:
    """Run one job through the campaign service, stamping every cell.

    The benchmark drives ``tick()`` itself and polls ``job_record`` after
    each tick: a cell's latency runs from admission to the first poll that
    sees it ``done``.  With *spans*, ``submit`` and ``tick`` are recorded
    and the journal's fsyncs counted.
    """
    from repro.runtime.events import EventLog
    from repro.service import CampaignScheduler
    from repro.service.scheduler import replay_service_journal

    def timed(name, func, *args):
        if spans is None:
            return func(*args)
        span = spans.open(name)
        try:
            return func(*args)
        finally:
            spans.close(span)

    fsyncs = [0]
    sync = EventLog.sync

    def counting_sync(self):
        fsyncs[0] += 1
        sync(self)

    leased: Dict[tuple, float] = {}
    done: Dict[tuple, float] = {}
    if spans is not None:
        EventLog.sync = counting_sync
    try:
        scheduler = CampaignScheduler(journal, jobs=jobs,
                                      lease_seconds=300.0,
                                      heartbeat_seconds=0.5,
                                      poll_interval=0.005)
        try:
            admitted = time.perf_counter()
            record = timed("service.admit", scheduler.submit, spec)
            job = record["job"]
            while record["status"] == "running":
                timed("service.tick", scheduler.tick)
                now = time.perf_counter()
                if now - admitted > SERVICE_TIMEOUT:
                    raise RuntimeError(f"service job {job} did not finish "
                                       f"in {SERVICE_TIMEOUT} s")
                record = scheduler.job_record(job)
                for cell in record["cells"]:
                    key = (cell["tester"], cell["engine"], cell["seed"])
                    if cell["status"] != "pending":
                        leased.setdefault(key, now)
                    if cell["status"] in ("done", "quarantined"):
                        done.setdefault(key, now)
                if record["status"] == "running":
                    time.sleep(0.002)
            finished = time.perf_counter()
            scheduler.drain()
            scheduler.tick()
        finally:
            scheduler.close()
    finally:
        EventLog.sync = sync
    began = time.perf_counter()
    events = load_event_stream(journal)
    state = replay_service_journal(events)
    replay_s = time.perf_counter() - began
    campaigns = {}
    retries = quarantined = heartbeats = 0
    for event in events:
        kind = event.get("event")
        if kind == "cell_complete" and event.get("job") == job:
            key = (event["tester"], event["engine"], event["seed"])
            campaigns[key] = event["campaign"]
        elif kind == "cell_retry":
            retries += 1
        elif kind == "cell_quarantined":
            quarantined += 1
        elif kind == "heartbeat":
            heartbeats += 1
    recovered = state["jobs"].get(job, {}).get("done", {})
    return {
        "wall": finished - admitted,
        "latency": {key: done[key] - admitted for key in done},
        "lease_wait": {key: leased[key] - admitted for key in leased},
        "campaigns": campaigns,
        "recovered": len(recovered),
        "retries": retries,
        "quarantined": quarantined,
        "heartbeats": heartbeats,
        "fsyncs": fsyncs[0],
        "journal_bytes": journal.stat().st_size,
        "replay_s": replay_s,
    }


def run_grid_inline(run: Run, cells) -> Dict[tuple, Any]:
    """The same cells, one after the other in this process, stamped."""
    campaigns = {}
    for cell in cells:
        log = StampLog(run.stamps, f"{cell.tester}/{cell.engine}")
        run.speed.sample()
        began = time.perf_counter()
        result = run_tool_campaign(
            cell.tester, cell.engine, budget_seconds=cell.budget_seconds,
            seed=cell.seed, execution_mode=cell.execution_mode, events=log,
            step_budget=STEP_BUDGET,
        )
        run.unit_walls.append(time.perf_counter() - began)
        check_campaign(run, result, tester=cell.tester)
        campaigns[cell.key] = campaign_to_dict(result)
    return campaigns


def run_grid(seed: int, rounds: int, workdir: Path,
             inline_only: bool = False, spans=None,
             stamps: Optional[QueryStamps] = None) -> Run:
    """Grid rounds: service, then runner, then inline; results must agree.

    The service and runner legs run on the first ``MIN_UNITS`` rounds
    (over 100 cells); later rounds, and every round with *inline_only*
    (the traced pass only needs the in-cell layers), run inline only.
    """
    jobs = len(os.sched_getaffinity(0))
    run = Run(stamps=stamps or QueryStamps())
    workdir.mkdir(parents=True, exist_ok=True)
    run.extra.update(service_latency=[], service_wall=0.0, runner_wall=0.0,
                     service_rounds=[],
                     service_cells=0, lease_wait=[], dispatch=[],
                     retries=0, quarantined=0, heartbeats=0, fsyncs=0,
                     journal_bytes=0, replay_s=0.0, inline_wall=0.0)
    run.start = time.perf_counter()
    for round_index in range(rounds):
        if stalled(run, round_index, MIN_UNITS["grid"]):
            break
        spec = grid_spec(seed, round_index)
        cells = grid_cells(spec)
        legs = not inline_only and round_index < MIN_UNITS["grid"]
        if legs:
            service = run_service(spec, workdir / f"journal-{round_index}"
                                  ".jsonl", jobs, spans=spans)
            began = time.perf_counter()
            runner = run_campaign_grid(
                spec["testers"], spec["engines"], seeds=spec["seeds"],
                budget_seconds=spec["budget_seconds"],
                derive_seeds=spec["derive_seeds"], jobs=jobs,
                execution_mode=spec["execution_mode"],
                step_budget=spec["step_budget"],
            )
            run.extra["runner_wall"] += time.perf_counter() - began
        walls_before = len(run.unit_walls)
        began = time.perf_counter()
        inline = run_grid_inline(run, cells)
        run.extra["inline_wall"] += time.perf_counter() - began
        if legs:
            extra = run.extra
            extra["service_wall"] += service["wall"]
            extra["service_rounds"].append(
                (sum(c["queries_run"] for c in service["campaigns"].values()),
                 service["wall"]))
            extra["service_cells"] += len(cells)
            extra["service_latency"] += list(service["latency"].values())
            extra["lease_wait"] += list(service["lease_wait"].values())
            for cell, wall in zip(cells, run.unit_walls[walls_before:]):
                key = cell.key
                if key in service["latency"]:
                    extra["dispatch"].append(
                        service["latency"][key]
                        - service["lease_wait"].get(key, 0.0) - wall
                    )
            for name in ("retries", "quarantined", "heartbeats", "fsyncs",
                         "journal_bytes", "replay_s"):
                extra[name] += service[name]
            run.failed += service["retries"] + service["quarantined"]
            by_runner = {key: campaign_to_dict(result)
                         for key, result in runner.items()}
            check_grid_identity(run, cells, inline, by_runner,
                                service["campaigns"], service["recovered"])
        if round_index < MIN_UNITS["grid"]:
            run.documents.append([inline[cell.key] for cell in cells])
        run.extra["units"] = round_index + 1
    run.wall = time.perf_counter() - run.start
    return run


def check_grid_identity(run: Run, cells, inline, runner, service,
                        recovered: int) -> None:
    def canonical(document):
        return json.dumps(document, sort_keys=True)

    for cell in cells:
        key = cell.key
        if key not in service:
            run.problems.append(f"service grid lost cell {key}")
            continue
        if canonical(service[key]) != canonical(runner.get(key)):
            run.problems.append(f"service and runner grids differ on {key}")
        if canonical(inline[key]) != canonical(runner.get(key)):
            run.problems.append(f"inline and runner grids differ on {key}")
    if recovered != len(cells):
        run.problems.append(
            f"journal replay recovered {recovered} of {len(cells)} cells"
        )


# -- entry points used by run.py ---------------------------------------------


def execute(workload: str, seed: int, units: int, workdir: Path,
            inline_only: bool = False, spans=None,
            stamps: Optional[QueryStamps] = None) -> Run:
    if workload == "grid":
        return run_grid(seed, units, workdir, inline_only=inline_only,
                        spans=spans, stamps=stamps)
    return run_gqs(workload, seed, units, workdir, stamps=stamps)


def prepare(workload: str, seed: int) -> Any:
    """Build the run's inputs without running them: what set-up costs.

    Imports happen when this module loads; this constructs the first
    round's engines, testers and specs.
    """
    from repro.experiments.campaign import make_tester
    from repro.gdb import create_engine

    if workload == "grid":
        spec = grid_spec(seed, 0)
        cells = grid_cells(spec)
        from repro.service import CampaignScheduler, JobSpec  # noqa: F401

        JobSpec.from_dict(spec)
        pairs = {(cell.tester, cell.engine) for cell in cells}
    else:
        units = [gqs_unit(workload, seed, i)
                 for i in range(MIN_UNITS[workload])]
        pairs = {(u["tester_name"], u["engine_name"]) for u in units}
    built = []
    for tester, engine in sorted(pairs):
        built.append(create_engine(engine, execution_mode="compiled"))
        built.append(make_tester(
            tester, engine,
            stateful=0.5 if workload == "gqs-write" else None,
        ))
    return built


def fresh_workdir(root: Path, workload: str, seed: int) -> Path:
    path = root / f"{workload}-{seed}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def end_to_end(run: Run, workload: str) -> Dict[str, float]:
    """The gated end-to-end metrics of one untraced pass (setup aside).

    Both times are scaled to the quiet host by the run's slowdown
    (``hostspeed.py``); the raw figures are in :func:`details`.
    ``qps`` is the tail-trimmed rate over the campaign cells' wall time
    (reduction on triage-reduce and the service and runner legs of grid
    are reported apart): one query that runs into the step budget takes
    seconds, which would swing a rate over every query by tens of percent
    from seed to seed.  The untrimmed rate is ``qps_untrimmed`` in
    :func:`details`.  ``query_p50_ms`` is over reads: on gqs-write, about
    half the statements are writes an order of magnitude cheaper than
    reads, and the median of the mix falls in the gap between them.
    """
    slowdown = run.speed.slowdown()
    return {
        "qps": raw_qps(run) * slowdown,
        "query_p50_ms": raw_p50_ms(run) / slowdown,
        "peak_rss_mb": peak_rss_mb(children=workload == "grid"),
    }


def raw_qps(run: Run) -> float:
    return trimmed_rate(run.stamps.latency, sum(run.unit_walls))


def raw_p50_ms(run: Run) -> float:
    return statistics.median(1000.0 * value for value, label
                             in zip(run.stamps.latency, run.stamps.labels)
                             if label != WRITE_LABEL)


def details(run: Run, workload: str) -> Dict[str, Any]:
    """Every other figure of a pass, printed beside the gated ones."""
    latency_ms = [1000.0 * value for value in run.stamps.latency]
    out: Dict[str, Any] = {
        "units": run.extra["units"],
        "stopped_at": run.extra.get("stopped_at"),
        "slowdown": run.speed.slowdown(),
        "qps_raw": raw_qps(run),
        "query_p50_ms_raw": raw_p50_ms(run),
        "queries": len(latency_ms),
        "qps_total": len(latency_ms) / run.wall,
        "qps_untrimmed": len(latency_ms) / sum(run.unit_walls),
        "query_p99_ms": percentile(latency_ms, 0.99),
        "query_max_ms": max(latency_ms),
        "fail_frac": run.failed / run.attempted,
        "wall_s": run.wall,
        "cell_p50_s": statistics.median(run.unit_walls),
    }
    writes = [1000.0 * value for value, label
              in zip(run.stamps.latency, run.stamps.labels)
              if label == WRITE_LABEL]
    if writes:
        out["write_p50_ms"] = statistics.median(writes)
        out["writes"] = len(writes)
    if run.reduce_walls:
        out["reduce_p50_s"] = statistics.median(run.reduce_walls)
        out["bundles"] = run.bundles
    if workload == "grid":
        extra = run.extra
        out["cells_per_s"] = extra["service_cells"] / extra["service_wall"]
        out["cell_p50_s"] = statistics.median(extra["service_latency"])
        out["cell_p90_s"] = percentile(extra["service_latency"], 0.90)
        out["runner_cells_per_s"] = (extra["service_cells"]
                                     / extra["runner_wall"])
        out["cells"] = extra["service_cells"]
        out["service_rounds"] = extra["service_rounds"]
        out["service_qps"] = statistics.median(
            queries / wall for queries, wall in extra["service_rounds"])
    return out
