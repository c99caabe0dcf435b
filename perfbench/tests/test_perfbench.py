"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

from spans import SpanRecorder, covered, self_times  # noqa: E402
from stamping import (  # noqa: E402
    QueryStamps,
    StampLog,
    percentile,
    valid_name,
    valid_unit,
    trimmed_rate,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- per-query stamping -----------------------------------------------------


def test_query_latency_runs_from_graph_load_or_previous_query():
    clock = FakeClock()
    stamps = QueryStamps(clock=clock)
    log = StampLog(stamps, "neo4j")
    for kind, at in (("graph", 1.0), ("query", 3.0), ("query", 4.5),
                     ("graph", 10.0), ("query", 12.0)):
        clock.now = at
        log.emit(kind, n=0)
    # Graph generation between 4.5 and 10.0 is not a query's latency.
    assert stamps.latency == [2.0, 1.5, 2.0]
    assert stamps.labels == ["neo4j"] * 3
    # The log still behaves as an event log that records queries.
    assert len(log.of_kind("query")) == 3


def test_query_start_hook_sees_the_next_query_index():
    clock = FakeClock()
    stamps = QueryStamps(clock=clock)
    seen = []
    stamps.on_query_start = seen.append
    stamps.graph_loaded()
    stamps.query_judged("a")
    stamps.query_judged("a")
    assert seen == [0, 1, 2]


def test_trimmed_rate_leaves_out_the_slowest_share():
    # 200 queries of 0.01 s plus two pathological ones, in 10 s of wall.
    latency = [0.01] * 198 + [3.0, 4.0]
    # ceil(1% of 200) = 2 queries and their 7 s leave the rate.
    assert trimmed_rate(latency, 10.0, share=0.01) == pytest.approx(198 / 3.0)
    # ceil(5% of 200) = 10: eight ordinary queries go with them.
    assert trimmed_rate(latency, 10.0) == pytest.approx(190 / 2.92)
    assert trimmed_rate([0.5], 2.0, share=0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        trimmed_rate([], 1.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- spans ------------------------------------------------------------------


def test_covered_merges_overlapping_intervals():
    assert covered([(1, 3), (2, 5), (6, 7)]) == 5
    assert covered([]) == 0


def test_self_time_subtracts_only_what_children_cover():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["child", 1.0, 3.0, 0, None],
        ["child", 4.0, 5.0, 0, None],
        ["leaf", 6.0, 7.0, 0, None],
        ["grandchild", 1.5, 2.5, 1, None],
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 4.0)
    # The grandchild is subtracted from its parent only.
    assert own["child"] == pytest.approx((2.0 - 1.0) + 1.0)
    assert own["leaf"] == pytest.approx(1.0)
    assert own["grandchild"] == pytest.approx(1.0)
    # Self times add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_record_parents():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def inner():
        clock.now += 2.0

    traced_inner = recorder.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()

    recorder.wrap("outer", outer)()
    own = recorder.self_times()
    assert own == {"outer": pytest.approx(1.0), "inner": pytest.approx(2.0)}
    outer_span, inner_span = recorder.spans
    assert inner_span[3] == 0 and outer_span[3] == -1


def test_generators_are_timed_over_their_iteration():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def produce():
        for item in range(3):
            clock.now += 1.0
            yield item

    traced = recorder.wrap_generator("gen", produce)
    iterator = traced()
    assert recorder.spans == []  # creation alone is not the work
    assert list(iterator) == [0, 1, 2]
    # One span per next(), including the one that ends the iteration.
    assert len(recorder.spans) == 4
    assert recorder.self_times()["gen"] == pytest.approx(3.0)


def test_a_span_name_of_none_records_nothing():
    recorder = SpanRecorder()
    traced = recorder.wrap("x", lambda: 5, name_for=lambda: None)
    assert traced() == 5
    assert recorder.spans == []


# -- the contract -----------------------------------------------------------


@pytest.mark.parametrize("name", ["qps", "plan.cache_hit_ratio",
                                  "gqs-read", "query_p50_ms", "9lives"])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65,
                                  "é"])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "queries/s", "%", "MB"):
        assert valid_unit(unit)
    for unit in ("", "a b", "x" * 17):
        assert not valid_unit(unit)


def test_contract_names_and_units_follow_the_grammar():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in contract["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in contract[group]:
            names.append(metric["name"])
            assert valid_unit(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    assert all(valid_name(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert max(m["bound"] for m in contract["end_to_end"]) <= 0.25


def test_work_is_fixed_by_seconds_in_whole_blocks():
    import workloads

    for workload in ("gqs-read", "gqs-write", "triage-reduce"):
        for seconds in (0, 1, 7.5, 25, 60):
            units = workloads.units_for(workload, seconds)
            assert units % workloads.BLOCK == 0
            assert units >= workloads.MIN_UNITS[workload]
            assert units == workloads.units_for(workload, seconds)
    assert workloads.units_for("grid", 0) == workloads.MIN_UNITS["grid"]
    assert (workloads.units_for("gqs-read", 60)
            > workloads.units_for("gqs-read", 10))


def test_slowdown_is_the_mean_probe_time_over_the_nominal():
    import gc

    import hostspeed

    speed = hostspeed.HostSpeed()
    assert speed.slowdown() == 1.0
    speed.samples = [hostspeed.NOMINAL_S, 3 * hostspeed.NOMINAL_S]
    assert speed.slowdown() == pytest.approx(2.0)
    # The probe turns the collector off only while it runs.
    assert gc.isenabled()
    assert hostspeed.probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_stalled_run_stops_only_past_its_minimum():
    import time

    import workloads

    run = workloads.Run()
    run.start = time.perf_counter()
    assert not workloads.stalled(run, 50, 8)
    run.start -= workloads.MAX_RUN_S
    assert not workloads.stalled(run, 7, 8)
    assert workloads.stalled(run, 8, 8)
    assert run.extra["stopped_at"] == 8


# -- layers -----------------------------------------------------------------


def test_installing_layers_is_undone_completely():
    import layers
    from repro.cypher import parser, printer
    from repro.gdb.engines import GraphDatabase

    before = (printer.print_query, parser.parse_query,
              GraphDatabase.__dict__["execute"])
    undo = layers.install(SpanRecorder())
    assert printer.print_query is not before[0]
    undo()
    after = (printer.print_query, parser.parse_query,
             GraphDatabase.__dict__["execute"])
    assert after == before


def test_label_hook_nests_inside_the_traced_layers():
    # gqs-write labels each statement through label_judges, also while
    # the traced pass has the layers installed; both undo in turn.
    import layers
    from repro.core.runner import GQSTester
    from repro.synth.state.tester import StatefulGQSTester

    before = (GQSTester.__dict__["judge"],
              StatefulGQSTester.__dict__["judge"])
    undo_layers = layers.install(SpanRecorder())
    traced = StatefulGQSTester.__dict__["judge"]
    undo_label = layers.label_judges(lambda engine, proposal: None)
    assert StatefulGQSTester.__dict__["judge"] is not traced
    undo_label()
    assert StatefulGQSTester.__dict__["judge"] is traced
    undo_layers()
    assert (GQSTester.__dict__["judge"],
            StatefulGQSTester.__dict__["judge"]) == before
