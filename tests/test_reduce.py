"""Signature-preserving test-case reduction (:mod:`repro.reduce`).

Covers the subsystem's contract end to end:

* ddmin minimizes correctly and deterministically;
* the oracle accepts only candidates that replay to the recorded triage
  signature, and refuses bundles that never reproduced;
* reduction is deterministic — the same bundle minimizes to the
  byte-identical ``*.min.json`` for repeated runs and any job count;
* every minimized bundle still replays to its original signature and is
  strictly smaller than its source;
* over a ≥20-bundle fault-injection sample, the mean shrink of graph
  elements (nodes + relationships) is at least 50% — the headline number
  that makes reduced bundles worth reading;
* the campaign integration (``--reduce`` / auto-reduce) writes minimized
  siblings, emits ``reduction`` events, and surfaces sizes in
  ``repro bugs``.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.campaign import run_tool_campaign
from repro.obs import load_bundle, replay_bundle
from repro.obs.recorder import FlightRecorder
from repro.reduce import (
    ReductionOracle,
    ReductionRunner,
    bundle_sizes,
    ddmin,
    failure_shape,
    graph_sizes,
    iter_bundle_paths,
    min_path_for,
    reduce_bundle,
    shrink_graph,
    validate_against_schema,
)

SMOKE = dict(budget_seconds=6.0, gate_scale=0.05)
# Replays per bundle: enough for the full graph passes (the shrink-ratio
# criterion) plus the start of query reduction, while keeping the module
# fast.  Tests that need the true fixpoint run unbudgeted on one bundle.
BUDGET = 100


# -- corpus: real bundles from seeded fault-injection campaigns -------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """≥20 repro bundles across two engines × two seeds."""
    directory = tmp_path_factory.mktemp("bundles")
    for engine in ("falkordb", "kuzu"):
        for seed in (0, 1):
            run_tool_campaign(
                "GQS", engine, seed=seed, record_triage=True,
                bundle_dir=directory, **SMOKE,
            )
    return directory


@pytest.fixture(scope="module")
def reduced(corpus):
    """The corpus minimized in place (``*.min.json`` siblings written)."""
    return ReductionRunner(jobs=2, replay_budget=BUDGET).run([corpus])


# -- ddmin ------------------------------------------------------------------


class TestDdmin:
    def test_finds_singleton_cause(self):
        calls = []

        def test(items):
            calls.append(list(items))
            return 7 in items

        assert ddmin(list(range(16)), test) == [7]

    def test_finds_multi_element_cause(self):
        # The classic ddmin shape: two far-apart elements must both stay.
        result = ddmin(list(range(32)), lambda s: 3 in s and 29 in s)
        assert result == [3, 29]

    def test_respects_min_size(self):
        assert ddmin([1, 2, 3, 4], lambda s: True, min_size=1) in ([1], [4])
        assert len(ddmin([1, 2, 3, 4], lambda s: True, min_size=2)) == 2

    def test_unremovable_input_survives(self):
        items = [1, 2, 3]
        assert ddmin(items, lambda s: len(s) == 3) == items

    def test_deterministic(self):
        runs = [
            ddmin(list(range(24)), lambda s: 5 in s and 17 in s)
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]


# -- oracle contract --------------------------------------------------------


class TestOracle:
    def test_failure_shape(self):
        assert failure_shape({"rows": [[1]], "columns": ["a"]}) is None
        # Error shapes normalize to the exception type alone.
        assert (
            failure_shape({"error": "CypherError: boom at 42"})
            == "CypherError"
        )

    def test_rejects_non_bundle(self):
        with pytest.raises(ValueError):
            ReductionOracle({"format": "something-else"})

    def test_baseline_accepts_recorded_bundle(self, corpus):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        oracle = ReductionOracle(bundle)
        assert oracle.baseline()
        assert oracle.replays == 2

    def test_preservation_contract(self, corpus):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        oracle = ReductionOracle(bundle)
        expected = bundle["expected"]
        actual = bundle["actual"]
        # The recorded sides themselves satisfy the contract...
        assert oracle.preserves_signature(expected, actual)
        # ...a candidate whose discrepancy vanished does not...
        assert not oracle.preserves_signature(expected, expected)
        # ...nor one that trips a *different* fault...
        other = dict(actual, fault_id="some-other-fault")
        assert not oracle.preserves_signature(expected, other)
        # ...nor one whose failure shape changed (rows -> error).
        errored = {"error": "DatabaseCrash: gone", "fault_id": bundle["fault_id"]}
        if "error" not in actual:
            assert not oracle.preserves_signature(expected, errored)

    def test_verdicts_are_memoized(self, corpus):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        oracle = ReductionOracle(bundle)
        assert oracle.baseline()
        replays = oracle.replays
        assert oracle.accepts()  # same candidate — cached, no new replays
        assert oracle.replays == replays

    def test_replay_budget_exhausts_deterministically(self, corpus):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        oracle = ReductionOracle(bundle, replay_budget=2)
        assert oracle.baseline()
        assert oracle.exhausted
        # Uncached candidates are rejected without spending replays.
        assert not oracle.accepts(query="MATCH (n) RETURN n.id AS a")
        assert oracle.replays == 2

    def test_refuses_unreproducible_bundle(self, corpus, tmp_path):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        bundle["expected"] = {"columns": ["x"], "rows": [["tampered"]]}
        bundle["fault_id"] = "falkordb-L999"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(bundle), encoding="utf-8")
        outcome = reduce_bundle(path)
        assert not outcome.reproduced
        assert not min_path_for(path).exists()


# -- graph shrinker ---------------------------------------------------------


class TestGraphShrink:
    def test_schema_validation_accepts_recorded_graphs(self, corpus):
        for path in iter_bundle_paths([corpus])[:4]:
            bundle = load_bundle(path)
            assert validate_against_schema(bundle["graph"], bundle["schema"])

    def test_schema_validation_rejects_undeclared_usage(self, corpus):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        graph = json.loads(json.dumps(bundle["graph"]))
        graph["nodes"][0]["labels"] = ["NOT_DECLARED"]
        assert not validate_against_schema(graph, bundle["schema"])

    def test_vacuous_without_schema(self, corpus):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        assert validate_against_schema(bundle["graph"], None)

    def test_shrinks_nodes_and_relationships(self, corpus):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        oracle = ReductionOracle(bundle)
        shrunk = shrink_graph(
            bundle["graph"], oracle,
            query=bundle["query"], schema=bundle["schema"],
        )
        before = graph_sizes(bundle["graph"])
        after = graph_sizes(shrunk)
        assert after["nodes"] < before["nodes"]
        assert after["relationships"] < before["relationships"]
        # The shrunk graph still reproduces the signature.
        assert oracle.accepts(graph=shrunk, query=bundle["query"])


# -- end-to-end reduction ---------------------------------------------------


class TestReduction:
    def test_corpus_is_a_twenty_bundle_sample(self, corpus):
        assert len(iter_bundle_paths([corpus])) >= 20

    def test_mean_graph_shrink_at_least_half(self, reduced):
        ratios = [o.graph_shrink_ratio for o in reduced if o.reproduced]
        assert len(ratios) >= 20
        assert sum(ratios) / len(ratios) >= 0.5

    def test_minimized_bundles_replay_to_same_signature(self, corpus, reduced):
        checked = 0
        for outcome in reduced:
            if not outcome.reproduced:
                continue
            minimized = load_bundle(outcome.min_path)
            original = load_bundle(outcome.source)
            assert minimized["signature"] == original["signature"]
            assert minimized["fault_id"] == original["fault_id"]
            # The minimized bundle is reproducible by construction: its
            # recorded sides replay byte-identically, and the discrepancy
            # still satisfies the signature-preservation contract.
            assert replay_bundle(minimized).reproduced
            assert ReductionOracle(minimized).baseline()
            checked += 1
        assert checked >= 20

    def test_minimized_bundles_strictly_smaller(self, reduced):
        for outcome in reduced:
            if not outcome.reproduced:
                continue
            before, after = outcome.original, outcome.reduced
            total_before = sum(before[k] for k in before)
            total_after = sum(after[k] for k in after)
            assert total_after < total_before
            assert after["nodes"] <= before["nodes"]
            assert after["relationships"] <= before["relationships"]

    def test_reduction_stats_embedded_in_min_bundle(self, reduced):
        outcome = next(o for o in reduced if o.reproduced)
        minimized = load_bundle(outcome.min_path)
        stats = minimized["reduction"]
        assert stats["original"] == outcome.original
        assert stats["reduced"] == outcome.reduced
        assert stats["reduced"] == bundle_sizes(minimized)

    def test_deterministic_rerun_and_job_count(self, corpus, tmp_path):
        # The two smallest bundles keep the double reduction cheap.
        paths = sorted(
            iter_bundle_paths([corpus]), key=lambda p: p.stat().st_size
        )[:2]
        for name, jobs in (("a", 1), ("b", 2)):
            directory = tmp_path / name
            directory.mkdir()
            for path in paths:
                (directory / path.name).write_bytes(path.read_bytes())
            ReductionRunner(jobs=jobs, replay_budget=BUDGET).run([directory])
        for path in paths:
            one = (tmp_path / "a" / min_path_for(path).name).read_bytes()
            two = (tmp_path / "b" / min_path_for(path).name).read_bytes()
            assert one == two


# -- campaign integration and CLI -------------------------------------------


class TestIntegration:
    @pytest.fixture(scope="class")
    def reduced_campaign(self, tmp_path_factory, request):
        """A small campaign with auto-reduce on (budget dialed down)."""
        previous = FlightRecorder.DEFAULT_REDUCE_BUDGET
        FlightRecorder.DEFAULT_REDUCE_BUDGET = 60
        request.addfinalizer(
            lambda: setattr(FlightRecorder, "DEFAULT_REDUCE_BUDGET", previous)
        )
        directory = tmp_path_factory.mktemp("campaign")
        events = directory / "events.jsonl"
        bundles = directory / "bundles"
        rc = main([
            "campaign", "--engine", "memgraph", "--minutes", "0.1",
            "--gate-scale", "0.05", "--triage",
            "--events", str(events), "--bundles", str(bundles), "--reduce",
        ])
        assert rc == 0
        return events, bundles

    def test_auto_reduce_writes_min_bundles(self, reduced_campaign):
        _events, bundles = reduced_campaign
        sources = iter_bundle_paths([bundles])
        assert sources
        for path in sources:
            assert min_path_for(path).exists()

    def test_reduction_events_emitted(self, reduced_campaign):
        events_path, _bundles = reduced_campaign
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        reductions = [e for e in events if e.get("event") == "reduction"]
        bundle_events = [e for e in events if e.get("event") == "bundle"]
        assert len(reductions) == len(bundle_events)
        for event in reductions:
            assert event["stats"]["reproduced"]
            assert event["min_path"].endswith(".min.json")

    def test_bugs_render_shows_reduced_sizes(self, reduced_campaign, capsys):
        events_path, _bundles = reduced_campaign
        assert main(["bugs", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "reduced: nodes " in out
        assert ".min.json" in out

    def test_cli_reduce_exit_codes(self, corpus, tmp_path, capsys):
        assert main(["reduce", str(tmp_path / "missing.json")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["reduce", str(empty)]) == 2
        capsys.readouterr()
        source = iter_bundle_paths([corpus])[0]
        copy = tmp_path / source.name
        copy.write_bytes(source.read_bytes())
        assert main(["reduce", str(copy), "--replay-budget", "60"]) == 0
        out = capsys.readouterr().out
        assert str(min_path_for(copy)) in out
        assert min_path_for(copy).exists()

    def test_cli_reduce_fails_on_unreproducible_bundle(
        self, corpus, tmp_path, capsys
    ):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        bundle["expected"] = {"columns": ["x"], "rows": [["tampered"]]}
        bundle["fault_id"] = "falkordb-L999"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(bundle), encoding="utf-8")
        assert main(["reduce", str(path)]) == 1
        assert "FAILED to reproduce" in capsys.readouterr().err

    def test_cli_reduce_flag_requires_bundles(self, capsys):
        rc = main([
            "campaign", "--engine", "falkordb", "--minutes", "0.01",
            "--reduce",
        ])
        assert rc == 2
        assert "--reduce requires --bundles" in capsys.readouterr().err

    def test_cli_replay_names_diverged_side(self, corpus, tmp_path, capsys):
        bundle = load_bundle(iter_bundle_paths([corpus])[0])
        bundle["expected"] = {"columns": ["x"], "rows": [["tampered"]]}
        path = tmp_path / "diverged.json"
        path.write_text(json.dumps(bundle), encoding="utf-8")
        assert main(["replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert "expected side(s) diverged" in err
        assert "FAILED to reproduce" in err


class TestNonFiniteConstantBundle:
    def test_bundle_with_infinite_constant_reproduces(self, tmp_path):
        # The campaign gates faults on the synthesized tree; replay gates
        # them on the printed text.  In this campaign a query holding an
        # infinite float constant once had a tree whose features differed
        # from its text's (a `Literal(inf)` prints as a division), so
        # `falkordb-L1` fired in the campaign but not on replay, and the
        # bundle never reproduced.
        run_tool_campaign(
            "GQS", "falkordb", budget_seconds=3600.0, seed=56176,
            max_queries=32, execution_mode="compiled",
            step_budget=1_000_000, gate_scale=0.2, record_triage=True,
            bundle_dir=tmp_path,
        )
        path = tmp_path / "GQS-falkordb-56176-af10840881e6.json"
        bundle = load_bundle(path)
        assert bundle["signature"] == "falkordb:falkordb-L1"
        assert bundle["discrepant"]
        assert replay_bundle(path).reproduced
        outcome = reduce_bundle(path, replay_budget=10,
                                step_budget=1_000_000, write=False)
        assert outcome.reproduced
