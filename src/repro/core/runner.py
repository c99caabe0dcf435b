"""The GQS tester (paper §3.1 workflow, steps 1-4, iterated).

One iteration: generate a random graph, load it into the GDB under test
(with a restart, for reproducibility), select an expected result set,
synthesize a query, execute it, and compare against the ground truth.
Subsequent iterations randomly either synthesize another query for the same
ground truth, select a new ground truth over the same graph, or start over
with a fresh graph — exactly the three continuation choices the paper
describes.

The campaign loop itself lives in :class:`repro.runtime.CampaignKernel`;
this module contributes GQS's side of the :class:`TesterProtocol`: the
restart-per-graph session policy, the ground-truth-driven proposal stream,
and the zero-false-positive oracle judgement.  ``BugReport`` and
``CampaignResult`` are re-exported from :mod:`repro.runtime.results` for
backwards compatibility.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, Optional

from repro.core.ground_truth import select_ground_truth
from repro.core.oracle import check_result
from repro.core.synthesizer import QuerySynthesizer, SynthesizerConfig
from repro.cypher.analysis import analyze, clause_types_in
from repro.cypher.printer import print_query
from repro.engine.errors import CypherError, DatabaseCrash, ResourceExhausted
from repro.gdb.engines import GraphDatabase
from repro.graph.generator import GeneratorConfig
from repro.runtime.protocol import Judgement, SessionPolicy, TesterProtocol
from repro.runtime.results import BugReport, CampaignResult

__all__ = ["BugReport", "CampaignResult", "GQSTester", "synthesizer_config_for"]


def synthesizer_config_for(engine: GraphDatabase, **overrides) -> SynthesizerConfig:
    """Dialect-aware synthesizer configuration (paper §4)."""
    config = SynthesizerConfig(
        supports_call_procedures=engine.dialect.supports_call_procedures,
        needs_uniqueness_predicates=not engine.dialect.enforces_rel_uniqueness,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class GQSTester(TesterProtocol):
    """The GQS approach packaged as a campaign-running tester."""

    name = "GQS"
    # Restart per graph: reproducible instances, at the cost of never
    # reaching the long-session accumulation crashes (§5.4.4).
    session = SessionPolicy.restart_each_graph()

    def __init__(
        self,
        generator_config: Optional[GeneratorConfig] = None,
        synthesizer_overrides: Optional[Dict[str, Any]] = None,
        queries_per_ground_truth: int = 4,
        ground_truths_per_graph: int = 3,
    ):
        self.generator_config = generator_config or GeneratorConfig()
        self._base_generator_config = self.generator_config
        self.synthesizer_overrides = synthesizer_overrides or {}
        self.queries_per_ground_truth = queries_per_ground_truth
        self.ground_truths_per_graph = ground_truths_per_graph
        self._synthesizer_config: Optional[SynthesizerConfig] = None
        self._weights = None

    # -- TesterProtocol ---------------------------------------------------

    def campaign_begin(self, engine: GraphDatabase, rng: random.Random) -> None:
        self._synthesizer_config = synthesizer_config_for(
            engine, **self.synthesizer_overrides
        )

    def apply_weights(self, weights) -> None:
        """Adopt a policy-issued weight profile for the next graph round.

        Graph-shape bumps rewrite ``generator_config`` from the declared
        base (profiles replace, never stack); synthesizer knobs are applied
        per-round inside :meth:`proposals` so the dialect-aware base config
        from :meth:`campaign_begin` stays pristine.
        """
        self._weights = weights
        self.generator_config = weights.apply_generator(
            self._base_generator_config
        )

    def proposals(
        self, engine: GraphDatabase, graph, schema, rng: random.Random
    ) -> Iterator[Any]:
        """Step 2 + 3: ground truths over this graph, then queries for each."""
        synthesizer = QuerySynthesizer(
            graph, rng=rng, config=self._synthesizer_config,
            weights=self._weights,
        )
        for _gt in range(rng.randint(1, self.ground_truths_per_graph)):
            ground_truth = select_ground_truth(
                graph, rng, synthesizer.config.max_ground_truth
            )
            for _q in range(rng.randint(1, self.queries_per_ground_truth)):
                yield synthesizer.synthesize(ground_truth)

    def judge(
        self,
        engine: GraphDatabase,
        synthesis,
        graph,
        rng: random.Random,
        result: CampaignResult,
    ) -> Judgement:
        """Step 4: execute and validate against the established ground truth."""
        result.sim_seconds += engine.cost_of(synthesis.query)

        kind: Optional[str] = None
        try:
            actual = engine.execute(synthesis.query)
        except (DatabaseCrash, ResourceExhausted, CypherError) as exc:
            # Step 4 (error case): crashes/hangs/exceptions are detected at
            # no extra oracle cost.
            kind, detail = "error", f"{type(exc).__name__}: {exc}"
        else:
            verdict = check_result(synthesis.expected, actual)
            if not verdict.passed:
                kind, detail = "logic", verdict.reason

        if kind is None:
            return Judgement()
        # Printed only for a report: the engine prints the query itself, and
        # most judged queries file none.
        query_text = print_query(synthesis.query)
        fault = engine.last_fired_fault
        report = BugReport(
            tester=self.name,
            engine=engine.name,
            kind=kind,
            detail=detail,
            query_text=query_text,
            fault_id=fault.fault_id if fault else None,
            sim_time=result.sim_seconds,
            n_steps=synthesis.n_steps,
        )

        def make_trigger_record() -> Dict[str, Any]:
            metrics = analyze(synthesis.query)
            return {
                "fault_id": report.fault_id,
                "engine": engine.name,
                "query_text": query_text,
                "n_steps": synthesis.n_steps,
                "patterns": metrics.patterns,
                "depth": metrics.expression_depth,
                "clauses": metrics.clauses,
                "dependencies": metrics.dependencies,
                "clause_names": clause_types_in(synthesis.query),
                "kind": report.kind,
                # §5.1: the paper observes all bugs trigger on small
                # graphs and small expected result sets.
                "graph_nodes": graph.node_count if graph else None,
                "graph_relationships": (
                    graph.relationship_count if graph else None
                ),
                "ground_truth_size": len(synthesis.ground_truth),
            }

        return Judgement(report=report, trigger_record=make_trigger_record)
