"""Which public entry point of the program stands for which layer.

:func:`install` wraps each entry point with a :class:`spans.SpanRecorder`
span and returns an undo function.  Methods are replaced on their class;
module-level functions are replaced in every loaded ``repro`` module that
imported them by name, so callers that did ``from x import f`` are traced
too.  Nothing in the program changes while no traced run is active.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Optional, Tuple

from spans import SpanRecorder

#: (module, attribute, span name) of the module-level functions traced.
FUNCTIONS = (
    ("repro.cypher.printer", "print_query", "cypher.print"),
    ("repro.cypher.parser", "parse_query", "cypher.parse"),
    ("repro.core.ground_truth", "select_ground_truth", "synth.ground_truth"),
    ("repro.core.oracle", "check_result", "oracle.check"),
    ("repro.synth.state.oracle", "state_digest", "state.digest"),
    ("repro.engine.plan.planner", "build_plan", "plan.build"),
    ("repro.gdb.faults", "extract_features", "gdb.features"),
    ("repro.reduce.runner", "reduce_bundle", "reduce.bundle"),
)

#: (module, class, method, span name) of the methods traced.
METHODS = (
    ("repro.graph.generator", "GraphGenerator", "generate_with_schema",
     "graph.generate"),
    ("repro.graph.model", "PropertyGraph", "copy", "graph.copy"),
    ("repro.core.synthesizer", "QuerySynthesizer", "synthesize",
     "synth.synthesize"),
    ("repro.synth.state.model", "StateModel", "apply", "state.shadow_apply"),
    ("repro.engine.executor", "Executor", "execute", "engine.interpret"),
    ("repro.gdb.engines", "GraphDatabase", "load_graph", "gdb.load_graph"),
    ("repro.core.runner", "GQSTester", "judge", "core.judge"),
    ("repro.synth.state.tester", "StatefulGQSTester", "judge", "core.judge"),
    ("repro.baselines.common", "BaselineTester", "judge", "baselines.judge"),
    ("repro.baselines.gdsmith", "GDsmithTester", "judge", "baselines.judge"),
    ("repro.runtime.kernel", "CampaignKernel", "run", "runtime.kernel"),
    ("repro.runtime.events", "EventLog", "emit", "runtime.emit"),
    ("repro.obs.coverage", "CellCoverage", "observe", "obs.coverage"),
    ("repro.obs.triage", "CellTriage", "add", "obs.triage"),
    ("repro.obs.recorder", "FlightRecorder", "record", "obs.record"),
    ("repro.reduce.oracle", "ReductionOracle", "accepts", "reduce.accepts"),
    ("repro.reduce.oracle", "ReductionOracle", "outcome", "reduce.replay"),
)

#: Generator methods, timed over their iteration.
GENERATORS = (
    ("repro.core.runner", "GQSTester", "proposals", "core.propose"),
    ("repro.synth.state.tester", "StatefulGQSTester", "proposals",
     "core.propose"),
    ("repro.baselines.common", "BaselineTester", "proposals",
     "baselines.propose"),
)


def _replace_everywhere(original: Any, replacement: Any,
                        undo: List[Tuple[Any, str, Any]]) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def install(recorder: SpanRecorder,
            on_judge: Optional[Callable[[Any, Any], None]] = None
            ) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function that unwraps.

    *on_judge* is called with ``(engine, proposal)`` before each judged
    query, so the caller can label the query it is about to stamp.
    """
    undo: List[Tuple[Any, str, Any]] = []

    def outermost(span):
        # Plans recurse into union branches; one span per query, not per
        # branch, keeps ``plan.*_calls`` comparable to judged queries.
        return lambda *args, **kwargs: (
            None if recorder.inside(span) else span
        )

    for module_name, attr, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        name_for = outermost(span) if span == "plan.build" else None
        _replace_everywhere(original,
                            recorder.wrap(span, original, name_for), undo)

    def patch(module_name, class_name, method, wrapped_for):
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[method]
        undo.append((cls, method, original))
        setattr(cls, method, wrapped_for(original))

    for module_name, class_name, method, span in METHODS:
        if span in ("core.judge", "baselines.judge"):
            patch(module_name, class_name, method,
                  lambda original, span=span: _labelled(
                      recorder.wrap(span, original), on_judge))
        else:
            patch(module_name, class_name, method,
                  lambda original, span=span: recorder.wrap(span, original))

    # Compiled plans: also count the rows they return (the base of
    # ``plan.scan_rows_per_result``).
    def counting_plan(original):
        traced = recorder.wrap("plan.execute", original,
                               outermost("plan.execute"))

        def execute(self, ctx):
            result = traced(self, ctx)
            if not recorder.inside("plan.execute"):
                recorder.count("plan.result_rows", len(result.rows))
            return result
        return execute

    for class_name in ("CompiledPlan", "UnionPlan"):
        patch("repro.engine.plan.planner", class_name, "execute",
              counting_plan)
    for module_name, class_name, method, span in GENERATORS:
        patch(module_name, class_name, method,
              lambda original, span=span:
              recorder.wrap_generator(span, original))

    # The reference matcher serves both synthesis (pinning a ground truth
    # to a unique match) and the interpreter; only the synthesis share is
    # its own layer metric, the rest stays in ``engine.interpret``.
    patch("repro.engine.matcher", "Matcher", "match",
          lambda original: recorder.wrap_generator(
              "synth.pin_match", original,
              name_for=lambda *a, **k: (
                  "synth.pin_match"
                  if recorder.inside("synth.synthesize") else None
              ),
          ))

    # Plan-cache lookups and hits, counted where the lookup happens so
    # replay and reduction engines (which run with PROBE off) count too.
    def counting_get(original):
        def get(self, key):
            plan = original(self, key)
            recorder.count("plan.cache_lookups")
            if plan is not None:
                recorder.count("plan.cache_hits")
            return plan
        return get

    patch("repro.engine.plan.cache", "PlanCache", "get", counting_get)

    # Judged engine executions that fired an injected fault.
    def counting_execute(original):
        traced = recorder.wrap("gdb.execute", original)

        def execute(self, query):
            try:
                return traced(self, query)
            finally:
                if self.last_fired_fault is not None:
                    recorder.count("gdb.fault_fired")
        return execute

    patch("repro.gdb.engines", "GraphDatabase", "execute", counting_execute)

    # Stateful proposals: time them and count the writes among them.
    def counting_propose(original):
        traced = recorder.wrap("state.propose", original)

        def propose(self):
            proposal = traced(self)
            if proposal.is_write:
                recorder.count("state.writes")
            return proposal
        return propose

    patch("repro.synth.state.synthesizer", "StatefulSynthesizer", "propose",
          counting_propose)

    return _undoer(undo)


def _labelled(judge: Callable, on_judge) -> Callable:
    if on_judge is None:
        return judge

    def labelled(self, engine, proposal, *args, **kwargs):
        on_judge(engine, proposal)
        return judge(self, engine, proposal, *args, **kwargs)
    return labelled


def label_judges(on_judge: Callable[[Any, Any], None]) -> Callable[[], None]:
    """Only call *on_judge* before each judged query; no spans."""
    undo: List[Tuple[Any, str, Any]] = []
    for module_name, class_name, method, span in METHODS:
        if span not in ("core.judge", "baselines.judge"):
            continue
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[method]
        undo.append((cls, method, original))
        setattr(cls, method, _labelled(original, on_judge))
    return _undoer(undo)


def _undoer(undo: List[Tuple[Any, str, Any]]) -> Callable[[], None]:
    def uninstall() -> None:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)
        undo.clear()
    return uninstall
