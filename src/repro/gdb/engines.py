"""Simulated graph databases under test.

Each engine couples the reference executor with a dialect and a fault
catalog.  Execution proceeds exactly like a production GDB from the tester's
perspective: load a graph, send Cypher (text or AST), get a result set or an
error.  Under the hood, the engine computes the *correct* answer with the
reference executor and then lets the first triggered fault perturb it —
wrong values, missing rows, crashes, hangs.

The ``last_fired_fault`` attribute is a white-box accounting hook: black-box
testers never see it, but the experiment harness uses it to deduplicate
detected discrepancies into distinct bugs, playing the role of the manual
root-cause deduplication the paper performs (§7, Limitations).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import KW_ONLY, dataclass, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Union

from repro.cypher import ast
from repro.cypher.parser import parse_query
from repro.cypher.printer import print_query
from repro.engine.binding import ResultSet
from repro.engine.envelope import ENVELOPE, evaluation_budget, parked_envelope
from repro.engine.errors import (
    CypherError,
    CypherRuntimeError,
    CypherTypeError,
    DatabaseCrash,
    EvaluationBudgetExceeded,
    PlanDivergenceError,
)
from repro.engine.executor import Executor, default_procedures
from repro.engine.plan import ExecutionContext, PlanCache, build_plan
from repro.gdb.catalog import faults_for
from repro.gdb.dialects import DIALECTS, Dialect
from repro.gdb.faults import Fault, extract_features
from repro.graph import values as V
from repro.graph.model import PropertyGraph
from repro.graph.schema import GraphSchema
from repro.obs import PROBE
from repro.obs.profile import PROFILE_STEP_CEILING, OperatorProfile

__all__ = [
    "GraphDatabase",
    "Session",
    "Neo4jSim",
    "MemgraphSim",
    "KuzuSim",
    "FalkorDBSim",
    "ReferenceGDB",
    "EngineOptions",
    "EngineSpec",
    "create_engine",
    "ALL_ENGINE_NAMES",
    "EXECUTION_MODES",
]

AnyQuery = Union[str, ast.Query, ast.UnionQuery]

ALL_ENGINE_NAMES = ("neo4j", "memgraph", "kuzu", "falkordb")

# How an engine evaluates the *correct* answer before fault perturbation:
# the reference interpreter, the compiled operator pipeline, or both with a
# differential self-check (any mismatch raises PlanDivergenceError).
EXECUTION_MODES = ("interpreted", "compiled", "dual")


@dataclass(frozen=True)
class EngineOptions:
    """Unified engine tuning knobs (the former scatter of keyword args).

    One frozen value object carries every cross-cutting engine switch:
    fault injection on/off, the §5.4.4 latency-compression ``gate_scale``,
    the default ``restart`` behavior for :meth:`GraphDatabase.load_graph` /
    :meth:`GraphDatabase.session`, and the execution mode.  Everything that
    builds engines — :class:`GraphDatabase` and subclasses,
    :func:`create_engine`, :class:`EngineSpec` — accepts one of these;
    the old keyword arguments remain supported and, when given, override
    the corresponding option field.
    """

    faults_enabled: bool = True
    gate_scale: float = 1.0
    restart: bool = True
    execution_mode: str = "interpreted"

    def __post_init__(self):
        if self.execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {self.execution_mode!r}; expected "
                f"one of {EXECUTION_MODES}"
            )

    def merged(
        self,
        *,
        faults_enabled: Optional[bool] = None,
        gate_scale: Optional[float] = None,
        restart: Optional[bool] = None,
        execution_mode: Optional[str] = None,
    ) -> "EngineOptions":
        """A copy with any non-None legacy keyword overrides applied."""
        updates = {
            name: value
            for name, value in (
                ("faults_enabled", faults_enabled),
                ("gate_scale", gate_scale),
                ("restart", restart),
                ("execution_mode", execution_mode),
            )
            if value is not None
        }
        return replace(self, **updates) if updates else self


class Session:
    """A driver-style session bound to one engine and one loaded graph.

    Mirrors how the real GDB Python drivers are used::

        with db.session(graph, schema) as sess:
            result = sess.run("MATCH (n) RETURN n")

    ``run`` delegates to :meth:`GraphDatabase.execute`, so faults, crash
    state, and white-box accounting (``last_fault``) behave exactly as they
    do for direct execution.  Closing the session (or leaving the ``with``
    block) ends it; a closed session refuses further queries, like a real
    driver's.  The engine itself stays loaded — sessions scope *usage*, not
    engine lifetime, matching the paper's long-session semantics (§5.4.4).
    """

    def __init__(self, engine: "GraphDatabase"):
        self._engine = engine
        self._closed = False

    @property
    def engine(self) -> "GraphDatabase":
        return self._engine

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def last_fault(self) -> Optional[Fault]:
        """White-box accounting hook (see ``last_fired_fault``)."""
        return self._engine.last_fired_fault

    def run(self, query: AnyQuery) -> ResultSet:
        """Execute *query* in this session; raises like ``execute``."""
        if self._closed:
            raise CypherRuntimeError("session is closed")
        return self._engine.execute(query)

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Session({self._engine.name}, {state})"


class GraphDatabase:
    """Base class for the simulated engines."""

    def __init__(
        self,
        dialect: Dialect,
        faults: Optional[List[Fault]] = None,
        options: Optional[EngineOptions] = None,
        *,
        faults_enabled: Optional[bool] = None,
        gate_scale: Optional[float] = None,
        execution_mode: Optional[str] = None,
    ):
        # The only allowed positional tuning argument is an EngineOptions;
        # the scalar flags stay keyword-only, as before the unification.
        if options is not None and not isinstance(options, EngineOptions):
            raise TypeError(
                f"options must be an EngineOptions, got {options!r}; "
                "pass tuning flags by keyword"
            )
        # Legacy keyword args override the unified options object, so every
        # pre-EngineOptions call site keeps its exact behavior.
        self.options = (options or EngineOptions()).merged(
            faults_enabled=faults_enabled,
            gate_scale=gate_scale,
            execution_mode=execution_mode,
        )
        self.dialect = dialect
        self.name = dialect.name
        self.execution_mode = self.options.execution_mode
        # gate_scale < 1 compresses fault latency: the experiment harness
        # uses it to emulate the paper's months-long full campaign within a
        # benchmark-sized run (documented in EXPERIMENTS.md).
        self.gate_scale = self.options.gate_scale
        self.faults = list(faults) if faults is not None else faults_for(dialect.name)
        self.faults_enabled = self.options.faults_enabled
        self.graph: Optional[PropertyGraph] = None
        self.schema: Optional[GraphSchema] = None
        self.last_fired_fault: Optional[Fault] = None
        # Session-query counter at the moment the last fault fired — the
        # flight recorder stores it so session-gated faults (§5.4.4) refire
        # on replay.
        self.last_fault_session_queries: Optional[int] = None
        self.queries_since_restart = 0
        self.total_queries = 0
        self.crashed = False
        self._executor: Optional[Executor] = None
        # Plans are graph-independent (they resolve the graph through the
        # execution context), so the cache lives for the engine's lifetime
        # and survives load_graph.
        self._plan_cache = PlanCache()
        self._plan_profile: Dict[str, int] = {}
        self._op_profile = OperatorProfile()
        # parse_query and extract_features are pure functions of the query
        # text (ASTs are never mutated after construction), so repeated
        # texts — replays, differential runs, cache-warm campaigns — skip
        # the parse and analysis walks entirely.  Maps text -> (tree,
        # features).
        self._query_cache: "OrderedDict[str, Any]" = OrderedDict()

    # -- lifecycle ------------------------------------------------------

    def restart(self) -> None:
        """Restart the instance: clears session state (and crash status)."""
        self.queries_since_restart = 0
        self.crashed = False

    def load_graph(
        self,
        graph: PropertyGraph,
        schema: Optional[GraphSchema] = None,
        *,
        restart: Optional[bool] = None,
    ) -> None:
        """Load (a copy of) *graph*; optionally restart the instance.

        GQS restarts the engine per graph for reproducibility; long-session
        testers pass ``restart=False`` so engine state accumulates
        (§5.4.4's crash-bug trade-off).  When *restart* is omitted the
        engine's :class:`EngineOptions` default applies.
        """
        if restart is None:
            restart = self.options.restart
        if self.dialect.requires_schema and schema is None:
            raise CypherRuntimeError(
                f"{self.dialect.display_name} requires a schema before "
                f"loading data"
            )
        self.graph = graph.copy()
        self.schema = schema
        self._executor = Executor(
            self.graph,
            enforce_rel_uniqueness=self.dialect.enforces_rel_uniqueness,
            procedures=default_procedures()
            if self.dialect.supports_call_procedures
            else {},
        )
        if restart:
            self.restart()

    def session(
        self,
        graph: Optional[PropertyGraph] = None,
        schema: Optional[GraphSchema] = None,
        *,
        restart: Optional[bool] = None,
    ) -> Session:
        """Open a driver-style :class:`Session`, optionally loading *graph*.

        With *graph* given, it is loaded first (honouring *restart*, the
        §5.4.4 session-accumulation switch); without it, the session runs
        against whatever is already loaded.  ``load_graph``/``execute``
        remain available as thin, session-free access for existing testers.
        """
        if graph is not None:
            self.load_graph(graph, schema, restart=restart)
        return Session(self)

    def spec(self) -> Dict[str, Any]:
        """The JSON-ready recipe that rebuilds this engine configuration.

        Mirrors :class:`EngineSpec`'s fields; the flight recorder embeds it
        in repro bundles so ``repro replay`` can construct a replica with
        the same fault switch and gate scale.
        """
        return {
            "name": self.name,
            "faults_enabled": self.faults_enabled,
            "gate_scale": self.gate_scale,
            "execution_mode": self.execution_mode,
        }

    # -- query execution ----------------------------------------------------

    def execute(self, query: AnyQuery) -> ResultSet:
        """Execute *query*; raises CypherError subclasses on failure."""
        if not PROBE.on:
            return self._execute_guarded(query)
        start = perf_counter()
        try:
            return self._execute_guarded(query)
        finally:
            metrics = PROBE.metrics
            metrics.counter("engine.queries", engine=self.name).inc()
            if self.last_fired_fault is not None:
                metrics.counter(
                    "engine.fault_queries", engine=self.name
                ).inc()
            metrics.histogram(
                "stage.seconds", timing=True, stage="execute"
            ).observe(perf_counter() - start)
            executor = self._executor
            if executor is not None:
                # The matcher/evaluator hot paths count their own calls as
                # plain integer increments (cheap enough for per-row code);
                # the per-query flush turns them into registry counters.
                matcher, evaluator = executor.matcher, executor.evaluator
                if matcher.profile_calls:
                    metrics.counter("matcher.calls").inc(
                        matcher.profile_calls
                    )
                    matcher.profile_calls = 0
                if evaluator.profile_calls:
                    metrics.counter("evaluator.calls").inc(
                        evaluator.profile_calls
                    )
                    evaluator.profile_calls = 0
            if self.execution_mode == "compiled":
                # Dual mode deliberately flushes nothing plan-related: its
                # observable stream must match an interpreted run's exactly.
                for name, value in self._plan_cache.drain().items():
                    metrics.counter(f"plan.{name}").inc(value)
                if self._plan_profile:
                    for operator, count in self._plan_profile.items():
                        metrics.counter(
                            "plan.rows", operator=operator
                        ).inc(count)
                    self._plan_profile.clear()
                if self._op_profile:
                    # Boundary-level operator profile: invocations/steps as
                    # deterministic counters, wall time as a timing
                    # histogram (excluded from deterministic views).
                    self._op_profile.flush(metrics)

    def _execute_guarded(self, query: AnyQuery) -> ResultSet:
        # Recursion guard of the evaluation resource envelope: a synthesized
        # AST deep enough to exhaust the interpreter stack is a harness
        # condition, not engine behavior — surface it as the typed budget
        # error so the campaign kernel records a ``harness_error``, never a
        # false bug.  (Raising *after* the stack unwinds is safe: Python
        # leaves headroom inside the except block.)
        try:
            return self._execute(query)
        except RecursionError as exc:
            raise EvaluationBudgetExceeded(
                f"recursion limit exhausted during evaluation: {exc}"
            ) from exc

    def _execute(self, query: AnyQuery) -> ResultSet:
        if self._executor is None or self.graph is None:
            raise CypherRuntimeError("no graph loaded")
        if self.crashed:
            raise DatabaseCrash(
                f"{self.dialect.display_name} instance is down; restart it"
            )

        if isinstance(query, str):
            text = query
            entry = self._query_cache.get(text)
            tree = entry[0] if entry is not None else parse_query(text)
        else:
            tree = query
            text = print_query(query)
            entry = self._query_cache.get(text)

        self.queries_since_restart += 1
        self.total_queries += 1
        self.last_fired_fault = None
        self.last_fault_session_queries = None

        if entry is not None:
            features = entry[1]
        else:
            features = extract_features(tree, text)
            self._query_cache[text] = (tree, features)
            while len(self._query_cache) > 1024:
                self._query_cache.popitem(last=False)
        self._check_dialect_support(features)

        fired: Optional[Fault] = None
        if self.faults_enabled:
            # Crash/hang/exception faults abort execution before any result
            # is produced, so they take precedence over state faults, which
            # in turn precede logic faults (both fire post-execution).
            ordered = sorted(
                self.faults, key=lambda fault: (fault.is_logic, fault.is_state)
            )
            for fault in ordered:
                if fault.triggers(
                    features, self.queries_since_restart, self.gate_scale
                ):
                    fired = fault
                    break

        if fired is not None and not fired.is_logic and not fired.is_state:
            # Crash/hang/exception faults fire before producing any rows.
            self.last_fired_fault = fired
            self.last_fault_session_queries = self.queries_since_restart
            if fired.category == "crash":
                self.crashed = True
            fired.effect(ResultSet([], []), features.signature_hash())

        # State faults corrupt the graph relative to its pre-write state,
        # so the snapshot must be taken before the write executes.
        state_before = (
            self.graph.copy() if fired is not None and fired.is_state else None
        )

        try:
            correct = self._evaluate_reference(tree, text)
        except CypherTypeError:
            if self.dialect.lenient_type_errors:
                # Engines like Memgraph coerce runtime type mismatches into
                # empty results instead of raising.
                return ResultSet([], [])
            raise

        if fired is not None:
            self.last_fired_fault = fired
            self.last_fault_session_queries = self.queries_since_restart
            if fired.is_state:
                # The answer is correct; the *database state* is not
                # (repro.gdb.state_effects).
                fired.state_effect(
                    self.graph, state_before, tree, features.signature_hash()
                )
                return correct
            return fired.effect(correct, features.signature_hash())
        return correct

    # -- execution modes ---------------------------------------------------

    def _evaluate_reference(self, tree: AnyQuery, text: str) -> ResultSet:
        """Compute the correct answer via the configured execution mode."""
        mode = self.execution_mode
        if mode == "interpreted":
            return self._executor.execute(tree)
        if mode == "compiled":
            # Plan build and execution share the try in _execute, so a
            # CypherError raised either way surfaces identically.
            plan = self._plan_for(tree, text)
            if plan.is_fallback:
                if getattr(plan, "reason", None) == "write clause":
                    # Write statements are deliberately unplannable; the
                    # interpreted executor is the one source of truth for
                    # mutations, and the counter keeps the fallback visible.
                    self._plan_cache.write_fallbacks += 1
                return self._executor.execute(tree)
            ctx = self._plan_context()
            if ctx.op_profile is not None and ENVELOPE.limit is None:
                # The envelope's charge sites only tick while a budget is
                # active; an unreachable ceiling makes profiled execution
                # count evaluation steps without ever being able to blow —
                # no control-flow or RNG change, results stay identical.
                with evaluation_budget(PROFILE_STEP_CEILING):
                    return plan.execute(ctx)
            return plan.execute(ctx)

        # dual: interpreted first (it owns the observable result), then the
        # compiled leg under a parked envelope so its steps neither consume
        # budget nor perturb the interpreted run's accounting.
        try:
            interpreted = self._executor.execute(tree)
        except CypherError as exc:
            self._check_compiled_error(tree, text, exc)
            raise
        plan = self._plan_for(tree, text)
        if plan.is_fallback:
            return interpreted
        with parked_envelope():
            try:
                compiled = plan.execute(self._plan_context())
            except CypherError as cexc:
                self._plan_cache.divergences += 1
                raise PlanDivergenceError(
                    f"compiled execution raised {type(cexc).__name__} where "
                    f"interpreted succeeded ({cexc}); query: {text}"
                ) from cexc
        self._compare_modes(interpreted, compiled, text)
        return interpreted

    def _check_compiled_error(
        self, tree: AnyQuery, text: str, exc: CypherError
    ) -> None:
        """Dual-mode check that the compiled leg fails like the interpreter."""
        plan = self._plan_for(tree, text)
        if plan.is_fallback:
            return
        with parked_envelope():
            try:
                plan.execute(self._plan_context())
            except CypherError as cexc:
                if type(cexc) is type(exc):
                    return
                self._plan_cache.divergences += 1
                raise PlanDivergenceError(
                    f"interpreted raised {type(exc).__name__} but compiled "
                    f"raised {type(cexc).__name__}; query: {text}"
                ) from cexc
        self._plan_cache.divergences += 1
        raise PlanDivergenceError(
            f"interpreted raised {type(exc).__name__} but compiled "
            f"succeeded; query: {text}"
        )

    def _compare_modes(
        self, interpreted: ResultSet, compiled: ResultSet, text: str
    ) -> None:
        same = (
            interpreted.columns == compiled.columns
            and bool(interpreted.ordered) == bool(compiled.ordered)
            and len(interpreted.rows) == len(compiled.rows)
        )
        if same:
            for left, right in zip(interpreted.rows, compiled.rows):
                left_key = tuple(V.equivalence_key(value) for value in left)
                right_key = tuple(V.equivalence_key(value) for value in right)
                if left_key != right_key:
                    same = False
                    break
        if not same:
            self._plan_cache.divergences += 1
            raise PlanDivergenceError(
                f"compiled and interpreted results differ; query: {text}"
            )

    def _plan_for(self, tree: AnyQuery, text: str):
        cache = self._plan_cache
        plan = cache.get(text)
        if plan is None:
            plan = build_plan(
                tree,
                enforce_rel_uniqueness=self.dialect.enforces_rel_uniqueness,
            )
            cache.put(text, plan)
        return plan

    def _plan_context(self) -> ExecutionContext:
        # Operator row tallies are recorded only in pure compiled mode: the
        # dual-mode compiled leg must stay invisible so a dual campaign's
        # events and checkpoints stay byte-identical to an interpreted one.
        profile = None
        op_profile = None
        if PROBE.on and self.execution_mode == "compiled":
            profile = self._plan_profile
            op_profile = self._op_profile
        return ExecutionContext(
            self.graph,
            procedures=self._executor.procedures,
            profile=profile,
            op_profile=op_profile,
        )

    def _check_dialect_support(self, features) -> None:
        unsupported = self.dialect.unsupported_functions
        if unsupported:
            for name in features.functions:
                if name in unsupported:
                    raise CypherRuntimeError(
                        f"{self.dialect.display_name}: unknown function "
                        f"`{name}`"
                    )

    # -- driver-level output (what differential testers compare) ------------

    def format_result(self, result: ResultSet) -> List[List[str]]:
        """Render a result the way this engine's driver prints it.

        Thin delegate for :meth:`repro.engine.binding.ResultSet.to_table`,
        which owns the rendering; differential testers compare these
        strings, and the per-engine float formatting differences are one of
        the organic sources of GDsmith's false positives (§5.4.3).
        """
        return result.to_table(self.dialect)

    # -- cost model -------------------------------------------------------

    def cost_of(self, query: AnyQuery) -> float:
        """Simulated wall-clock seconds to run *query* on this engine."""
        if isinstance(query, str):
            tree = parse_query(query)
        else:
            tree = query
        steps = 0
        def count(node):
            nonlocal steps
            if isinstance(node, ast.UnionQuery):
                count(node.left)
                count(node.right)
            else:
                steps += len(node.clauses)
        count(tree)
        return self.dialect.cost_of_steps(steps)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(faults={len(self.faults)})"


class Neo4jSim(GraphDatabase):
    """Simulated Neo4j: on-disk, strict types, full procedure support."""

    def __init__(self, options: Optional[EngineOptions] = None, *,
                 faults_enabled: Optional[bool] = None,
                 gate_scale: Optional[float] = None,
                 execution_mode: Optional[str] = None):
        super().__init__(DIALECTS["neo4j"], options=options,
                         faults_enabled=faults_enabled,
                         gate_scale=gate_scale, execution_mode=execution_mode)


class MemgraphSim(GraphDatabase):
    """Simulated Memgraph: in-memory, lenient runtime types, no db.labels."""

    def __init__(self, options: Optional[EngineOptions] = None, *,
                 faults_enabled: Optional[bool] = None,
                 gate_scale: Optional[float] = None,
                 execution_mode: Optional[str] = None):
        super().__init__(DIALECTS["memgraph"], options=options,
                         faults_enabled=faults_enabled,
                         gate_scale=gate_scale, execution_mode=execution_mode)


class KuzuSim(GraphDatabase):
    """Simulated Kùzu: schema-first, no relationship-uniqueness guarantee."""

    def __init__(self, options: Optional[EngineOptions] = None, *,
                 faults_enabled: Optional[bool] = None,
                 gate_scale: Optional[float] = None,
                 execution_mode: Optional[str] = None):
        super().__init__(DIALECTS["kuzu"], options=options,
                         faults_enabled=faults_enabled,
                         gate_scale=gate_scale, execution_mode=execution_mode)


class FalkorDBSim(GraphDatabase):
    """Simulated FalkorDB: no relationship uniqueness, rounded float output."""

    def __init__(self, options: Optional[EngineOptions] = None, *,
                 faults_enabled: Optional[bool] = None,
                 gate_scale: Optional[float] = None,
                 execution_mode: Optional[str] = None):
        super().__init__(DIALECTS["falkordb"], options=options,
                         faults_enabled=faults_enabled,
                         gate_scale=gate_scale, execution_mode=execution_mode)


class ReferenceGDB(GraphDatabase):
    """A fault-free engine with reference semantics (testing/validation)."""

    def __init__(self, name: str = "reference",
                 execution_mode: str = "interpreted"):
        dialect = DIALECTS["neo4j"]
        super().__init__(
            dialect,
            faults=[],
            options=EngineOptions(
                faults_enabled=False, execution_mode=execution_mode
            ),
        )
        self.name = name


_ENGINE_CLASSES = {
    "neo4j": Neo4jSim,
    "memgraph": MemgraphSim,
    "kuzu": KuzuSim,
    "falkordb": FalkorDBSim,
}


def create_engine(
    name: str,
    options: Optional[EngineOptions] = None,
    *,
    faults_enabled: Optional[bool] = None,
    gate_scale: Optional[float] = None,
    execution_mode: Optional[str] = None,
) -> GraphDatabase:
    """Factory for the four simulated engines.

    Tuning arrives either as one :class:`EngineOptions` value or via the
    legacy keyword flags (which override option fields when both are
    given).  The flags stay keyword-only — ``create_engine("neo4j",
    gate_scale=0.1)`` reads unambiguously at call sites, and positional
    booleans cannot silently swap.
    """
    try:
        cls = _ENGINE_CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}") from None
    return cls(
        options=options,
        faults_enabled=faults_enabled,
        gate_scale=gate_scale,
        execution_mode=execution_mode,
    )


@dataclass(frozen=True)
class EngineSpec:
    """Picklable recipe for building an engine inside a worker process.

    Engine instances hold a loaded graph and a live executor, so they never
    cross process boundaries; the parallel campaign runner ships this spec
    instead and each worker calls :meth:`create` locally.  The tuning
    fields are keyword-only, matching :func:`create_engine`; the
    :class:`EngineOptions` bridge (:meth:`from_options` / :meth:`options`)
    converts between the two forms without changing the pickled layout or
    the flight-recorder bundle format.
    """

    name: str
    _: KW_ONLY
    faults_enabled: bool = True
    gate_scale: float = 1.0
    execution_mode: str = "interpreted"

    @classmethod
    def from_options(cls, name: str, options: EngineOptions) -> "EngineSpec":
        return cls(
            name,
            faults_enabled=options.faults_enabled,
            gate_scale=options.gate_scale,
            execution_mode=options.execution_mode,
        )

    def options(self) -> EngineOptions:
        return EngineOptions(
            faults_enabled=self.faults_enabled,
            gate_scale=self.gate_scale,
            execution_mode=self.execution_mode,
        )

    def create(self) -> GraphDatabase:
        return create_engine(self.name, self.options())
