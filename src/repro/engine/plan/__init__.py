"""Compiled operator-pipeline execution core.

The plan package compiles a parsed Cypher query once into a pipeline of
composable operators (scan → expand → filter → project → aggregate →
order/skip/limit → union) whose semantics are bit-for-bit the reference
interpreter's.  Engines select it via ``execution_mode``:

* ``interpreted`` — the tree-walking reference path (default).
* ``compiled`` — plans from the per-session :class:`PlanCache`.
* ``dual`` — both paths per query; any mismatch raises
  :class:`~repro.engine.errors.PlanDivergenceError`.

See ``docs/execution.md`` for the operator catalog and pushdown rules.
"""

from repro.engine.plan.cache import PlanCache
from repro.engine.plan.compiler import compile_expr, compile_predicate
from repro.engine.plan.operators import ExecutionContext, compile_aggregate
from repro.engine.plan.planner import (
    CompiledPlan,
    FallbackPlan,
    UnionPlan,
    build_plan,
    compile_match,
)

__all__ = [
    "PlanCache",
    "compile_expr",
    "compile_predicate",
    "compile_aggregate",
    "ExecutionContext",
    "CompiledPlan",
    "FallbackPlan",
    "UnionPlan",
    "build_plan",
    "compile_match",
]
