"""Bundle-level reduction: cooperating passes, ``*.min.json``, fan-out.

:func:`reduce_bundle` drives the cooperating passes over one
flight-recorder bundle — statement-sequence reduction
(:mod:`repro.reduce.sequence`, v2 bundles only), graph shrink
(:mod:`repro.reduce.graph`), query reduction (:mod:`repro.reduce.query`)
— iterating until a full round makes no progress.  The result is a
**minimized bundle**: the same-format document with the reduced graph,
query (and, for sequence bundles, statement list) and freshly recomputed
expected/actual sides, so ``repro replay foo.min.json`` works on it
unchanged, plus a ``reduction`` section recording original vs. reduced
sizes and the oracle-replay count.

Reduction is a pure function of the bundle: no randomness, no dependence
on worker count or scheduling — the same bundle always minimizes to the
byte-identical ``*.min.json``.  :class:`ReductionRunner` exploits that to
fan a directory of bundles over a process pool, one independent bundle per
task, with the same fork/spawn discipline as the campaign grid runner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.recorder import load_bundle, record_sides
from repro.reduce.graph import graph_sizes, shrink_graph
from repro.reduce.oracle import ReductionOracle
from repro.reduce.query import reduce_query
from repro.reduce.sequence import reduce_sequence
from repro.runtime.supervisor import (
    WORKER_RECURSION_LIMIT,
    _init_worker,
    mp_context,
)

__all__ = [
    "ReductionOutcome",
    "reduce_bundle",
    "min_path_for",
    "iter_bundle_paths",
    "ReductionRunner",
]

# Graph and query passes re-enable each other (a smaller query may free
# graph elements and vice versa); in practice two rounds reach the fixpoint
# and this cap only bounds pathological ping-pong.
MAX_ROUNDS = 4


def min_path_for(path: Union[str, Path]) -> Path:
    """The ``*.min.json`` sibling of a bundle path."""
    path = Path(path)
    return path.with_name(path.stem + ".min.json")


def bundle_sizes(bundle: Dict[str, Any]) -> Dict[str, int]:
    """Nodes / relationships / properties / query bytes of one bundle."""
    sizes = graph_sizes(bundle.get("graph", {}))
    sizes["query_bytes"] = len(bundle.get("query", "").encode("utf-8"))
    if bundle.get("statements"):
        sizes["statements"] = len(bundle["statements"])
    return sizes


@dataclass
class ReductionOutcome:
    """What one bundle reduced to (or why it could not be reduced)."""

    source: str
    signature: Optional[str]
    reproduced: bool
    original: Dict[str, int] = field(default_factory=dict)
    reduced: Dict[str, int] = field(default_factory=dict)
    oracle_replays: int = 0
    rounds: int = 0
    min_path: Optional[str] = None

    @property
    def graph_shrink_ratio(self) -> float:
        """Fraction of graph elements (nodes + relationships) removed."""
        before = self.original.get("nodes", 0) + self.original.get(
            "relationships", 0
        )
        after = self.reduced.get("nodes", 0) + self.reduced.get(
            "relationships", 0
        )
        if before <= 0:
            return 0.0
        return 1.0 - after / before

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "signature": self.signature,
            "reproduced": self.reproduced,
            "original": dict(self.original),
            "reduced": dict(self.reduced),
            "oracle_replays": self.oracle_replays,
            "rounds": self.rounds,
            "graph_shrink_ratio": round(self.graph_shrink_ratio, 4),
            "min_path": self.min_path,
        }


def reduce_bundle(
    source: Union[str, Path, Dict[str, Any]],
    *,
    write: bool = True,
    min_path: Optional[Union[str, Path]] = None,
    replay_budget: Optional[int] = None,
    step_budget: Optional[int] = None,
) -> ReductionOutcome:
    """Minimize one repro bundle; optionally write the ``*.min.json``.

    The bundle must replay to its own recorded signature first (the
    baseline check) — a bundle that no longer reproduces is returned with
    ``reproduced=False`` and nothing is written.  *min_path* overrides the
    default ``<bundle>.min.json`` sibling; passing a dict as *source*
    requires an explicit *min_path* to write.  *replay_budget* caps replica
    executions (see :class:`ReductionOracle`) — reduction degrades to
    best-so-far, never to an unreproducible output.  *step_budget* bounds
    evaluation steps per replayed statement through the shared resource
    envelope, so a pathological candidate costs one rejected check, not a
    hung reduction; it defaults to the budget recorded in the bundle.
    """
    if isinstance(source, dict):
        bundle, source_name = source, "<memory>"
    else:
        bundle = load_bundle(source)
        source_name = str(source)
        if min_path is None and write:
            min_path = min_path_for(source)

    oracle = ReductionOracle(bundle, replay_budget=replay_budget,
                             step_budget=step_budget)
    outcome = ReductionOutcome(
        source=source_name,
        signature=oracle.signature,
        reproduced=oracle.baseline(),
        original=bundle_sizes(bundle),
    )
    outcome.oracle_replays = oracle.replays
    if not outcome.reproduced:
        return outcome

    graph = bundle["graph"]
    query = bundle["query"]
    schema = bundle.get("schema")
    statements = (
        list(bundle["statements"]) if bundle.get("statements") else None
    )
    for round_number in range(1, MAX_ROUNDS + 1):
        outcome.rounds = round_number
        sequence_changed = False
        if statements is not None:
            # Sequence pass first: dropping prefix statements usually frees
            # far more graph/query material than the other passes can, and
            # the oracle replays every later candidate through the pinned
            # (reduced) sequence.
            smaller = reduce_sequence(statements, oracle, graph=graph)
            sequence_changed = smaller != statements
            statements = smaller
            oracle.pin_statements(tuple(statements))
            query = statements[-1]
        shrunk = shrink_graph(graph, oracle, query=query, schema=schema)
        graph_changed = shrunk != graph
        graph = shrunk
        reduced = reduce_query(query, oracle, graph=graph)
        query_changed = reduced != query
        query = reduced
        if statements is not None and query_changed:
            # The query pass minimized the final — discrepant — statement;
            # fold it back into the sequence the bundle will carry.
            statements = statements[:-1] + [query]
            oracle.pin_statements(tuple(statements))
        if not (sequence_changed or graph_changed or query_changed):
            break

    minimized = dict(bundle)
    minimized["graph"] = graph
    minimized["query"] = query
    if statements is not None:
        minimized["statements"] = list(statements)
    # Recompute both sides through the replay procedure itself (under the
    # same step budget as the oracle's checks), so the minimized bundle is
    # — like the original — reproducible by construction
    # (`repro replay foo.min.json`).
    record_sides(minimized, oracle.step_budget)
    oracle.replays += 2

    outcome.reduced = bundle_sizes(minimized)
    outcome.oracle_replays = oracle.replays
    stats = outcome.to_dict()
    # The embedded stats must be a pure function of the bundle *contents*
    # (the determinism contract: byte-identical ``*.min.json`` wherever the
    # source file lives), so the filesystem-dependent fields stay out.
    stats.pop("min_path")
    stats.pop("source")
    minimized["reduction"] = stats

    if write and min_path is not None:
        path = Path(min_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(minimized, indent=2, sort_keys=True), encoding="utf-8"
        )
        outcome.min_path = str(path)
    return outcome


def iter_bundle_paths(sources: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand bundle files / directories into a sorted list of bundle paths.

    Directories contribute every ``*.json`` inside them except minimized
    outputs (``*.min.json``) — re-reducing a minimum is a no-op by
    construction but would clutter the directory with ``*.min.min.json``.
    """
    paths: List[Path] = []
    for source in sources:
        source = Path(source)
        if source.is_dir():
            paths.extend(
                p
                for p in sorted(source.glob("*.json"))
                if not p.name.endswith(".min.json")
            )
        else:
            paths.append(source)
    return sorted(set(paths))


def _reduce_path(
    task: Tuple[str, Optional[int], Optional[int]]
) -> Dict[str, Any]:
    """Worker entry point: reduce one bundle file, return the stats dict."""
    import sys

    path, replay_budget, step_budget = task
    # Candidate queries parse recursively and the printer's canonical
    # parenthesization nests deeply; forked workers can start with most of
    # the default limit already consumed by the parent's stack.  Pool
    # workers get the same raise from the shared ``_init_worker``; this
    # inline raise covers the jobs=1 path.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, WORKER_RECURSION_LIMIT))
    try:
        return reduce_bundle(
            path, replay_budget=replay_budget, step_budget=step_budget
        ).to_dict()
    finally:
        sys.setrecursionlimit(limit)


class ReductionRunner:
    """Reduce many bundles, optionally across a process pool.

    Bundles are independent (each writes its own ``*.min.json``), so the
    fan-out needs no merge step; results come back in sorted-path order
    regardless of completion order, and the written files are identical
    for any ``jobs`` value because each reduction is deterministic.
    """

    def __init__(
        self,
        jobs: int = 1,
        replay_budget: Optional[int] = None,
        step_budget: Optional[int] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.replay_budget = replay_budget
        self.step_budget = step_budget

    def run(
        self, sources: Iterable[Union[str, Path]]
    ) -> List[ReductionOutcome]:
        tasks = [
            (str(p), self.replay_budget, self.step_budget)
            for p in iter_bundle_paths(sources)
        ]
        if self.jobs == 1 or len(tasks) <= 1:
            results = [_reduce_path(task) for task in tasks]
        else:
            context = mp_context()
            with context.Pool(
                processes=min(self.jobs, len(tasks)),
                initializer=_init_worker,
            ) as pool:
                results = list(pool.map(_reduce_path, tasks))
        return [
            ReductionOutcome(
                source=item["source"],
                signature=item["signature"],
                reproduced=item["reproduced"],
                original=item["original"],
                reduced=item["reduced"],
                oracle_replays=item["oracle_replays"],
                rounds=item["rounds"],
                min_path=item["min_path"],
            )
            for item in results
        ]
