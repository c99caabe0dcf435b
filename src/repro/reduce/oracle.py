"""The reduction oracle: does a candidate still reproduce the same bug?

Every reduction step — dropping graph nodes, relationships, property
entries, query clauses, or expression subtrees — is validated by replaying
the candidate through the *exact* procedure ``repro replay`` uses
(:func:`repro.obs.recorder._execute_side`: expected side with faults off,
actual side with the recorded fault configuration and session counter).  A
step is accepted only when the replay still shows a discrepancy **with the
same triage signature** (:mod:`repro.obs.triage`), so reduction can never
wander from the recorded bug onto a different one.

The signature-preservation contract, concretely:

* **white-box** (the bundle records a ``fault_id``): the candidate's actual
  side must fire the *same* fault — ``engine:fault_id`` signatures match
  exactly.  Candidates that stop triggering the fault, or trip a different
  one, are rejected.
* **black-box** (no ``fault_id`` — organic discrepancies): the candidate
  must preserve the *normalized failure shape* of both sides — an error
  outcome keeps the same exception type (``normalize_detail``), a row
  outcome stays a row outcome.  The query-feature component of the
  black-box fingerprint is deliberately *not* pinned: reduction exists to
  strip query features, so pinning them would forbid all query reduction.

Replays park the observability probe (inherited from ``_execute_side``),
draw no randomness, and build fresh replica engines per call — reduction is
a pure function of the bundle, byte-identical across runs and job counts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.obs.recorder import BUNDLE_FORMAT, BUNDLE_FORMAT_V2, _execute_side
from repro.obs.triage import normalize_detail

__all__ = ["ReductionOracle", "failure_shape"]


def failure_shape(side: Dict[str, Any]) -> Optional[str]:
    """The normalized shape of one replay side: exception type, or None.

    Row outcomes all share the ``None`` shape — their *contents* are free
    to change under reduction; what must not change is row-outcome vs.
    error-outcome and, for errors, the exception type.
    """
    if "error" in side:
        return normalize_detail("error", side["error"])
    return None


class ReductionOracle:
    """Signature-preserving accept/reject test for reduction candidates."""

    def __init__(
        self,
        bundle: Dict[str, Any],
        replay_budget: Optional[int] = None,
        step_budget: Optional[int] = None,
    ):
        if bundle.get("format") not in (BUNDLE_FORMAT, BUNDLE_FORMAT_V2):
            raise ValueError(
                f"not a flight-recorder bundle (format={bundle.get('format')!r})"
            )
        self.bundle = bundle
        # v2 sequence bundles: the sequence pass narrows this current-best
        # statement list in place (pin_statements), and every candidate —
        # including graph/query candidates from the v1 passes — replays
        # against it.
        self._statements: Optional[Tuple[str, ...]] = (
            tuple(bundle["statements"]) if bundle.get("statements") else None
        )
        #: Optional hard cap on replica executions.  Once exhausted, every
        #: uncached candidate is rejected, so reduction winds down with its
        #: current best — still signature-preserving, still deterministic
        #: (the cap cuts the same candidate in every run).
        self.replay_budget = replay_budget
        #: Optional evaluation step budget per replay side — the same
        #: resource envelope the campaign kernel uses.  A candidate whose
        #: replay blows the budget yields an ``EvaluationBudgetExceeded``
        #: error outcome, which cannot match the recorded signature, so
        #: pathological candidates are rejected instead of hanging the
        #: reduction (deterministically: the envelope draws no randomness).
        #: Defaults to the budget the bundle was recorded under, if any.
        self.step_budget = (
            step_budget if step_budget is not None
            else bundle.get("step_budget")
        )
        self.signature = bundle.get("signature")
        self.fault_id = bundle.get("fault_id")
        self._expected_shape = failure_shape(bundle.get("expected", {}))
        self._actual_shape = failure_shape(bundle.get("actual", {}))
        #: Replica executions performed so far (two per candidate check);
        #: the unit the reduction throughput benchmark reports.
        self.replays = 0
        # Verdict memo: reduction passes re-enumerate candidates after
        # every improvement, so the same (graph, query) pair is often
        # checked many times.  Replays are deterministic, so caching the
        # verdict changes nothing observable except wall-clock time.
        self._verdicts: Dict[Tuple[Any, ...], bool] = {}

    @property
    def exhausted(self) -> bool:
        """Whether the replay budget (if any) has been spent.

        Reduction passes short-circuit on this — once the oracle can only
        say "no", enumerating and round-tripping further candidates is
        wasted work.
        """
        return (
            self.replay_budget is not None
            and self.replays >= self.replay_budget
        )

    # -- candidate evaluation -------------------------------------------

    def outcome(
        self,
        graph: Optional[Dict[str, Any]] = None,
        query: Optional[str] = None,
        statements: Optional[Tuple[str, ...]] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Replay a candidate; returns ``{"expected": ..., "actual": ...}``.

        *graph* / *query* override the bundle's recorded graph snapshot and
        query text; everything else (engine spec, schema, session counter)
        replays as recorded.  On v2 sequence bundles *statements* overrides
        the replayed sequence (defaulting to the current pinned best), and
        a *query* override rewrites the sequence's final — discrepant —
        statement, so the v1 query-reduction passes carry over unchanged.
        """
        candidate = dict(self.bundle)
        if graph is not None:
            candidate["graph"] = graph
        effective = statements if statements is not None else self._statements
        if effective is not None:
            sequence = list(effective)
            if query is not None and sequence:
                sequence[-1] = query
            candidate["statements"] = sequence
            candidate["query"] = sequence[-1] if sequence else query
        elif query is not None:
            candidate["query"] = query
        expected = self._side(candidate, faults_enabled=False)
        actual = self._side(candidate, faults_enabled=True)
        self.replays += 2
        return {"expected": expected, "actual": actual}

    def _side(
        self, candidate: Dict[str, Any], *, faults_enabled: bool
    ) -> Dict[str, Any]:
        """One replay side under the evaluation resource envelope.

        A blown budget is an error outcome with no fired fault —
        guaranteed to miss the recorded signature, so the candidate is
        rejected without special-casing in the contract.
        """
        return _execute_side(candidate, faults_enabled=faults_enabled,
                             step_budget=self.step_budget)

    def accepts(
        self,
        graph: Optional[Dict[str, Any]] = None,
        query: Optional[str] = None,
        statements: Optional[Tuple[str, ...]] = None,
    ) -> bool:
        """Whether the candidate reproduces the bundle's triage signature.

        Verdicts are memoized per candidate (graphs keyed by their sorted
        JSON form; sequences by the *effective* statement tuple, so pinning
        a new best never resurrects stale verdicts).
        """
        effective = statements if statements is not None else self._statements
        key = (
            None if graph is None else json.dumps(graph, sort_keys=True),
            query,
            effective,
        )
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        if self.exhausted:
            return False  # budget exhausted — uncached candidates rejected
        sides = self.outcome(graph=graph, query=query, statements=statements)
        verdict = self.preserves_signature(sides["expected"], sides["actual"])
        self._verdicts[key] = verdict
        return verdict

    # -- sequence pinning (v2 bundles) ----------------------------------

    @property
    def statements(self) -> Optional[Tuple[str, ...]]:
        """The current-best statement sequence (None on v1 bundles)."""
        return self._statements

    def pin_statements(self, statements: Tuple[str, ...]) -> None:
        """Adopt a reduced sequence as the baseline for later passes.

        The graph and query passes replay every candidate through the
        pinned sequence, so sequence reduction composes with them without
        threading extra arguments through the pass implementations.
        """
        self._statements = tuple(statements)

    def preserves_signature(
        self, expected: Dict[str, Any], actual: Dict[str, Any]
    ) -> bool:
        """The contract itself, applied to one replayed (expected, actual)."""
        if expected == actual:
            return False  # discrepancy gone — nothing left to reproduce
        if actual.get("fault_id") != self.fault_id:
            return False  # different (or no) fault — different signature
        return (
            failure_shape(expected) == self._expected_shape
            and failure_shape(actual) == self._actual_shape
        )

    def baseline(self) -> bool:
        """Whether the *unmodified* bundle reproduces its own signature.

        Reduction refuses to start from a bundle that no longer replays —
        minimizing toward an unreproducible target would be meaningless.
        """
        return self.accepts()
