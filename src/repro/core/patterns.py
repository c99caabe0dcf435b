"""Search pattern construction and mutation (paper §3.4).

To synthesize a MATCH clause introducing a planned set of graph elements,
GQS:

1. collects *base patterns* — paths through the graph containing the
   elements to introduce;
2. mutates them against patterns used in previous clauses, via three
   strategies keyed on where the shared element sits (concatenation,
   branching, cross recombination);
3. encodes the mutated paths as Cypher search patterns, optionally adding
   labels/types and dropping relationship directions;
4. constructs ``WHERE`` predicates that pin the match to exactly the
   intended subgraph (Figure 6), verified against the reference matcher;
5. substitutes the predicates' property accesses with distinguishing nested
   expressions (§3.5 / Algorithm 2).

The resulting clause matches exactly one assignment — the invariant the
ground-truth bookkeeping relies on.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.expressions import ExpressionFactory
from repro.cypher import ast
from repro.engine.plan import ExecutionContext, compile_match
from repro.graph.model import Node, PropertyGraph, Relationship

__all__ = ["GraphPath", "SynthesizedMatch", "PatternBuilder"]

Element = Tuple[str, int]  # ("node"|"rel", id)


@dataclass
class GraphPath:
    """A concrete path: node ids joined by (relationship id, forward?) hops.

    ``forward=True`` means the relationship's start is the left node of the
    hop.  Paths always align with the graph, which keeps every mutated
    pattern satisfiable (§3.4: "the mutated patterns … naturally retain
    alignment to the graph").
    """

    node_ids: List[int]
    rels: List[Tuple[int, bool]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.node_ids) != len(self.rels) + 1:
            raise ValueError("path arity mismatch")

    def __len__(self) -> int:
        return len(self.rels)

    def rel_ids(self) -> Set[int]:
        return {rel_id for rel_id, _forward in self.rels}

    def elements(self) -> List[Element]:
        out: List[Element] = [("node", self.node_ids[0])]
        for index, (rel_id, _forward) in enumerate(self.rels):
            out.append(("rel", rel_id))
            out.append(("node", self.node_ids[index + 1]))
        return out

    def reverse(self) -> "GraphPath":
        return GraphPath(
            list(reversed(self.node_ids)),
            [(rel_id, not forward) for rel_id, forward in reversed(self.rels)],
        )

    def split_at(self, node_index: int) -> Tuple["GraphPath", "GraphPath"]:
        """Split into two paths sharing node ``node_index``."""
        left = GraphPath(self.node_ids[: node_index + 1], self.rels[:node_index])
        right = GraphPath(self.node_ids[node_index:], self.rels[node_index:])
        return left, right

    def concat(self, other: "GraphPath") -> "GraphPath":
        """Join two paths where self ends at other's first node."""
        if self.node_ids[-1] != other.node_ids[0]:
            raise ValueError("paths do not share an endpoint")
        return GraphPath(
            self.node_ids + other.node_ids[1:], self.rels + other.rels
        )


@dataclass
class SynthesizedMatch:
    """The output of one MATCH synthesis step."""

    patterns: Tuple[ast.PathPattern, ...]
    where: Optional[ast.Expression]
    bindings: Dict[str, Any]          # every pattern variable -> graph element
    new_variables: List[str]          # variables not previously in scope
    paths: List[GraphPath]            # for future mutations
    pin_count: int = 0                # predicates added for uniqueness


class PatternBuilder:
    """Builds uniquely-matching, mutation-rich MATCH clauses."""

    def __init__(
        self,
        graph: PropertyGraph,
        rng: random.Random,
        expressions: Optional[ExpressionFactory] = None,
        id_property: str = "id",
        max_hops: int = 3,
        obfuscation_depth: int = 3,
        label_probability: float = 0.5,
        undirected_probability: float = 0.3,
        mutation_probability: float = 0.85,
        extra_predicate_probability: float = 0.5,
        split_probability: float = 0.65,
    ):
        self.graph = graph
        self.rng = rng
        self.expressions = expressions or ExpressionFactory(graph, rng)
        self.id_property = id_property
        self.max_hops = max_hops
        self.obfuscation_depth = obfuscation_depth
        self.label_probability = label_probability
        self.undirected_probability = undirected_probability
        self.mutation_probability = mutation_probability
        self.extra_predicate_probability = extra_predicate_probability
        self.split_probability = split_probability
        self._context = ExecutionContext(graph)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def build_match(
        self,
        introduce: Sequence[Tuple[str, Element]],
        scope: Dict[str, Any],
        previous_paths: Sequence[GraphPath],
        helper_start: int = 0,
        add_uniqueness_predicates: bool = False,
    ) -> SynthesizedMatch:
        """Synthesize patterns introducing *introduce*, referencing *scope*.

        ``introduce`` maps planned variables to graph elements; ``scope``
        maps in-scope variables to their bound elements (nodes/relationships
        only).  ``add_uniqueness_predicates`` emits explicit ``r1 <> r2``
        terms for dialects that do not enforce relationship uniqueness (§4).
        """
        rng = self.rng
        planned: Dict[Element, str] = {elem: var for var, elem in introduce}
        scope_elements: Dict[Element, str] = {}
        for var, value in scope.items():
            if isinstance(value, Node):
                scope_elements.setdefault(("node", value.id), var)
            elif isinstance(value, Relationship):
                scope_elements.setdefault(("rel", value.id), var)

        # 1-2. Base paths + mutations.
        paths = self._collect_paths(list(planned), previous_paths)
        # Split long paths at interior nodes into comma patterns sharing a
        # variable (the §3.4 cross-mutation encoding).  Semantics are
        # unchanged — the shared variable joins the subpatterns — but the
        # query exercises a different planner path.
        paths = self._split_paths(paths)

        # 3. Variable assignment & encoding.
        bindings: Dict[str, Any] = {}
        new_variables: List[str] = []
        helper_counter = itertools.count(helper_start)
        element_to_var: Dict[Element, str] = {}

        def assign_var(element: Element) -> str:
            if element in element_to_var:
                return element_to_var[element]
            # Planned variables take priority: an element that is already in
            # scope under another name must still be introduced under its
            # planned variable (the pin predicates keep the match unique).
            if element in planned:
                var = planned[element]
            elif element in scope_elements:
                var = scope_elements[element]
            else:
                prefix = "m" if element[0] == "node" else "e"
                var = f"{prefix}{next(helper_counter)}"
            element_to_var[element] = var
            if var not in scope:
                new_variables.append(var)
            value = (
                self.graph.node(element[1])
                if element[0] == "node"
                else self.graph.relationship(element[1])
            )
            bindings[var] = value
            return var

        patterns = tuple(self._encode_path(path, assign_var) for path in paths)

        # 4. Disambiguating predicates (Figure 6).
        where_terms: List[ast.Expression] = []
        if add_uniqueness_predicates:
            where_terms.extend(self._uniqueness_terms(patterns))
        pin_count = self._pin_to_unique(
            patterns, scope, bindings, element_to_var, where_terms
        )

        # Extra, truthful predicates for additional complexity.  Predicates
        # over variables bound in *earlier* clauses create exactly the
        # cross-clause data dependencies §3.3 aims for.
        for var, value in list(bindings.items()):
            probability = self.extra_predicate_probability
            if var in scope:
                probability *= 1.5
            if rng.random() < probability:
                term = self._truthful_predicate(var, value)
                if term is not None:
                    where_terms.append(term)

        where = _conjoin(where_terms)
        return SynthesizedMatch(
            patterns=patterns,
            where=where,
            bindings=bindings,
            new_variables=new_variables,
            paths=paths,
            pin_count=pin_count,
        )

    # ------------------------------------------------------------------
    # Path collection and mutation
    # ------------------------------------------------------------------

    def _collect_paths(
        self,
        elements: List[Element],
        previous_paths: Sequence[GraphPath],
    ) -> List[GraphPath]:
        rng = self.rng
        used_rels: Set[int] = set()
        paths: List[GraphPath] = []
        covered: Set[Element] = set()

        for element in elements:
            if element in covered:
                continue
            base = self._base_path(element, used_rels)
            if base is None:
                continue
            mutated = base
            if previous_paths and rng.random() < self.mutation_probability:
                candidate = self._mutate(base, previous_paths, used_rels)
                if candidate is not None:
                    mutated = candidate
            if isinstance(mutated, list):
                accepted = mutated
            else:
                accepted = [mutated]
            for path in accepted:
                used_rels.update(path.rel_ids())
                covered.update(path.elements())
                paths.append(path)

        # An element can remain uncovered only when it has no usable path
        # (e.g. an isolated node): fall back to a singleton pattern.
        for element in elements:
            if element not in covered:
                if element[0] == "node":
                    paths.append(GraphPath([element[1]]))
                    covered.add(element)
                else:
                    rel = self.graph.relationship(element[1])
                    if rel.id not in used_rels:
                        path = GraphPath([rel.start, rel.end], [(rel.id, True)])
                        used_rels.add(rel.id)
                        paths.append(path)
                        covered.update(path.elements())
        return paths

    def _split_paths(self, paths: List[GraphPath]) -> List[GraphPath]:
        """Randomly split multi-hop paths at interior nodes."""
        out: List[GraphPath] = []
        queue = list(paths)
        while queue:
            path = queue.pop()
            if len(path) >= 2 and self.rng.random() < self.split_probability:
                split_index = self.rng.randint(1, len(path) - 1)
                left, right = path.split_at(split_index)
                queue.append(left)
                queue.append(right)
            else:
                out.append(path)
        return out

    def _base_path(self, element: Element, used_rels: Set[int]) -> Optional[GraphPath]:
        """A short random walk through the graph containing *element*."""
        rng = self.rng
        if element[0] == "node":
            path = GraphPath([element[1]])
        else:
            rel = self.graph.relationship(element[1])
            if rel.id in used_rels:
                return None
            path = GraphPath([rel.start, rel.end], [(rel.id, True)])

        for _ in range(rng.randint(0, self.max_hops)):
            extended = self._extend_once(path, used_rels | path.rel_ids())
            if extended is None:
                break
            path = extended
        return path

    def _extend_once(
        self, path: GraphPath, blocked: Set[int]
    ) -> Optional[GraphPath]:
        """Append one hop at a random end of the path."""
        rng = self.rng
        at_end = rng.random() < 0.5
        anchor = path.node_ids[-1] if at_end else path.node_ids[0]
        candidates = [
            rel for rel in self.graph.touching(anchor) if rel.id not in blocked
        ]
        if not candidates:
            return None
        rel = rng.choice(candidates)
        far = rel.other_end(anchor)
        forward_from_anchor = rel.start == anchor
        if at_end:
            return GraphPath(
                path.node_ids + [far], path.rels + [(rel.id, forward_from_anchor)]
            )
        return GraphPath(
            [far] + path.node_ids, [(rel.id, not forward_from_anchor)] + path.rels
        )

    def _mutate(
        self,
        base: GraphPath,
        previous_paths: Sequence[GraphPath],
        used_rels: Set[int],
    ):
        """Apply one of the three §3.4 strategies against a previous path."""
        rng = self.rng
        candidates = list(previous_paths)
        rng.shuffle(candidates)
        for previous in candidates:
            if previous.rel_ids() & (used_rels | base.rel_ids()):
                continue  # would duplicate a relationship within this MATCH
            shared = self._shared_nodes(base, previous)
            if not shared:
                continue
            node_id = rng.choice(shared)
            base_pos = base.node_ids.index(node_id)
            prev_pos = previous.node_ids.index(node_id)
            base_at_end = base_pos in (0, len(base.node_ids) - 1)
            prev_at_end = prev_pos in (0, len(previous.node_ids) - 1)

            if base_at_end and prev_at_end:
                # Strategy 1: concatenation.
                left = base if base_pos == len(base.node_ids) - 1 else base.reverse()
                right = previous if prev_pos == 0 else previous.reverse()
                return left.concat(right)
            if base_at_end != prev_at_end:
                # Strategy 2: branching — two linear patterns sharing the node.
                if base_at_end:
                    trunk, branch_source, split_pos = previous, base, prev_pos
                else:
                    trunk, branch_source, split_pos = base, previous, base_pos
                branch = (
                    branch_source
                    if branch_source.node_ids[0] == node_id
                    else branch_source.reverse()
                )
                return [trunk, branch]
            # Strategy 3: cross — split both at the shared node and recombine.
            base_left, base_right = base.split_at(base_pos)
            prev_left, prev_right = previous.split_at(prev_pos)
            halves = [base_left.reverse(), base_right, prev_left.reverse(), prev_right]
            halves = [half for half in halves if len(half) > 0]
            rng.shuffle(halves)
            combined: List[GraphPath] = []
            while halves:
                first = halves.pop()
                if halves:
                    second = halves.pop()
                    combined.append(first.reverse().concat(second))
                else:
                    combined.append(first)
            return combined
        return None

    @staticmethod
    def _shared_nodes(a: GraphPath, b: GraphPath) -> List[int]:
        seen = set(a.node_ids)
        return [node_id for node_id in b.node_ids if node_id in seen]

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode_path(self, path: GraphPath, assign_var) -> ast.PathPattern:
        rng = self.rng
        nodes: List[ast.NodePattern] = []
        for node_id in path.node_ids:
            var = assign_var(("node", node_id))
            labels: Tuple[str, ...] = ()
            node = self.graph.node(node_id)
            if node.labels and rng.random() < self.label_probability:
                count = rng.randint(1, min(2, len(node.labels)))
                labels = tuple(rng.sample(sorted(node.labels), count))
            nodes.append(ast.NodePattern(var, labels))

        rels: List[ast.RelationshipPattern] = []
        for rel_id, forward in path.rels:
            var = assign_var(("rel", rel_id))
            rel = self.graph.relationship(rel_id)
            types: Tuple[str, ...] = ()
            if rng.random() < self.label_probability:
                types = (rel.type,)
            if rng.random() < self.undirected_probability:
                direction = ast.BOTH
            else:
                direction = ast.OUT if forward else ast.IN
            rels.append(ast.RelationshipPattern(var, types, direction))
        return ast.PathPattern(tuple(nodes), tuple(rels))

    # ------------------------------------------------------------------
    # Disambiguation (Figure 6) and predicate complexification
    # ------------------------------------------------------------------

    def _pin_to_unique(
        self,
        patterns: Tuple[ast.PathPattern, ...],
        scope: Dict[str, Any],
        bindings: Dict[str, Any],
        element_to_var: Dict[Element, str],
        where_terms: List[ast.Expression],
        match_budget: int = 64,
    ) -> int:
        """Add pin predicates until the patterns match exactly one subgraph.

        A pin is applied by binding the variable in the match's input row
        (equivalent to the predicate, but cheaper).  Each round runs the
        patterns compiled once into a :class:`MatchOp`, stopped at
        *match_budget* rows: the same rows, in the same order, as the
        reference matcher cut at the budget.  Matching is a fixed-order
        DFS, so binding one variable only restricts one loop: when the
        previous round's list was complete (under *match_budget*),
        filtering it gives exactly what re-matching would, in the same
        order.  Only a list truncated at the budget is matched again.
        """
        row = {
            var: value
            for var, value in scope.items()
            if isinstance(value, (Node, Relationship))
        }
        op = compile_match(patterns, enforce_rel_uniqueness=True)
        pinned: Set[str] = set()
        pin_count = 0
        matches = op.first_rows(row, self._context, match_budget)

        while True:
            ambiguous = self._ambiguous_variable(matches, bindings, pinned)
            if ambiguous is None:
                break
            intended = bindings[ambiguous]
            where_terms.append(self._pin_predicate(ambiguous, intended))
            pinned.add(ambiguous)
            pin_count += 1
            row[ambiguous] = intended
            if len(matches) < match_budget:
                matches = [
                    match for match in matches
                    if type(match.get(ambiguous)) is type(intended)
                    and match[ambiguous].id == intended.id
                ]
            else:
                matches = op.first_rows(row, self._context, match_budget)
        return pin_count

    def _ambiguous_variable(
        self,
        matches: List[Dict[str, Any]],
        bindings: Dict[str, Any],
        pinned: Set[str],
    ) -> Optional[str]:
        """A variable whose assignment differs across matches, if any."""
        if len(matches) <= 1 and matches:
            # Single match: confirm it is the intended one; if not, pin the
            # first deviating variable.
            for var, intended in bindings.items():
                actual = matches[0].get(var)
                if actual is None or actual.id != intended.id or type(actual) is not type(intended):
                    if var not in pinned:
                        return var
            return None
        if not matches:
            # The intended assignment exists by construction, so an empty
            # match list can only mean the budget interplay removed it;
            # pin everything remaining to converge.
            for var in bindings:
                if var not in pinned:
                    return var
            return None
        for var, intended in bindings.items():
            if var in pinned:
                continue
            for match in matches:
                actual = match.get(var)
                if actual is None or actual.id != intended.id:
                    return var
        # All variables agree across every match — duplicates are identical.
        return None

    def _draw_depth(self) -> int:
        """A random nesting depth; zero when nesting is disabled."""
        if self.obfuscation_depth < 1:
            return 0
        return self.rng.randint(1, self.obfuscation_depth)

    def _pin_predicate(self, var: str, element: Any) -> ast.Expression:
        """``var.id = <id>``, optionally obfuscated with Algorithm 2."""
        rng = self.rng
        id_value = element.properties.get(self.id_property)
        if id_value is None:
            raise ValueError(
                f"element {element!r} lacks the {self.id_property!r} property "
                f"required for pin predicates"
            )
        access: ast.Expression = ast.PropertyAccess(
            ast.Variable(var), self.id_property
        )
        if isinstance(element, Node):
            competitors = [
                node.properties.get(self.id_property)
                for node in self.graph.nodes()
                if node.id != element.id
            ]
        else:
            competitors = [
                rel.properties.get(self.id_property)
                for rel in self.graph.relationships()
                if rel.id != element.id
            ]
        competitors = [value for value in competitors if value is not None]

        expected = id_value
        if rng.random() < 0.7:
            access, expected = self.expressions.obfuscate_property_access(
                access, id_value, competitors, self._draw_depth()
            )
        rhs = self.expressions.constant_expression(
            expected, rng.randint(0, self.obfuscation_depth)
        )
        return ast.Binary("=", access, rhs)

    def _truthful_predicate(self, var: str, element: Any) -> Optional[ast.Expression]:
        """A predicate over *var* that is true for its intended binding."""
        rng = self.rng
        from repro.graph import values as V

        names = [
            name
            for name, value in element.properties.items()
            if V.ternary_equals(value, value) is True
        ]
        if not names:
            return None
        name = rng.choice(names)
        value = element.properties[name]
        access: ast.Expression = ast.PropertyAccess(ast.Variable(var), name)

        if isinstance(element, Node):
            pool = [
                node.properties.get(name)
                for node in self.graph.nodes()
                if node.id != element.id
            ]
        else:
            pool = [
                rel.properties.get(name)
                for rel in self.graph.relationships()
                if rel.id != element.id
            ]
        pool = [item for item in pool if item is not None]

        expected = value
        if rng.random() < 0.5:
            access, expected = self.expressions.obfuscate_property_access(
                access, value, pool, self._draw_depth()
            )

        # Either an equality or (for comparable types) a true inequality.
        if isinstance(expected, (int, float)) and not isinstance(expected, bool) \
                and rng.random() < 0.4:
            op = rng.choice(["<=", ">="])
            slack = rng.randint(0, 100)
            bound = expected + slack if op == "<=" else expected - slack
            rhs = self.expressions.constant_expression(
                bound, rng.randint(0, self.obfuscation_depth)
            )
            return ast.Binary(op, access, rhs)
        if isinstance(expected, str) and rng.random() < 0.4:
            op = rng.choice(["STARTS WITH", "ENDS WITH", "CONTAINS"])
            if op == "STARTS WITH":
                fragment = expected[: rng.randint(0, len(expected))]
            elif op == "ENDS WITH":
                fragment = expected[len(expected) - rng.randint(0, len(expected)):]
            else:
                if expected:
                    start = rng.randrange(len(expected) + 1)
                    end = rng.randint(start, len(expected))
                    fragment = expected[start:end]
                else:
                    fragment = ""
            return ast.Binary(op, access, ast.Literal(fragment))
        rhs = self.expressions.constant_expression(
            expected, rng.randint(0, self.obfuscation_depth)
        )
        return ast.Binary("=", access, rhs)

    def _uniqueness_terms(
        self, patterns: Tuple[ast.PathPattern, ...]
    ) -> List[ast.Expression]:
        """``r1 <> r2`` predicates for dialects without rel uniqueness (§4)."""
        rel_vars: List[str] = []
        for pattern in patterns:
            for rel in pattern.relationships:
                if rel.variable:
                    rel_vars.append(rel.variable)
        terms: List[ast.Expression] = []
        for left, right in itertools.combinations(sorted(set(rel_vars)), 2):
            terms.append(
                ast.Binary("<>", ast.Variable(left), ast.Variable(right))
            )
        return terms


def _conjoin(terms: List[ast.Expression]) -> Optional[ast.Expression]:
    """AND-join predicate terms as a balanced tree, or None when empty.

    Balancing keeps the conjunction's contribution to expression depth
    logarithmic in the number of terms, so the nesting-depth metric reflects
    the deliberately nested sub-expressions rather than predicate count.
    """
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    middle = len(terms) // 2
    return ast.Binary(
        "AND", _conjoin(terms[:middle]), _conjoin(terms[middle:])
    )
