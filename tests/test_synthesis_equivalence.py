"""The fast synthesis paths agree with their exhaustive reference forms.

``PatternBuilder._pin_to_unique`` filters the previous round's match list
instead of re-running the matcher whenever that list was complete, and
``ExpressionFactory.obfuscate_property_access`` rejects a template at the
first competitor that errors or collides.  Both are claimed to be exact:
same predicates, same pin count, same returned expression and value, and
the same RNG state afterwards.  These tests run the shipped code and a
test-local copy of the old loop side by side, from the same RNG state, on
every call made while synthesizing queries for all four engines over
several seeds.
"""

import itertools
import random

import pytest

from repro.core import QuerySynthesizer
from repro.core.expressions import ExpressionFactory, type_of_value
from repro.core.patterns import PatternBuilder
from repro.core.runner import synthesizer_config_for
from repro.cypher import ast
from repro.cypher.printer import print_expression
from repro.engine.errors import CypherError
from repro.gdb import create_engine
from repro.graph import GraphGenerator
from repro.graph import values as V
from repro.graph.model import Node, PropertyGraph, Relationship

ENGINES = ("neo4j", "memgraph", "kuzu", "falkordb")
SEEDS = (0, 1, 2)
QUERIES_PER_CELL = 17  # 4 engines x 3 seeds x 17 = 204 queries
#: A budget small enough that most first rounds are cut off at it.
SMALL_BUDGET = 2


def reference_pin_to_unique(builder, patterns, scope, bindings, where_terms,
                            match_budget):
    """The pin loop before filtering: re-match every round."""
    row = {
        var: value
        for var, value in scope.items()
        if isinstance(value, (Node, Relationship))
    }
    pinned = set()
    pin_count = 0
    first_round = None
    while True:
        matches = list(itertools.islice(
            builder._matcher.match(patterns, row), match_budget
        ))
        if first_round is None:
            first_round = len(matches)
        ambiguous = builder._ambiguous_variable(matches, bindings, pinned)
        if ambiguous is None:
            break
        where_terms.append(
            builder._pin_predicate(ambiguous, bindings[ambiguous])
        )
        pinned.add(ambiguous)
        pin_count += 1
        row[ambiguous] = bindings[ambiguous]
    return pin_count, first_round


def reference_obfuscate(factory, access, target_value, competitor_values,
                        depth, attempts_per_level=8):
    """Algorithm 2 evaluating every competitor before deciding."""
    expr = access
    value = target_value
    others = list(competitor_values)
    for _level in range(depth):
        for _attempt in range(attempts_per_level):
            template = factory._pick_template(type_of_value(value))
            if template is None:
                break
            try:
                new_value = factory._eval_template(template, value)
                new_others = [
                    factory._eval_template(template, other)
                    for other in others
                ]
            except CypherError:
                continue
            if V.ternary_equals(new_value, new_value) is not True:
                continue
            target_key = V.equivalence_key(new_value)
            if target_key in {V.equivalence_key(o) for o in new_others}:
                continue
            expr = template(expr)
            value = new_value
            others = new_others
            break
    return expr, value


def synthesize_everywhere():
    """Synthesize the query population; returns the number of queries."""
    count = 0
    for name in ENGINES:
        engine = create_engine(name, faults_enabled=False)
        for seed in SEEDS:
            _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
            synthesizer = QuerySynthesizer(
                graph, rng=random.Random(seed),
                config=synthesizer_config_for(engine),
            )
            for _ in range(QUERIES_PER_CELL):
                synthesizer.synthesize()
                count += 1
    return count


def printed(terms):
    return [print_expression(term) for term in terms]


class TestIncrementalPinning:
    def test_matches_the_rematching_loop(self, monkeypatch):
        shipped = PatternBuilder._pin_to_unique
        stats = {"calls": 0, "pins": 0, "truncated": 0, "small_pins": 0}

        def checked(self, patterns, scope, bindings, element_to_var,
                    where_terms, match_budget=64):
            state = self.rng.getstate()
            for budget in (SMALL_BUDGET, match_budget):
                self.rng.setstate(state)
                want_terms = list(where_terms)
                want, first_round = reference_pin_to_unique(
                    self, patterns, scope, bindings, want_terms, budget
                )
                want_state = self.rng.getstate()
                self.rng.setstate(state)
                got_terms = list(where_terms)
                got = shipped(self, patterns, scope, bindings,
                              element_to_var, got_terms, match_budget=budget)
                assert got == want
                assert printed(got_terms) == printed(want_terms)
                assert self.rng.getstate() == want_state
                if budget == SMALL_BUDGET:
                    stats["small_pins"] += got
                    if first_round == SMALL_BUDGET:
                        stats["truncated"] += 1
            self.rng.setstate(state)
            count = shipped(self, patterns, scope, bindings, element_to_var,
                            where_terms, match_budget)
            stats["calls"] += 1
            stats["pins"] += count
            return count

        monkeypatch.setattr(PatternBuilder, "_pin_to_unique", checked)
        assert synthesize_everywhere() >= 200
        assert stats["calls"] >= 200
        assert stats["pins"] > 0
        # The re-match branch ran: many first rounds were cut at the budget
        # and still pinned down to the one intended match.
        assert stats["truncated"] > 0
        assert stats["small_pins"] > 0

    def test_truncated_first_round_rematches(self):
        # A one-hop undirected pattern matches every relationship both
        # ways round: a budget of one truncates every round, so each pin
        # re-matches, and the answer must still agree.
        _schema, graph = GraphGenerator(seed=7).generate_with_schema()
        patterns = (ast.PathPattern(
            (ast.NodePattern("a", ()), ast.NodePattern("b", ())),
            (ast.RelationshipPattern("r", (), ast.BOTH),),
        ),)
        rel = next(iter(graph.relationships()))
        bindings = {
            "a": graph.node(rel.start),
            "r": rel,
            "b": graph.node(rel.end),
        }
        for budget in (1, 2, 64):
            for seed in range(5):
                builder = PatternBuilder(graph, random.Random(seed))
                want_terms = []
                want, first_round = reference_pin_to_unique(
                    builder, patterns, {}, bindings, want_terms, budget
                )
                want_state = builder.rng.getstate()
                builder = PatternBuilder(graph, random.Random(seed))
                got_terms = []
                got = builder._pin_to_unique(
                    patterns, {}, bindings, {}, got_terms, match_budget=budget
                )
                assert got == want
                assert printed(got_terms) == printed(want_terms)
                assert builder.rng.getstate() == want_state
                if budget == 1:
                    assert first_round == 1


class TestFirstCollisionRejection:
    def test_matches_the_exhaustive_check(self, monkeypatch):
        shipped = ExpressionFactory.obfuscate_property_access
        stats = {"calls": 0, "levels": 0}

        def checked(self, access, target_value, competitor_values, depth,
                    attempts_per_level=8):
            state = self.rng.getstate()
            want_expr, want_value = reference_obfuscate(
                self, access, target_value, competitor_values, depth,
                attempts_per_level,
            )
            want_state = self.rng.getstate()
            self.rng.setstate(state)
            expr, value = shipped(self, access, target_value,
                                  competitor_values, depth,
                                  attempts_per_level)
            assert print_expression(expr) == print_expression(want_expr)
            assert V.equivalence_key(value) == V.equivalence_key(want_value)
            assert self.rng.getstate() == want_state
            stats["calls"] += 1
            if expr is not access:
                stats["levels"] += 1
            return expr, value

        monkeypatch.setattr(
            ExpressionFactory, "obfuscate_property_access", checked
        )
        assert synthesize_everywhere() >= 200
        assert stats["calls"] >= 200
        assert stats["levels"] > 0

    @pytest.mark.parametrize("target, competitors", [
        (7, [1, 2, 3, 7.0]),
        ("abc", ["ABC", "abd", ""]),
        (True, [False]),
        ([1, 2], [[2, 1], [1, 2, 3]]),
        (2.5, [2.5000001, -2.5]),
    ])
    def test_colliding_competitors(self, target, competitors):
        # Hand-picked competitors that collide under many templates, so
        # rejections happen at different positions in the list.
        access = ast.PropertyAccess(ast.Variable("n"), "p")
        for seed in range(20):
            factory = ExpressionFactory(PropertyGraph(), random.Random(seed))
            want = reference_obfuscate(factory, access, target, competitors, 3)
            want_state = factory.rng.getstate()
            factory = ExpressionFactory(PropertyGraph(), random.Random(seed))
            got = factory.obfuscate_property_access(
                access, target, competitors, 3
            )
            assert print_expression(got[0]) == print_expression(want[0])
            assert V.equivalence_key(got[1]) == V.equivalence_key(want[1])
            assert factory.rng.getstate() == want_state
