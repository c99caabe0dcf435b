"""Synthesis on compiled closures agrees with the interpreter.

``ExpressionFactory.obfuscate_property_access`` (Algorithm 2) compiles each
drawn template once and runs the closure on the target and on each
competitor, rejecting at the first competitor that errors or collides; when
a competitor holds exactly the target's value it evaluates nothing at all.
``PatternBuilder._pin_to_unique`` matches through a compiled ``MatchOp``
stopped at the match budget, and filters the previous round's list when it
was complete.  Both are claimed to be exact: same predicates, same pin
count, same returned expression and type-exact value, and the same RNG
state afterwards.  These tests run the shipped code and test-local
references side by side, from the same RNG state, on every call made while
synthesizing queries for all four engines over several seeds.  The
references use the interpreter directly: templates are evaluated by
``Evaluator`` on a literal operand, every competitor is evaluated before
deciding, and every pin round is re-matched by ``Matcher``.
"""

import itertools
import math
import random

import pytest

from repro.core import QuerySynthesizer
from repro.core.expressions import ExpressionFactory, _lit, type_of_value
from repro.core.patterns import PatternBuilder
from repro.core.runner import synthesizer_config_for
from repro.cypher import ast
from repro.cypher.printer import print_expression
from repro.engine.errors import CypherError
from repro.engine.evaluator import Evaluator
from repro.engine.matcher import Matcher
from repro.engine.plan import ExecutionContext, compile_expr, compile_match
from repro.gdb import create_engine
from repro.graph import GraphGenerator
from repro.graph import values as V
from repro.graph.model import Node, PropertyGraph, Relationship

ENGINES = ("neo4j", "memgraph", "kuzu", "falkordb")
SEEDS = (0, 1, 2)
QUERIES_PER_CELL = 17  # 4 engines x 3 seeds x 17 = 204 queries
#: A budget small enough that most first rounds are cut off at it.
SMALL_BUDGET = 2
#: Values every template family is run on, compiled and interpreted.
EDGE_VALUES = [
    0, 1, -1, 7, 2**63 - 1, -(2**63), 2**53 + 1,
    7.0, 0.0, -0.0, 1.5, -2.5e300, math.nan, math.inf, -math.inf,
    "", "abc", "  padded  ", "héllo ✓ 日本", "#",
    True, False, None,
    [], [1, [2, [3, []]]], [None], [1.0, "x", None], ["ü", ["ß"]],
    [math.nan], [-0.0, 0.0],
]


def exact(value):
    """A key equal for two values iff they have the same types and values.

    Stricter than ``equivalence_key``: 1 and 1.0 differ, -0.0 and 0.0
    differ; NaN equals NaN so that identical results compare equal.
    """
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, list):
        return ("list", tuple(exact(item) for item in value))
    if isinstance(value, dict):
        return ("map", tuple(sorted((k, exact(v)) for k, v in value.items())))
    return (type(value).__name__, value)


def reference_eval(graph, template, value):
    """The interpreter's value of *template* applied to a literal *value*."""
    return Evaluator(graph).evaluate(template(_lit(value)), {})


def reference_match(graph, patterns, row, budget):
    """The reference matcher's first *budget* rows."""
    matcher = Matcher(graph, enforce_rel_uniqueness=True)
    return list(itertools.islice(matcher.match(patterns, row), budget))


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
        matches = reference_match(builder.graph, patterns, row, match_budget)
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
    """Algorithm 2 in the interpreter, evaluating every competitor."""
    graph = factory.graph
    expr = access
    value = target_value
    others = list(competitor_values)
    for _level in range(depth):
        for _attempt in range(attempts_per_level):
            template = factory._pick_template(type_of_value(value))
            if template is None:
                break
            try:
                new_value = reference_eval(graph, template, value)
                new_others = [
                    reference_eval(graph, template, other)
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


def template_families():
    """Every template ``_pick_template`` can return, per value type."""

    class Capturing(random.Random):
        captured = None

        def choice(self, seq):
            if seq and callable(seq[0]):
                self.captured = list(seq)
            return super().choice(seq)

    families = {}
    for value_type in ("INTEGER", "FLOAT", "STRING", "BOOLEAN", "LIST"):
        rng = Capturing(3)
        ExpressionFactory(PropertyGraph(), rng)._pick_template(value_type)
        families[value_type] = rng.captured
    return families


class TestIncrementalPinning:
    def test_matches_the_rematching_loop(self, monkeypatch):
        shipped = PatternBuilder._pin_to_unique
        stats = {"calls": 0, "pins": 0, "truncated": 0, "small_pins": 0}

        def checked(self, patterns, scope, bindings, element_to_var,
                    where_terms, match_budget=64):
            # The capped compiled match alone, on this call's first round.
            row = {
                var: value for var, value in scope.items()
                if isinstance(value, (Node, Relationship))
            }
            op = compile_match(patterns)
            for budget in (1, SMALL_BUDGET, match_budget):
                assert op.first_rows(
                    row, ExecutionContext(self.graph), budget
                ) == reference_match(self.graph, patterns, row, budget)

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

    def test_capped_match_with_bound_variables(self):
        # Pre-bound node and relationship variables, a typed hop and a
        # shared variable across two patterns, at every cap.
        _schema, graph = GraphGenerator(seed=3).generate_with_schema()
        rel = next(iter(graph.relationships()))
        patterns = (
            ast.PathPattern(
                (ast.NodePattern("a", ()), ast.NodePattern("b", ())),
                (ast.RelationshipPattern("r", (rel.type,), ast.OUT),),
            ),
            ast.PathPattern(
                (ast.NodePattern("b", ()), ast.NodePattern("c", ())),
                (ast.RelationshipPattern("s", (), ast.BOTH),),
            ),
        )
        op = compile_match(patterns)
        ctx = ExecutionContext(graph)
        rows = ({}, {"a": graph.node(rel.start)}, {"r": rel},
                {"b": graph.node(rel.end), "s": rel})
        for row in rows:
            for budget in (0, 1, 3, 10**6):
                assert op.first_rows(row, ctx, budget) == reference_match(
                    graph, patterns, row, budget
                )


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
            assert exact(value) == exact(want_value)
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
        # Identical competitors: every template collides, so nothing is
        # evaluated, but the draws still happen.
        (7, [7]),
        (7, [3, 7, 9]),
        ("abc", ["abc"]),
        ([1, [2.0]], [[1, [2.0]]]),
        # Equivalent but not identical: still evaluated.
        (7, [7.0]),
        (0.0, [-0.0]),
        ([1], [[1.0]]),
        (math.nan, [math.nan]),
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
            assert exact(got[1]) == exact(want[1])
            assert factory.rng.getstate() == want_state

    def test_identical_competitor_skips_evaluation(self, monkeypatch):
        evaluated = []
        shipped = ExpressionFactory._separate

        def counting(self, template, value, others):
            evaluated.append(value)
            return shipped(self, template, value, others)

        monkeypatch.setattr(ExpressionFactory, "_separate", counting)
        access = ast.PropertyAccess(ast.Variable("n"), "p")
        for target, competitors, skipped in [
            (7, [1, 7], True),
            (7, [7.0], False),
            (0.0, [-0.0], False),
            (-0.0, [-0.0], True),
        ]:
            evaluated.clear()
            factory = ExpressionFactory(PropertyGraph(), random.Random(1))
            expr, value = factory.obfuscate_property_access(
                access, target, competitors, 3
            )
            assert (not evaluated) is skipped
            if skipped:
                assert expr is access and exact(value) == exact(target)

    def test_every_template_family_compiled_equals_interpreted(self):
        graph = PropertyGraph()
        ctx = ExecutionContext(graph)
        checked = 0
        for value_type, templates in template_families().items():
            assert templates, value_type
            for template in templates:
                fn = compile_expr(template(ast.Variable("operand")))
                for value in EDGE_VALUES:
                    try:
                        want = ("value", exact(
                            reference_eval(graph, template, value)
                        ))
                    except CypherError:
                        want = ("error",)
                    try:
                        got = ("value", exact(fn({"operand": value}, ctx)))
                    except CypherError:
                        got = ("error",)
                    assert got == want, (
                        value_type,
                        print_expression(template(ast.Variable("operand"))),
                        value,
                    )
                    checked += 1
        assert checked >= 48 * len(EDGE_VALUES)
