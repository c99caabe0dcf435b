"""Property test: printer and parser are inverse on generated ASTs.

Hypothesis builds random expression and query trees directly over the AST
constructors; printing then reparsing must reproduce the tree exactly (up to
the printer's canonical parenthesization, which the second print exposes).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import ast
from repro.cypher.parser import parse_expression, parse_query
from repro.cypher.printer import print_expression, print_query

identifiers = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,5}", fullmatch=True).filter(
    # Avoid colliding with keywords the lexer would uppercase.
    lambda s: s.upper() not in {
        "AND", "OR", "XOR", "NOT", "IN", "IS", "NULL", "TRUE", "FALSE",
        "CASE", "WHEN", "THEN", "ELSE", "END", "MATCH", "RETURN", "WITH",
        "UNWIND", "AS", "WHERE", "ORDER", "BY", "SKIP", "LIMIT", "UNION",
        "ALL", "CALL", "YIELD", "DISTINCT", "OPTIONAL", "CREATE", "SET",
        "DELETE", "DETACH", "REMOVE", "MERGE", "STARTS", "ENDS", "CONTAINS",
        "DESC", "ASC", "DESCENDING", "ASCENDING", "ON",
    }
)

literal_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=8
    ),
)

_BINARY_OPS = [
    "+", "-", "*", "/", "%", "^", "=", "<>", "<", "<=", ">", ">=",
    "AND", "OR", "XOR", "IN", "STARTS WITH", "ENDS WITH", "CONTAINS",
]


def expressions(max_depth=4):
    leaves = st.one_of(
        literal_values.map(ast.Literal),
        identifiers.map(ast.Variable),
        st.builds(
            ast.PropertyAccess,
            identifiers.map(ast.Variable),
            identifiers,
        ),
    )

    def extend(children):
        return st.one_of(
            st.builds(
                ast.Binary, st.sampled_from(_BINARY_OPS), children, children
            ),
            st.builds(ast.Unary, st.just("NOT"), children),
            st.builds(ast.IsNull, children, st.booleans()),
            st.builds(
                ast.FunctionCall,
                st.sampled_from(["abs", "head", "toString", "coalesce", "size"]),
                st.tuples(children),
            ),
            st.lists(children, max_size=3).map(
                lambda items: ast.ListLiteral(tuple(items))
            ),
            st.builds(ast.ListIndex, children, children),
            st.builds(
                ast.CaseExpression,
                st.none(),
                st.tuples(st.builds(ast.CaseAlternative, children, children)),
                children,
            ),
            st.builds(
                ast.ListComprehension,
                identifiers,
                children,
                st.none(),
                children,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestExpressionRoundTrip:
    @given(expressions())
    @settings(max_examples=250, deadline=None)
    def test_print_parse_print_is_stable(self, expr):
        printed = print_expression(expr)
        reparsed = parse_expression(printed)
        assert print_expression(reparsed) == printed

    @given(literal_values)
    @settings(max_examples=150, deadline=None)
    def test_literals_round_trip_exactly(self, value):
        expr = ast.Literal(value)
        reparsed = parse_expression(print_expression(expr))
        assert reparsed == expr


node_patterns = st.builds(
    ast.NodePattern,
    st.one_of(st.none(), identifiers),
    st.lists(identifiers, max_size=2).map(tuple),
    st.none(),
)
rel_patterns = st.builds(
    ast.RelationshipPattern,
    st.one_of(st.none(), identifiers),
    st.lists(identifiers, max_size=2).map(tuple),
    st.sampled_from([ast.OUT, ast.IN, ast.BOTH]),
    st.none(),
)


@st.composite
def path_patterns(draw):
    length = draw(st.integers(min_value=0, max_value=2))
    nodes = tuple(draw(node_patterns) for _ in range(length + 1))
    rels = tuple(draw(rel_patterns) for _ in range(length))
    return ast.PathPattern(nodes, rels)


@st.composite
def queries(draw):
    clauses = []
    n_match = draw(st.integers(min_value=1, max_value=2))
    for _ in range(n_match):
        patterns = tuple(
            draw(path_patterns())
            for _ in range(draw(st.integers(min_value=1, max_value=2)))
        )
        where = draw(st.one_of(st.none(), expressions(max_depth=2)))
        clauses.append(ast.Match(patterns, draw(st.booleans()), where))
    items = tuple(
        ast.ProjectionItem(draw(expressions(max_depth=2)), f"c{i}")
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    )
    clauses.append(ast.Return(items, distinct=draw(st.booleans())))
    return ast.Query(tuple(clauses))


class TestQueryRoundTrip:
    @given(queries())
    @settings(max_examples=120, deadline=None)
    def test_print_parse_print_is_stable(self, query):
        printed = print_query(query)
        reparsed = parse_query(printed)
        assert print_query(reparsed) == printed


class TestSynthesizedQueryRoundTrip:
    """Round-trip idempotence over the *real* synthesizer's output.

    Hypothesis covers the AST constructors; this covers the query shapes
    the campaigns actually emit — the population the query reducer's
    printer→parser round-trip check (:func:`repro.reduce.roundtrips`) must
    hold on.  200 queries across 10 seeds and both structured/schema-free
    dialect configs.
    """

    def test_parse_print_idempotent_on_synthesized_queries(self):
        import random

        from repro.core import QuerySynthesizer
        from repro.core.runner import synthesizer_config_for
        from repro.gdb import create_engine
        from repro.graph import GraphGenerator

        checked = 0
        for seed in range(10):
            _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
            engine = create_engine("neo4j" if seed % 2 else "kuzu")
            synthesizer = QuerySynthesizer(
                graph, rng=random.Random(seed),
                config=synthesizer_config_for(engine),
            )
            for _ in range(20):
                printed = print_query(synthesizer.synthesize().query)
                assert print_query(parse_query(printed)) == printed
                checked += 1
        assert checked == 200

    def test_features_survive_the_round_trip(self):
        """Fault-gating features are the same on the tree and its text.

        The campaign gates faults on features of the synthesized tree; a
        bundle replay gates them on the parsed text.  Non-finite float
        constants once broke this (a ``Literal(inf)`` prints as a
        division and parses back as one), so the seeds here are ones
        whose first queries hold such constants.
        """
        import random

        from repro.core import QuerySynthesizer
        from repro.core.runner import synthesizer_config_for
        from repro.gdb import create_engine
        from repro.gdb.faults import extract_features
        from repro.graph import GraphGenerator

        non_finite = 0
        for name in ("neo4j", "memgraph", "kuzu", "falkordb"):
            engine = create_engine(name, faults_enabled=False)
            for seed in (1, 5):
                _schema, graph = GraphGenerator(
                    seed=seed
                ).generate_with_schema()
                synthesizer = QuerySynthesizer(
                    graph, rng=random.Random(seed),
                    config=synthesizer_config_for(engine),
                )
                for _ in range(10):
                    query = synthesizer.synthesize().query
                    text = print_query(query)
                    non_finite += "/ (0.0))" in text
                    assert extract_features(query, text) == \
                        extract_features(parse_query(text), text), text
        assert non_finite > 0

    def test_parse_print_idempotent_on_write_statements(self):
        """The stateful synthesizer's write statements round-trip too.

        Covers the write-clause grammar the read-only population never
        exercises: CREATE (standalone and relationship-wiring), MERGE
        (match and create arms), SET, plain DELETE, DETACH DELETE, and
        REMOVE of both properties and labels.  The sequence reducer
        re-parses recorded statements, so this is the shape it depends on.
        """
        import random

        from repro.core.runner import synthesizer_config_for
        from repro.gdb import create_engine
        from repro.graph import GraphGenerator
        from repro.synth.state import StatefulSynthesizer, StateModel

        checked = 0
        seen_kinds = set()
        for seed in range(10):
            _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
            engine = create_engine("memgraph" if seed % 2 else "falkordb")
            model = StateModel(
                graph,
                enforce_rel_uniqueness=engine.dialect.enforces_rel_uniqueness,
                supports_call_procedures=(
                    engine.dialect.supports_call_procedures
                ),
            )
            synthesizer = StatefulSynthesizer(
                model,
                random.Random(seed),
                config=synthesizer_config_for(engine),
                stateful_ratio=1.0,  # writes only
            )
            for _ in range(20):
                proposal = synthesizer.propose()
                assert proposal.is_write
                seen_kinds.add(proposal.statement_kind)
                printed = proposal.text
                assert print_query(parse_query(printed)) == printed
                # Keep the shadow in lockstep so later statements stay
                # valid against the evolved state.
                model.apply(proposal.query)
                checked += 1
        assert checked == 200
        assert seen_kinds == {"create", "merge", "set", "delete", "remove"}
