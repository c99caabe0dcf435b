"""Boundary cases of the value model that bit us during development."""

import pytest

from repro.gdb import create_engine
from repro.graph import values as V
from repro.graph.model import PropertyGraph


class TestFloatBoundaries:
    def test_infinities_compare(self):
        assert V.ternary_compare(float("inf"), 1e308) == 1
        assert V.ternary_compare(float("-inf"), -1e308) == -1
        assert V.ternary_equals(float("inf"), float("inf")) is True

    def test_infinity_ordering(self):
        ordered = V.sort_values([1.0, float("inf"), float("-inf"), 0])
        assert ordered == [float("-inf"), 0, 1.0, float("inf")]

    def test_negative_zero_equals_zero(self):
        assert V.ternary_equals(-0.0, 0.0) is True
        assert V.equivalent(-0.0, 0.0)

    def test_large_int_vs_float(self):
        assert V.ternary_equals(2**53, float(2**53)) is True

    def test_equivalence_key_keeps_large_integers_apart(self):
        big = 2**62
        assert V.equivalence_key(big + 1) != V.equivalence_key(big)
        assert V.equivalence_key(float(big)) == V.equivalence_key(big)
        assert V.equivalence_key(1) == V.equivalence_key(1.0)
        assert V.equivalence_key(-0.0) == V.equivalence_key(0.0)
        assert V.equivalence_key([big + 1]) != V.equivalence_key([big])
        assert V.equivalence_key(float("nan")) == V.equivalence_key(
            float("nan")
        )
        assert V.equivalence_key(float("inf")) != V.equivalence_key(
            float("-inf")
        )

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    @pytest.mark.parametrize("query, rows", [
        ("UNWIND [4611686018427387905, 4611686018427387904] AS x "
         "RETURN DISTINCT x",
         [(4611686018427387905,), (4611686018427387904,)]),
        ("UNWIND [4611686018427387905, 4611686018427387904, "
         "4611686018427387904.0] AS x RETURN x, count(*) AS c",
         [(4611686018427387905, 1), (4611686018427387904, 2)]),
        ("UNWIND [4611686018427387905, 4611686018427387904] AS x "
         "RETURN count(DISTINCT x) AS c",
         [(2,)]),
        ("UNWIND [1, 1.0, 0.0, -0.0] AS x RETURN DISTINCT x",
         [(1,), (0.0,)]),
    ])
    def test_distinct_and_grouping_on_large_integers(self, mode, query, rows):
        engine = create_engine("neo4j", execution_mode=mode,
                               faults_enabled=False)
        engine.load_graph(PropertyGraph(), None)
        assert engine.execute(query).rows == rows

    def test_equivalence_key_of_infinity_hashable(self):
        hash(V.equivalence_key(float("inf")))
        hash(V.equivalence_key([float("-inf"), None]))


class TestDeepNesting:
    def test_deep_list_equality(self):
        deep_a = deep_b = 1
        for _ in range(50):
            deep_a = [deep_a]
            deep_b = [deep_b]
        assert V.ternary_equals(deep_a, deep_b) is True
        assert V.equivalent(deep_a, deep_b)

    def test_deep_list_ordering(self):
        shallow = [[1]]
        deep = [[[1]]]
        V.sort_values([shallow, deep])  # must not raise


class TestEmptyContainers:
    def test_empty_list_equality(self):
        assert V.ternary_equals([], []) is True
        assert V.ternary_equals([], [None]) is False

    def test_empty_map_equality(self):
        assert V.ternary_equals({}, {}) is True
        assert V.ternary_equals({}, {"a": None}) is False

    def test_empty_list_sorts_first_among_lists(self):
        assert V.sort_values([[1], [], [0]]) == [[], [0], [1]]


class TestMixedMapSemantics:
    def test_map_with_null_value_undecided(self):
        assert V.ternary_equals({"a": None}, {"a": None}) is None

    def test_map_key_mismatch_decides_before_null(self):
        assert V.ternary_equals({"a": None}, {"b": 1}) is False

    def test_map_ordering_by_sorted_keys(self):
        ordered = V.sort_values([{"b": 1}, {"a": 9}])
        assert ordered == [{"a": 9}, {"b": 1}]

    def test_map_equivalence_ignores_insertion_order(self):
        assert V.equivalent({"a": 1, "b": 2}, {"b": 2, "a": 1})


class TestStringEdgeCases:
    def test_empty_string_comparisons(self):
        assert V.ternary_compare("", "a") == -1
        assert V.ternary_equals("", "") is True

    def test_unicode_strings(self):
        assert V.ternary_equals("héllo", "héllo") is True
        assert V.ternary_compare("a", "é") == -1
