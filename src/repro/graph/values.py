"""Cypher value model.

Cypher (openCypher 9) distinguishes three related but different notions of
"sameness", all of which matter for a correct reference engine:

* **Equality** (the ``=`` operator): ternary.  ``null = x`` is ``null``;
  comparing values of incomparable types (e.g. a string and a number) yields
  ``false``; lists and maps compare structurally and propagate ``null``.
* **Equivalence** (used by ``DISTINCT``, grouping, and set operations):
  total.  ``null`` is equivalent to ``null`` and ``NaN`` to ``NaN``.
* **Orderability** (used by ``ORDER BY``): a total order over *all* values,
  including across types, with ``null`` ordered last in ascending order.

This module implements all three, plus comparability for the inequality
operators (``<`` etc.), which is again ternary: values of different type
families are *incomparable* and the comparison evaluates to ``null``.

Values are represented directly as Python objects: ``None`` (null), ``bool``,
``int``, ``float``, ``str``, ``list`` and ``dict``, plus the graph element
classes from :mod:`repro.graph.model`.  Keeping native representations makes
the evaluator short and keeps test fixtures readable.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional

__all__ = [
    "CypherTypeError",
    "is_null",
    "type_name",
    "ternary_equals",
    "ternary_compare",
    "ternary_and",
    "ternary_or",
    "ternary_xor",
    "ternary_not",
    "equivalent",
    "equivalence_key",
    "order_key",
    "coerce_to_boolean",
]


class CypherError(Exception):
    """Root of the Cypher error hierarchy (see :mod:`repro.engine.errors`)."""


class CypherTypeError(CypherError):
    """Raised when an operation receives a value of an unsupported type."""


def is_null(value: Any) -> bool:
    """Return True when *value* is the Cypher ``null``."""
    return value is None


def type_name(value: Any) -> str:
    """Return the Cypher type name of *value* (as reported by ``type()``... )."""
    # Import here to avoid a circular import with repro.graph.model.
    from repro.graph.model import Node, Relationship, Path

    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "BOOLEAN"
    if isinstance(value, int):
        return "INTEGER"
    if isinstance(value, float):
        return "FLOAT"
    if isinstance(value, str):
        return "STRING"
    if isinstance(value, list):
        return "LIST"
    if isinstance(value, dict):
        return "MAP"
    if isinstance(value, Node):
        return "NODE"
    if isinstance(value, Relationship):
        return "RELATIONSHIP"
    if isinstance(value, Path):
        return "PATH"
    raise CypherTypeError(f"unsupported value type: {type(value)!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Ternary equality (the `=` operator)
# ---------------------------------------------------------------------------

def ternary_equals(left: Any, right: Any) -> Optional[bool]:
    """Cypher ``=``: returns True, False, or None (null).

    ``null`` on either side yields ``null``.  Lists and maps are compared
    structurally, and a ``null`` anywhere inside propagates outwards unless a
    structural difference already decides the comparison.
    """
    if left is None or right is None:
        return None

    # Same-concrete-type fast path: only floats need the NaN treatment.
    if left.__class__ is right.__class__:
        cls = left.__class__
        if cls is int or cls is str or cls is bool:
            return left == right

    if _is_number(left) and _is_number(right):
        if isinstance(left, float) and math.isnan(left):
            return False
        if isinstance(right, float) and math.isnan(right):
            return False
        return left == right

    if isinstance(left, bool) and isinstance(right, bool):
        return left == right
    if isinstance(left, str) and isinstance(right, str):
        return left == right

    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return False
        saw_null = False
        for item_l, item_r in zip(left, right):
            verdict = ternary_equals(item_l, item_r)
            if verdict is False:
                return False
            if verdict is None:
                saw_null = True
        return None if saw_null else True

    if isinstance(left, dict) and isinstance(right, dict):
        if set(left) != set(right):
            return False
        saw_null = False
        for key in left:
            verdict = ternary_equals(left[key], right[key])
            if verdict is False:
                return False
            if verdict is None:
                saw_null = True
        return None if saw_null else True

    from repro.graph.model import Node, Relationship, Path

    if isinstance(left, Node) and isinstance(right, Node):
        return left.id == right.id
    if isinstance(left, Relationship) and isinstance(right, Relationship):
        return left.id == right.id
    if isinstance(left, Path) and isinstance(right, Path):
        return left == right

    # Differently typed values are never equal.
    return False


# ---------------------------------------------------------------------------
# Ternary comparison (the `<`, `<=`, `>`, `>=` operators)
# ---------------------------------------------------------------------------

def ternary_compare(left: Any, right: Any) -> Optional[int]:
    """Compare two values for the inequality operators.

    Returns -1, 0, or 1 when the values are comparable, and ``None`` when
    either side is ``null`` or the values belong to incomparable type
    families (numbers, strings, booleans, lists are each their own family).
    """
    if left is None or right is None:
        return None

    if _is_number(left) and _is_number(right):
        if (isinstance(left, float) and math.isnan(left)) or (
            isinstance(right, float) and math.isnan(right)
        ):
            return None
        if left < right:
            return -1
        if left > right:
            return 1
        return 0

    if isinstance(left, bool) and isinstance(right, bool):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)

    if isinstance(left, list) and isinstance(right, list):
        for item_l, item_r in zip(left, right):
            verdict = ternary_compare(item_l, item_r)
            if verdict is None:
                return None
            if verdict != 0:
                return verdict
        return (len(left) > len(right)) - (len(left) < len(right))

    return None


# ---------------------------------------------------------------------------
# Three-valued logic connectives
# ---------------------------------------------------------------------------

def ternary_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene AND over {True, False, None}."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def ternary_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene OR over {True, False, None}."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def ternary_xor(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene XOR over {True, False, None}."""
    if left is None or right is None:
        return None
    return left != right


def ternary_not(value: Optional[bool]) -> Optional[bool]:
    """Kleene NOT over {True, False, None}."""
    if value is None:
        return None
    return not value


def coerce_to_boolean(value: Any) -> Optional[bool]:
    """Coerce *value* to a predicate verdict.

    Only booleans and null are valid predicate results in Cypher; anything
    else is a type error.
    """
    if value is None or isinstance(value, bool):
        return value
    raise CypherTypeError(
        f"expected a BOOLEAN predicate, got {type_name(value)}"
    )


# ---------------------------------------------------------------------------
# Equivalence (DISTINCT / grouping)
# ---------------------------------------------------------------------------

def equivalent(left: Any, right: Any) -> bool:
    """Total equivalence used by DISTINCT: null==null, NaN==NaN."""
    return equivalence_key(left) == equivalence_key(right)


def equivalence_key(value: Any):
    """Return a hashable key such that two values share a key iff they are
    equivalent in the DISTINCT sense."""
    from repro.graph.model import Node, Relationship, Path

    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if _is_number(value):
        if isinstance(value, float) and math.isnan(value):
            return ("nan",)
        # Integers key by their exact int, floats by their float.  Python
        # compares and hashes int against float exactly, so 1 and 1.0 (and
        # 0.0 and -0.0) share a key, as Cypher equivalence requires, while
        # distinct integers above 2**53 keep distinct keys.
        return ("num", value)
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, list):
        return ("list", tuple(equivalence_key(item) for item in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((key, equivalence_key(val)) for key, val in value.items())),
        )
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Relationship):
        return ("rel", value.id)
    if isinstance(value, Path):
        return ("path", tuple(value.element_ids()))
    raise CypherTypeError(f"unsupported value type: {type(value)!r}")


# ---------------------------------------------------------------------------
# Orderability (ORDER BY)
# ---------------------------------------------------------------------------

# Global sort order across type families, per openCypher orderability:
# MAP < NODE < RELATIONSHIP < LIST < PATH < STRING < BOOLEAN < NUMBER < null.
_TYPE_RANK = {
    "MAP": 0,
    "NODE": 1,
    "RELATIONSHIP": 2,
    "LIST": 3,
    "PATH": 4,
    "STRING": 5,
    "BOOLEAN": 6,
    "NUMBER": 7,
    "NULL": 8,
}


class _OrderKey:
    """Wrapper giving any Cypher value a total order (for ``sorted``)."""

    __slots__ = ("rank", "payload")

    def __init__(self, rank: int, payload: Any):
        self.rank = rank
        self.payload = payload

    def __lt__(self, other: "_OrderKey") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        return self._payload_lt(self.payload, other.payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _OrderKey):
            return NotImplemented
        return self.rank == other.rank and not (
            self._payload_lt(self.payload, other.payload)
            or self._payload_lt(other.payload, self.payload)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.rank)

    @staticmethod
    def _payload_lt(left: Any, right: Any) -> bool:
        if isinstance(left, tuple) and isinstance(right, tuple):
            for item_l, item_r in zip(left, right):
                if _OrderKey._payload_lt(item_l, item_r):
                    return True
                if _OrderKey._payload_lt(item_r, item_l):
                    return False
            return len(left) < len(right)
        if isinstance(left, _OrderKey) and isinstance(right, _OrderKey):
            return left < right
        return left < right


def order_key(value: Any) -> _OrderKey:
    """Return a sort key implementing the Cypher global order.

    ``sorted(values, key=order_key)`` yields ascending Cypher order with
    nulls last; ``reverse=True`` yields descending order with nulls first,
    matching Neo4j's behaviour.
    """
    from repro.graph.model import Node, Relationship, Path

    if value is None:
        return _OrderKey(_TYPE_RANK["NULL"], ())
    if isinstance(value, bool):
        return _OrderKey(_TYPE_RANK["BOOLEAN"], (int(value),))
    if _is_number(value):
        num = float(value)
        if math.isnan(num):
            # NaN sorts after all other numbers, before null.
            return _OrderKey(_TYPE_RANK["NUMBER"], (1, 0.0))
        return _OrderKey(_TYPE_RANK["NUMBER"], (0, num))
    if isinstance(value, str):
        return _OrderKey(_TYPE_RANK["STRING"], (value,))
    if isinstance(value, list):
        return _OrderKey(
            _TYPE_RANK["LIST"], tuple(order_key(item) for item in value)
        )
    if isinstance(value, dict):
        payload = tuple(
            (key, order_key(val)) for key, val in sorted(value.items())
        )
        return _OrderKey(_TYPE_RANK["MAP"], payload)
    if isinstance(value, Node):
        return _OrderKey(_TYPE_RANK["NODE"], (value.id,))
    if isinstance(value, Relationship):
        return _OrderKey(_TYPE_RANK["RELATIONSHIP"], (value.id,))
    if isinstance(value, Path):
        return _OrderKey(_TYPE_RANK["PATH"], tuple(value.element_ids()))
    raise CypherTypeError(f"unsupported value type: {type(value)!r}")


def sort_values(values: Iterable[Any], descending: bool = False) -> list:
    """Sort *values* in the Cypher global order."""
    return sorted(values, key=order_key, reverse=descending)
