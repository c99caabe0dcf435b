"""Complex expression generation (paper §3.5).

Two generators live here:

* :meth:`ExpressionFactory.constant_expression` builds an arbitrarily nested
  expression that *evaluates to a given value* — the adaptation of GDsmith's
  value-constrained generation the paper describes ("convert the value
  constraint into respective sub-constraints for the parameters … repeat
  recursively").
* :meth:`ExpressionFactory.obfuscate_property_access` implements
  **Algorithm 2**: starting from a property access used in a disambiguating
  predicate, repeatedly wrap it in expression templates while checking that
  the wrapped expression still *distinguishes* the intended element's value
  from every competing element's value.  The result keeps filtering the same
  subgraph while exercising functions and operators.
"""

from __future__ import annotations

import random
import string
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.cypher import ast
from repro.engine.errors import CypherError
from repro.engine.evaluator import Evaluator
from repro.graph import values as V
from repro.graph.model import PropertyGraph

__all__ = ["ExpressionFactory", "type_of_value"]


def type_of_value(value: Any) -> str:
    """The template type bucket of a Cypher value."""
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
    return "ANY"


def _lit(value: Any) -> ast.Expression:
    if isinstance(value, list):
        return ast.ListLiteral(tuple(_lit(item) for item in value))
    if isinstance(value, dict):
        return ast.MapLiteral(tuple((k, _lit(v)) for k, v in value.items()))
    return ast.Literal(value)


# A wrapping template: given the inner expression, produce the outer one.
_Template = Callable[[ast.Expression], ast.Expression]


class ExpressionFactory:
    """Random yet value-controlled expression synthesis."""

    def __init__(
        self,
        graph: PropertyGraph,
        rng: random.Random,
        use_comprehensions: bool = True,
    ):
        self.graph = graph
        self.rng = rng
        # Disabled for the §7 Gremlin setup, which cannot translate them.
        self.use_comprehensions = use_comprehensions
        self._evaluator = Evaluator(graph)

    # ------------------------------------------------------------------
    # Value-constrained generation (GDsmith-style, adapted)
    # ------------------------------------------------------------------

    def constant_expression(self, value: Any, depth: int) -> ast.Expression:
        """An expression with no free variables that evaluates to *value*."""
        if depth <= 0:
            return _lit(value)
        builders = self._constant_builders(value)
        if not builders:
            return _lit(value)
        builder = self.rng.choice(builders)
        expr = builder(value, depth)
        return expr

    def _constant_builders(self, value: Any):
        rng = self.rng
        generic = [self._via_case, self._via_coalesce, self._via_head,
                   self._via_index]
        if self.use_comprehensions:
            generic.append(self._via_comprehension)

        if value is None:
            return [lambda v, d: ast.Literal(None), self._via_coalesce]
        if isinstance(value, bool):
            return generic + [self._bool_not_not, self._bool_identity_ops,
                              self._bool_from_comparison]
        if isinstance(value, int):
            return generic + [self._int_sum, self._int_difference,
                              self._int_via_size, self._int_via_tostring]
        if isinstance(value, float):
            return generic + [self._float_sum, self._float_via_tofloat]
        if isinstance(value, str):
            return generic + [self._str_concat_split, self._str_via_left,
                              self._str_via_substring, self._str_via_replace]
        if isinstance(value, list):
            return [self._list_itemwise, self._list_via_concat, self._via_case,
                    self._via_head]
        return []

    # -- generic wrappers ------------------------------------------------

    def _via_case(self, value: Any, depth: int) -> ast.Expression:
        # CASE WHEN <true-expr> THEN <value> ELSE <decoy> END
        condition = self.constant_expression(True, depth - 1)
        then = self.constant_expression(value, depth - 1)
        decoy = _lit(self._random_literal())
        return ast.CaseExpression(
            None, (ast.CaseAlternative(condition, then),), decoy
        )

    def _via_coalesce(self, value: Any, depth: int) -> ast.Expression:
        inner = self.constant_expression(value, depth - 1)
        return ast.FunctionCall("coalesce", (ast.Literal(None), inner))

    def _via_head(self, value: Any, depth: int) -> ast.Expression:
        inner = self.constant_expression(value, depth - 1)
        decoy = _lit(self._random_literal())
        return ast.FunctionCall("head", (ast.ListLiteral((inner, decoy)),))

    def _via_index(self, value: Any, depth: int) -> ast.Expression:
        # ([v, decoy])[0] — exercises list indexing in the engine.
        inner = self.constant_expression(value, depth - 1)
        decoy = _lit(self._random_literal())
        return ast.ListIndex(ast.ListLiteral((inner, decoy)), _lit(0))

    def _via_comprehension(self, value: Any, depth: int) -> ast.Expression:
        # head([x IN [v, decoy] | x]) — exercises list comprehensions.
        inner = self.constant_expression(value, depth - 1)
        decoy = _lit(self._random_literal())
        variable = f"lc{self.rng.randint(0, 9)}"
        comprehension = ast.ListComprehension(
            variable,
            ast.ListLiteral((inner, decoy)),
            None,
            ast.Variable(variable),
        )
        return ast.FunctionCall("head", (comprehension,))

    # -- booleans ----------------------------------------------------------

    def _bool_not_not(self, value: bool, depth: int) -> ast.Expression:
        inner = self.constant_expression(value, depth - 1)
        return ast.Unary("NOT", ast.Unary("NOT", inner))

    def _bool_identity_ops(self, value: bool, depth: int) -> ast.Expression:
        inner = self.constant_expression(value, depth - 1)
        if self.rng.random() < 0.5:
            return ast.Binary("AND", inner, self.constant_expression(True, depth - 1))
        return ast.Binary("OR", inner, self.constant_expression(False, depth - 1))

    def _bool_from_comparison(self, value: bool, depth: int) -> ast.Expression:
        a = self.rng.randint(-50, 50)
        b = self.rng.randint(-50, 50)
        op = self.rng.choice(["<", "<=", ">", ">=", "=", "<>"])
        verdict = {
            "<": a < b, "<=": a <= b, ">": a > b,
            ">=": a >= b, "=": a == b, "<>": a != b,
        }[op]
        comparison = ast.Binary(
            op,
            self.constant_expression(a, depth - 1),
            self.constant_expression(b, depth - 1),
        )
        if verdict == value:
            return comparison
        return ast.Unary("NOT", comparison)

    # -- integers ----------------------------------------------------------

    def _int_sum(self, value: int, depth: int) -> ast.Expression:
        part = self.rng.randint(-100, 100)
        return ast.Binary(
            "+",
            self.constant_expression(part, depth - 1),
            self.constant_expression(value - part, depth - 1),
        )

    def _int_difference(self, value: int, depth: int) -> ast.Expression:
        part = self.rng.randint(-100, 100)
        return ast.Binary(
            "-",
            self.constant_expression(value + part, depth - 1),
            self.constant_expression(part, depth - 1),
        )

    def _int_via_size(self, value: int, depth: int) -> ast.Expression:
        if not 0 <= value <= 5:
            return self._int_sum(value, depth)
        items = tuple(_lit(self._random_literal()) for _ in range(value))
        return ast.FunctionCall("size", (ast.ListLiteral(items),))

    def _int_via_tostring(self, value: int, depth: int) -> ast.Expression:
        inner = self.constant_expression(str(value), depth - 1)
        return ast.FunctionCall("toInteger", (inner,))

    # -- floats ------------------------------------------------------------

    def _float_sum(self, value: float, depth: int) -> ast.Expression:
        # Floating-point addition is not exactly invertible; only use the
        # decomposition when `part + (value - part)` reconstructs the value
        # bit-for-bit, otherwise fall back to a repr round trip.
        part = float(self.rng.randint(-50, 50))
        remainder = value - part
        if part + remainder != value:
            return self._float_via_tofloat(value, depth)
        return ast.Binary(
            "+",
            self.constant_expression(part, depth - 1),
            self.constant_expression(remainder, depth - 1),
        )

    def _float_via_tofloat(self, value: float, depth: int) -> ast.Expression:
        return ast.FunctionCall(
            "toFloat", (self.constant_expression(repr(value), depth - 1),)
        )

    # -- strings -------------------------------------------------------------

    def _str_concat_split(self, value: str, depth: int) -> ast.Expression:
        if len(value) < 2:
            return self._str_via_left(value, depth)
        cut = self.rng.randint(1, len(value) - 1)
        return ast.Binary(
            "+",
            self.constant_expression(value[:cut], depth - 1),
            self.constant_expression(value[cut:], depth - 1),
        )

    def _str_via_left(self, value: str, depth: int) -> ast.Expression:
        suffix = self._random_word()
        padded = self.constant_expression(value + suffix, depth - 1)
        return ast.FunctionCall("left", (padded, _lit(len(value))))

    def _str_via_substring(self, value: str, depth: int) -> ast.Expression:
        prefix = self._random_word()
        padded = self.constant_expression(prefix + value, depth - 1)
        return ast.FunctionCall(
            "substring", (padded, _lit(len(prefix)))
        )

    def _str_via_replace(self, value: str, depth: int) -> ast.Expression:
        # Occasionally emit replace(v, '', w): our reference treats an empty
        # search string as identity (§4 / Figure 9 — the construct that hangs
        # the real Memgraph).
        if self.rng.random() < 0.2:
            return ast.FunctionCall(
                "replace",
                (
                    self.constant_expression(value, depth - 1),
                    _lit(""),
                    _lit(self._random_word()),
                ),
            )
        # replace(marker-injected form, marker, '') == value.
        marker = "#"
        while marker in value:
            marker += "#"
        position = self.rng.randint(0, len(value))
        injected = value[:position] + marker + value[position:]
        return ast.FunctionCall(
            "replace",
            (self.constant_expression(injected, depth - 1), _lit(marker), _lit("")),
        )

    # -- lists ----------------------------------------------------------------

    def _list_itemwise(self, value: list, depth: int) -> ast.Expression:
        return ast.ListLiteral(
            tuple(self.constant_expression(item, depth - 1) for item in value)
        )

    def _list_via_concat(self, value: list, depth: int) -> ast.Expression:
        if not value:
            return ast.FunctionCall("tail", (ast.ListLiteral((_lit(0),)),))
        cut = self.rng.randint(0, len(value))
        return ast.Binary(
            "+",
            self._list_itemwise(value[:cut], depth),
            self._list_itemwise(value[cut:], depth),
        )

    # ------------------------------------------------------------------
    # Algorithm 2: distinguishing replacement of property accesses
    # ------------------------------------------------------------------

    def obfuscate_property_access(
        self,
        access: ast.Expression,
        target_value: Any,
        competitor_values: Sequence[Any],
        depth: int,
        attempts_per_level: int = 8,
    ) -> Tuple[ast.Expression, Any]:
        """Wrap *access* in up to *depth* nested templates (Algorithm 2).

        ``target_value`` is the value of the property on the intended
        element (the set ``S1``); ``competitor_values`` are the values on
        the elements the predicate must rule out (``S2``).  Each accepted
        nesting level must keep the evaluation results of the two sets
        disjoint (line 8 of Algorithm 2).  Returns the final expression and
        the value it takes on the intended element.
        """
        expr = access
        value = target_value
        others = list(competitor_values)

        for _level in range(depth):
            accepted = False
            for _attempt in range(attempts_per_level):
                template = self._pick_template(type_of_value(value))
                if template is None:
                    break
                try:
                    new_value = self._eval_template(template, value)
                except CypherError:
                    continue
                # The wrapped access ends up in an equality predicate, so
                # its value on the intended element must be reflexively
                # equal to itself: `[1, null] = [1, null]` is null in
                # Cypher, which would silently drop the intended match.
                if V.ternary_equals(new_value, new_value) is not True:
                    continue
                # Reject at the first competitor that errors or collides
                # (the template cannot differentiate S1 from S2).
                # Evaluation draws no randomness, so stopping early keeps
                # the decision and the RNG stream unchanged.
                new_others = self._separate(
                    template, V.equivalence_key(new_value), others
                )
                if new_others is None:
                    continue
                expr = template(expr)
                value = new_value
                others = new_others
                accepted = True
                break
            if not accepted:
                # Line 14: depth decreases regardless; with no usable
                # template at this type we simply stop early.
                continue
        return expr, value

    def _eval_template(self, template: _Template, value: Any) -> Any:
        """Evaluate a template instantiated with a concrete value."""
        return self._evaluator.evaluate(template(_lit(value)), {})

    def _separate(
        self, template: _Template, target_key: Any, others: Sequence[Any]
    ) -> Optional[List[Any]]:
        """*template* applied to *others*, or None if one errors or collides."""
        new_others = []
        for other in others:
            try:
                new_other = self._eval_template(template, other)
            except CypherError:
                return None
            if V.equivalence_key(new_other) == target_key:
                return None
            new_others.append(new_other)
        return new_others

    def _pick_template(self, value_type: str) -> Optional[_Template]:
        """Draw a wrapping template accepting a parameter of *value_type*."""
        rng = self.rng
        templates: List[_Template] = []

        # NOTE: every random operand is drawn *now* and bound via default
        # arguments.  A template is applied twice — once on a literal to
        # compute the expected value, once on the real property access — and
        # both applications must produce the same constants.
        if value_type in ("INTEGER", "FLOAT"):
            constant = rng.randint(1, 9)
            divisor = rng.choice([2, 3, 4])
            modulus = rng.randint(5, 50)
            templates.extend(
                [
                    lambda e, c=constant: ast.Binary("+", e, _lit(c)),
                    lambda e, c=constant: ast.Binary("-", e, _lit(c)),
                    lambda e, c=constant: ast.Binary("*", e, _lit(c)),
                    lambda e: ast.Unary("-", e),
                    lambda e: ast.FunctionCall("abs", (e,)),
                    lambda e: ast.FunctionCall("sign", (e,)),
                    lambda e: ast.FunctionCall("exp", (e,)),
                    lambda e: ast.FunctionCall("toString", (e,)),
                    lambda e: ast.FunctionCall("toFloat", (e,)),
                    lambda e, d=divisor: ast.Binary("/", e, _lit(d)),
                ]
            )
            if value_type == "FLOAT":
                templates.extend(
                    [
                        lambda e: ast.FunctionCall("round", (e,)),
                        lambda e: ast.FunctionCall("floor", (e,)),
                        lambda e: ast.FunctionCall("ceil", (e,)),
                    ]
                )
            else:
                templates.append(
                    lambda e, m=modulus: ast.Binary("%", e, _lit(m))
                )
        elif value_type == "STRING":
            word = self._random_word()
            needle = self._random_word()
            replacement = self._random_word()
            separator = self._random_word()
            templates.extend(
                [
                    lambda e, w=word: ast.Binary("+", e, _lit(w)),
                    lambda e, w=word: ast.Binary("+", _lit(w), e),
                    lambda e: ast.FunctionCall("reverse", (e,)),
                    lambda e: ast.FunctionCall("toUpper", (e,)),
                    lambda e: ast.FunctionCall("toLower", (e,)),
                    lambda e: ast.FunctionCall("trim", (e,)),
                    lambda e, w=word: ast.FunctionCall(
                        "ltrim", (ast.Binary("+", _lit(" "), e),)
                    ),
                    lambda e: ast.FunctionCall("rtrim", (e,)),
                    lambda e: ast.FunctionCall("char_length", (e,)),
                    lambda e: ast.FunctionCall("size", (e,)),
                    lambda e, n=needle, r=replacement: ast.FunctionCall(
                        "replace", (e, _lit(n), _lit(r))
                    ),
                    lambda e, s=separator: ast.FunctionCall("split", (e, _lit(s))),
                    lambda e, w=word: ast.Binary(
                        "STARTS WITH", ast.Binary("+", e, _lit(w)), e
                    ),
                ]
            )
        elif value_type == "BOOLEAN":
            flip = rng.random() < 0.5
            then_value = rng.randint(0, 9)
            else_value = rng.randint(10, 19)
            templates.extend(
                [
                    lambda e: ast.Unary("NOT", e),
                    lambda e: ast.FunctionCall("toString", (e,)),
                    lambda e, f=flip: ast.Binary("XOR", e, _lit(f)),
                    lambda e, t=then_value, z=else_value: ast.CaseExpression(
                        None,
                        (ast.CaseAlternative(e, _lit(t)),),
                        _lit(z),
                    ),
                ]
            )
        elif value_type == "LIST":
            extra = self._random_literal()
            templates.extend(
                [
                    lambda e: ast.FunctionCall("size", (e,)),
                    lambda e: ast.FunctionCall("head", (e,)),
                    lambda e: ast.FunctionCall("last", (e,)),
                    lambda e: ast.FunctionCall("reverse", (e,)),
                    lambda e: ast.FunctionCall("tail", (e,)),
                    lambda e: ast.FunctionCall("isEmpty", (e,)),
                    lambda e, x=extra: ast.Binary(
                        "+", e, ast.ListLiteral((_lit(x),))
                    ),
                ]
            )
        if not templates:
            return None
        return rng.choice(templates)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _random_word(self, max_len: int = 8) -> str:
        alphabet = string.ascii_letters + string.digits
        return "".join(
            self.rng.choice(alphabet) for _ in range(self.rng.randint(1, max_len))
        )

    def _random_literal(self) -> Any:
        roll = self.rng.random()
        if roll < 0.4:
            return self.rng.randint(-(2**31), 2**31 - 1)
        if roll < 0.6:
            return self._random_word()
        if roll < 0.75:
            return self.rng.random() < 0.5
        if roll < 0.9:
            return round(self.rng.uniform(-1e3, 1e3), 3)
        return None
