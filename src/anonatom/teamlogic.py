"""Evaluator for the guarded formula fragment over teams.

Supported connectives: atoms, equality/inequality literals, conjunction,
implication whose guard is a conjunction of literals (the body is then
evaluated on the subteam of rows satisfying the guard), and lax
existential quantification (each row may take *several* values of the
fresh attribute; the team is fanned out accordingly and the body must
hold on some such expansion).

The existential search is exhaustive over per-row non-empty value
subsets with first-success cutoff; it is meant for desk-scale inputs and
guards itself with an expansion budget, ``MAX_EXPANSIONS``.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence, Union

from ._value import Value, _set
from .atoms import AnyAtom, satisfies
from .errors import DomainError, ResourceError, SchemaError
from .team import Row, Schema, Team

# The existential search's budget: a quantifier whose expansions outnumber
# it raises ResourceError before any is built.
MAX_EXPANSIONS = 1_000_000


class AtomNode(Value):
    _fields = ("atom",)
    atom: AnyAtom

    def __init__(self, atom: AnyAtom) -> None:
        _set(self, "atom", atom)


class LiteralNode(Value):
    """``attribute = target`` or ``attribute != target``; the target is a
    constant value or another attribute."""

    _fields = ("attribute", "target", "negated", "target_is_attribute")
    attribute: str
    target: str
    negated: bool
    target_is_attribute: bool

    def __init__(
        self, attribute: str, target: str, negated: bool = False, target_is_attribute: bool = False
    ) -> None:
        _set(self, "attribute", attribute)
        _set(self, "target", target)
        _set(self, "negated", negated)
        _set(self, "target_is_attribute", target_is_attribute)


class AndNode(Value):
    _fields = ("parts",)
    parts: tuple[Formula, ...]

    def __init__(self, parts: Sequence[Formula]) -> None:
        _set(self, "parts", tuple(parts))


class ImplNode(Value):
    """Guarded implication: the body must hold on the rows satisfying
    every guard literal."""

    _fields = ("guard", "body")
    guard: tuple[LiteralNode, ...]
    body: Formula

    def __init__(self, guard: Sequence[LiteralNode], body: Formula) -> None:
        _set(self, "guard", tuple(guard))
        _set(self, "body", body)
        for lit in self.guard:
            if not isinstance(lit, LiteralNode):
                raise TypeError("implication guards are conjunctions of literals only")


class ExistsNode(Value):
    """Lax existential: some assignment of non-empty value sets to rows
    makes the body hold on the fanned-out team."""

    _fields = ("attribute", "body")
    attribute: str
    body: Formula

    def __init__(self, attribute: str, body: Formula) -> None:
        _set(self, "attribute", attribute)
        _set(self, "body", body)


Formula = Union[AtomNode, LiteralNode, AndNode, ImplNode, ExistsNode]


def subteam(team: Team, guard: Sequence[LiteralNode]) -> Team:
    """Rows satisfying every guard literal; the schema is unchanged.

    Each literal resolves its columns once, so an unknown attribute is a
    SchemaError on every team, empty or not, and then filters the rows
    left by the literals before it in one pass."""
    rows = team.rows
    for literal in guard:
        left = team.schema.index(literal.attribute)
        negated = literal.negated
        if literal.target_is_attribute:
            right = team.schema.index(literal.target)
            rows = [row for row in rows if (row[left] == row[right]) != negated]
        else:
            value = literal.target
            rows = [row for row in rows if (row[left] == value) != negated]
    return Team._trusted(team.schema, frozenset(rows))


def extend(team: Team, fresh: str, choice: Mapping[Row, frozenset[str] | set[str]]) -> Team:
    """Fan out each row over its chosen value set for the new attribute
    ``fresh``; every row needs a non-empty choice."""
    if fresh in team.schema:
        raise SchemaError(f"attribute {fresh!r} already exists in the schema")
    schema = Schema(team.schema.attributes + (fresh,))
    rows = set()
    for row in team.rows:
        try:
            values = choice[row]
        except KeyError:
            raise ValueError(f"choice does not cover row {row!r}") from None
        if not values:
            raise ValueError(f"choice for row {row!r} is empty")
        for value in values:
            rows.add(row + (value,))
    return Team(schema, frozenset(rows))


def _nonempty_subsets(domain: tuple[str, ...]) -> list[frozenset[str]]:
    subsets = []
    for size in range(1, len(domain) + 1):
        for combo in itertools.combinations(domain, size):
            subsets.append(frozenset(combo))
    return subsets


def evaluate(team: Team, domain: Sequence[str], formula: Formula) -> bool:
    """Evaluate ``formula`` on ``team``; ``domain`` supplies the candidate
    values for existential quantifiers."""
    if isinstance(formula, AtomNode):
        return satisfies(team, formula.atom)
    if isinstance(formula, LiteralNode):
        return len(subteam(team, (formula,))) == len(team)
    if isinstance(formula, AndNode):
        return all(evaluate(team, domain, part) for part in formula.parts)
    if isinstance(formula, ImplNode):
        return evaluate(subteam(team, formula.guard), domain, formula.body)
    if isinstance(formula, ExistsNode):
        if formula.attribute in team.schema:
            raise SchemaError(
                f"quantified attribute {formula.attribute!r} already exists in the schema"
            )
        values = tuple(dict.fromkeys(domain))
        if not values:
            raise DomainError("existential quantification over an empty domain")
        rows = team.sorted_rows()
        if not rows:
            return evaluate(extend(team, formula.attribute, {}), values, formula.body)
        # (2^|values| - 1)^|rows| expansions, compared with the budget before
        # any subset is built; past the budget's bit length in values, or in
        # rows with two or more values, the count exceeds it unevaluated
        bits = MAX_EXPANSIONS.bit_length()
        if (
            len(values) > bits
            or (len(values) > 1 and len(rows) > bits)
            or ((1 << len(values)) - 1) ** len(rows) > MAX_EXPANSIONS
        ):
            raise ResourceError(
                f"existential search needs (2^{len(values)} - 1)^{len(rows)} expansions "
                f"({len(rows)} rows x {len(values)} values); budget is {MAX_EXPANSIONS}"
            )
        subsets = _nonempty_subsets(values)
        for combo in itertools.product(subsets, repeat=len(rows)):
            extended = extend(team, formula.attribute, dict(zip(rows, combo)))
            if evaluate(extended, values, formula.body):
                return True
        return False
    raise TypeError(f"not a formula node: {formula!r}")
