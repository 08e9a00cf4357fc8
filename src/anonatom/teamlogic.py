"""The guarded formula fragment over teams: its nodes, its grammar with a
round-tripping printer, and its evaluator.

Supported connectives: atoms, equality/inequality literals, conjunction,
implication whose guard is a conjunction of literals (the body is then
evaluated on the subteam of rows satisfying the guard), and lax
existential quantification (each row may take *several* values of the
fresh attribute; the team is fanned out accordingly and the body must
hold on some such expansion).

The existential search is exhaustive over per-row non-empty value
subsets with first-success cutoff; it is meant for desk-scale inputs and
guards itself with an expansion budget, ``MAX_EXPANSIONS``.

Formulas::

    formula ::= conj ( "->" formula )?  # the left side must be all literals
    conj    ::= unit ( "&" unit )*
    unit    ::= "(" formula ")"
              | "exists" name "(" formula ")"
              | "dep" "(" attrs ";" attrs ")"
              | "inc" "(" attrs ";" attrs ")"
              | "ind" "(" attrs ";" attrs ")"
              | "anon" "(" INT ";" attrs ";" attrs ")"
              | name ("=" | "!=") (STRING | name)
    INT     ::= [0-9]+                  # ASCII digits, as in the atom grammar
    attrs   ::= name+                   # whitespace separated

Strings are double-quoted with backslash escapes for ``\\ " n t r``; a
string is always a value, never punctuation.
"""

from __future__ import annotations

import itertools
import re
from operator import eq, itemgetter, ne
from typing import Mapping, Sequence, Union

from ._value import Value, _set
from .atoms import AnyAtom, Atom, DependenceAtom, InclusionAtom, IndependenceAtom, satisfies
from .errors import DomainError, ParseError, ResourceError, SchemaError
from .team import Row, Schema, Team, is_valid_attribute_name

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
        column = map(itemgetter(team.schema.index(literal.attribute)), rows)
        if literal.target_is_attribute:
            targets = map(itemgetter(team.schema.index(literal.target)), rows)
        else:
            targets = itertools.repeat(literal.target)
        test = ne if literal.negated else eq
        rows = list(itertools.compress(rows, map(test, column, targets)))
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


def _quantifies(formula: Formula) -> bool:
    """True iff ``formula`` has an ``exists``, the only node that reads a domain."""
    if isinstance(formula, AndNode):
        return any(map(_quantifies, formula.parts))
    if isinstance(formula, ImplNode):
        return _quantifies(formula.body)
    return isinstance(formula, ExistsNode)


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


_INT = re.compile("[0-9]+")  # multiplicities: ASCII digits only
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _quote(value: str) -> str:
    return '"' + "".join(_ESCAPES.get(c, c) for c in value) + '"'


# One alternative per token kind, after optional whitespace.  A word runs up
# to whitespace, a punctuation character, '"', '!' or '#'; a '-' belongs to
# it unless '>' follows.  Only '!', '"' and '#' start no token: ``error``.
_OPEN_STRING = re.compile(r'"(?:[^"\\]|\\[' + re.escape("".join(_UNESCAPES)) + "])*")
_TOKEN = re.compile(
    rf'\s*(?:(?P<punct>->|!=|[();&=])|(?P<string>{_OPEN_STRING.pattern}")'
    r'|(?P<word>(?:[^-()&;="!#\s]|-(?!>))+)|(?P<end>\Z)|(?P<error>.))'
)
_UNESCAPE = re.compile(r"\\(.)")

_Token = tuple[str, str, int]


def _shown(token: _Token) -> str:
    """A token as error messages show it: a string with its quotes, so that
    it reads neither as a word nor as punctuation."""
    return _quote(token[1]) if token[0] == "string" else repr(token[1])


def _tokens(text: str) -> list[_Token]:
    """``(kind, value, offset)`` triples ending with an ``end`` token.  The
    kind of a punctuation token is its symbol; the others are ``word`` and
    ``string`` (the value unescaped)."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value, offset = match[kind], match.start(kind)
        if kind == "error":
            raise _lex_error(text, offset)
        if kind == "punct":
            kind = value
        elif kind == "string":
            value = _UNESCAPE.sub(lambda escape: _UNESCAPES[escape[1]], value[1:-1])
        tokens.append((kind, value, offset))
        if kind == "end":  # trailing whitespace ends in a second, empty match
            break
    return tokens


def _lex_error(text: str, at: int) -> ParseError:
    char = text[at]
    if char == "!":
        return ParseError("expected '!='", column=at + 1)
    if char == '"':
        stop = _OPEN_STRING.match(text, at).end()  # type: ignore[union-attr]
        if stop < len(text):  # a backslash starting no valid escape
            return ParseError("bad escape sequence in string", column=stop + 1)
        return ParseError("unterminated string", column=at + 1)
    return ParseError(f"unexpected character {char!r}", column=at + 1)


_AUXILIARY_ATOMS = {"dep": DependenceAtom, "inc": InclusionAtom, "ind": IndependenceAtom}
_ATOM_KEYWORDS = ("anon", *_AUXILIARY_ATOMS)

# Parentheses, ``exists`` and ``->`` recurse here and in the evaluator;
# the cap keeps both far below Python's recursion limit.
_MAX_NESTING = 100


class _FormulaParser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.pos = 0
        self.depth = 0

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _error(self, message: str, token: _Token) -> ParseError:
        return ParseError(message, column=token[2] + 1)

    def _expect(self, kind: str) -> None:
        token = self._take()
        if token[0] == "end":
            raise self._error(f"expected {kind!r} but input ended", token)
        if token[0] != kind:
            raise self._error(f"expected {kind!r}, got {_shown(token)}", token)

    def parse(self) -> Formula:
        formula = self._formula()
        token = self._peek()
        if token[0] != "end":
            raise self._error(f"unexpected trailing input {_shown(token)}", token)
        return formula

    def _formula(self) -> Formula:
        if self.depth == _MAX_NESTING:
            raise self._error(f"formula nested deeper than {_MAX_NESTING} levels", self._peek())
        self.depth += 1
        formula = self._conjunction()
        if self._peek()[0] == "->":
            self._take()
            body = self._formula()
            formula = ImplNode(self._as_guard(formula), body)
        self.depth -= 1
        return formula

    def _as_guard(self, formula: Formula) -> tuple[LiteralNode, ...]:
        if isinstance(formula, LiteralNode):
            return (formula,)
        if isinstance(formula, AndNode) and all(
            isinstance(p, LiteralNode) for p in formula.parts
        ):
            return formula.parts  # type: ignore[return-value]
        raise ParseError("the left side of '->' must be a conjunction of literals")

    def _conjunction(self) -> Formula:
        parts = [self._unit()]
        while self._peek()[0] == "&":
            self._take()
            parts.append(self._unit())
        if len(parts) == 1:
            return parts[0]
        flat: list[Formula] = []
        for part in parts:
            if isinstance(part, AndNode):
                flat.extend(part.parts)
            else:
                flat.append(part)
        return AndNode(tuple(flat))

    def _unit(self) -> Formula:
        kind, value, _ = token = self._peek()
        if kind == "(":
            self._take()
            inner = self._formula()
            self._expect(")")
            return inner
        if kind == "word" and value == "exists":
            self._take()
            name = self._name()
            self._expect("(")
            body = self._formula()
            self._expect(")")
            return ExistsNode(name, body)
        if kind == "word" and value in _ATOM_KEYWORDS:
            return self._atom_call()
        if kind == "word":
            return self._literal()
        raise self._error(f"expected a formula, got {_shown(token)}", token)

    def _name(self) -> str:
        token = self._take()
        if token[0] != "word" or not is_valid_attribute_name(token[1]):
            raise self._error(f"expected an attribute name, got {_shown(token)}", token)
        return token[1]

    def _attrs(self) -> tuple[str, ...]:
        names = [self._name()]
        while self._peek()[0] == "word":
            names.append(self._name())
        return tuple(names)

    def _atom_call(self) -> AtomNode:
        keyword = self._take()[1]
        self._expect("(")
        if keyword == "anon":
            token = self._take()
            if token[0] != "word" or not _INT.fullmatch(token[1]):
                raise self._error(f"expected a multiplicity, got {_shown(token)}", token)
            try:
                k = int(token[1])
            except ValueError:  # more digits than int() converts
                raise self._error(
                    f"multiplicity has too many digits ({len(token[1])})", token
                ) from None
            if k < 1:
                raise self._error("multiplicity must be at least 1", token)
            self._expect(";")
        left = self._attrs()
        self._expect(";")
        right = self._attrs()
        self._expect(")")
        if keyword == "anon":
            return AtomNode(Atom(left, right, k))
        return AtomNode(_AUXILIARY_ATOMS[keyword](left, right))

    def _literal(self) -> LiteralNode:
        attribute = self._name()
        op = self._take()
        if op[0] not in ("=", "!="):
            raise self._error(f"expected '=' or '!=', got {_shown(op)}", op)
        negated = op[0] == "!="
        kind, value, _ = token = self._take()
        if kind == "string":
            return LiteralNode(attribute, value, negated=negated)
        if kind == "word" and is_valid_attribute_name(value):
            return LiteralNode(
                attribute, value, negated=negated, target_is_attribute=True
            )
        raise self._error(f"expected a quoted value or attribute name, got {_shown(token)}", token)


def parse_formula(text: str) -> Formula:
    return _FormulaParser(text).parse()


def format_formula(formula: Formula) -> str:
    if isinstance(formula, LiteralNode):
        op = "!=" if formula.negated else "="
        target = formula.target if formula.target_is_attribute else _quote(formula.target)
        return f"{formula.attribute} {op} {target}"
    if isinstance(formula, AtomNode):
        atom = formula.atom
        if isinstance(atom, Atom):
            left, right = atom.published, atom.protected
            head = f"anon({atom.k} ; "
        elif isinstance(atom, DependenceAtom):
            left, right = atom.determinants, atom.dependents
            head = "dep("
        elif isinstance(atom, InclusionAtom):
            left, right = atom.source, atom.target
            head = "inc("
        elif isinstance(atom, IndependenceAtom):
            left, right = atom.left, atom.right
            head = "ind("
        else:
            raise TypeError(f"not an atom: {atom!r}")
        if not left or not right:
            raise ValueError("the formula grammar cannot express empty attribute lists")
        return f"{head}{' '.join(left)} ; {' '.join(right)})"
    if isinstance(formula, AndNode):
        if len(formula.parts) < 2:
            raise ValueError("a conjunction needs at least two parts")
        rendered = []
        for part in formula.parts:
            text = format_formula(part)
            if isinstance(part, (ImplNode, AndNode)):
                text = f"({text})"
            rendered.append(text)
        return " & ".join(rendered)
    if isinstance(formula, ImplNode):
        if not formula.guard:
            raise ValueError("an implication guard cannot be empty in the grammar")
        guard = " & ".join(format_formula(lit) for lit in formula.guard)
        return f"{guard} -> {format_formula(formula.body)}"
    if isinstance(formula, ExistsNode):
        return f"exists {formula.attribute} ({format_formula(formula.body)})"
    raise TypeError(f"not a formula node: {formula!r}")
