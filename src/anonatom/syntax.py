"""Textual grammars with round-tripping printers.

Atoms::

    atom  ::= attrs SEP attrs?          # published SEP protected
    SEP   ::= "Y" | "Y" INT             # INT >= 1 is the multiplicity; bare Y means 2
    INT   ::= [0-9]+                    # ASCII digits, here and in anon(...)
    attrs ::= name+                     # whitespace separated

Hypothesis files hold one atom per line; ``#`` starts a comment.

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

Strings are double-quoted with backslash escapes for ``\\ " n t r``; a
string is always a value, never punctuation.
"""

from __future__ import annotations

import re

from .atoms import Atom, DependenceAtom, InclusionAtom, IndependenceAtom
from .errors import ParseError
from .inference import AtomSet
from .teamlogic import AndNode, AtomNode, ExistsNode, Formula, ImplNode, LiteralNode
from .team import is_valid_attribute_name

_INT = "[0-9]+"  # multiplicities in both grammars: ASCII digits only
_SEPARATOR = re.compile(rf"Y({_INT})?\Z")


def parse_atom(text: str, *, line: int | None = None) -> Atom:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty atom", line=line)
    positions = [i for i, tok in enumerate(tokens) if _SEPARATOR.match(tok)]
    if not positions:
        raise ParseError(f"missing 'Y' separator in {text.strip()!r}", line=line)
    if len(positions) > 1:
        raise ParseError(f"more than one 'Y' separator in {text.strip()!r}", line=line)
    at = positions[0]
    digits = _SEPARATOR.match(tokens[at]).group(1)  # type: ignore[union-attr]
    try:
        k = 2 if digits is None else int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"multiplicity has too many digits ({len(digits)})", line=line) from None
    if k < 1:
        raise ParseError("multiplicity must be at least 1", line=line)
    published = tokens[:at]
    protected = tokens[at + 1 :]
    if not published:
        raise ParseError("an atom needs at least one published attribute", line=line)
    for name in (*published, *protected):
        if not is_valid_attribute_name(name):
            raise ParseError(f"invalid attribute name {name!r}", line=line)
    return Atom(tuple(published), tuple(protected), k)


def format_atom(atom: Atom) -> str:
    if not atom.published:
        raise ValueError("the atom grammar requires at least one published attribute")
    for name in (*atom.published, *atom.protected):
        if not is_valid_attribute_name(name):
            raise ValueError(f"attribute name {name!r} is not expressible in the grammar")
    separator = "Y" if atom.k == 2 else f"Y{atom.k}"
    return " ".join((*atom.published, separator, *atom.protected))


def parse_sigma(text: str) -> AtomSet:
    """Parse a hypothesis file: one atom per line, ``#`` comments allowed."""
    atoms = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        atoms.append(parse_atom(line, line=number))
    return AtomSet.of(*atoms)


def format_sigma(sigma: AtomSet) -> str:
    return "".join(format_atom(atom) + "\n" for atom in sigma.atoms)


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
            if token[0] != "word" or not re.fullmatch(_INT, token[1]):
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
            return LiteralNode(attribute, value, negated=negated, target_is_attribute=True)
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
