"""Textual grammars with round-tripping printers.

Atoms::

    atom  ::= attrs SEP attrs?          # published SEP protected
    SEP   ::= "Y" | "Y" INT             # INT >= 1 is the multiplicity; bare Y means 2
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

Strings are double-quoted with backslash escapes for ``\\ " n t r``.
"""

from __future__ import annotations

import re

from .atoms import Atom, DependenceAtom, InclusionAtom, IndependenceAtom
from .errors import ParseError
from .inference import AtomSet
from .teamlogic import AndNode, AtomNode, ExistsNode, Formula, ImplNode, LiteralNode
from .team import is_valid_attribute_name

_SEPARATOR = re.compile(r"Y([0-9]*)\Z")


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
    k = 2 if digits == "" else int(digits)
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
_WORD_BREAK = frozenset('()&;="!# \t\n\r\x0b\x0c')


def _quote(value: str) -> str:
    return '"' + "".join(_ESCAPES.get(c, c) for c in value) + '"'


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()

    def _error(self, message: str, column: int) -> ParseError:
        return ParseError(message, column=column + 1)

    def _scan(self) -> None:
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c.isspace():
                self.pos += 1
                continue
            start = self.pos
            if c in "();&":
                self.tokens.append(("punct", c, start))
                self.pos += 1
            elif c == "-":
                if text.startswith("->", self.pos):
                    self.tokens.append(("punct", "->", start))
                    self.pos += 2
                else:
                    self._word()
            elif c == "!":
                if text.startswith("!=", self.pos):
                    self.tokens.append(("punct", "!=", start))
                    self.pos += 2
                else:
                    raise self._error("expected '!='", start)
            elif c == "=":
                self.tokens.append(("punct", "=", start))
                self.pos += 1
            elif c == '"':
                self._string(start)
            else:
                self._word()
        self.tokens.append(("end", "", len(text)))

    def _string(self, start: int) -> None:
        out = []
        i = start + 1
        text = self.text
        while i < len(text):
            c = text[i]
            if c == '"':
                self.tokens.append(("string", "".join(out), start))
                self.pos = i + 1
                return
            if c == "\\":
                if i + 1 >= len(text) or text[i + 1] not in _UNESCAPES:
                    raise self._error("bad escape sequence in string", i)
                out.append(_UNESCAPES[text[i + 1]])
                i += 2
            else:
                out.append(c)
                i += 1
        raise self._error("unterminated string", start)

    def _word(self) -> None:
        start = self.pos
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c in _WORD_BREAK or c.isspace():
                break
            if c == "-" and text.startswith("->", self.pos):
                break
            self.pos += 1
        if self.pos == start:
            raise self._error(f"unexpected character {text[start]!r}", start)
        self.tokens.append(("word", text[start : self.pos], start))


_ATOM_KEYWORDS = ("dep", "inc", "ind", "anon")

# Parentheses, ``exists`` and ``->`` recurse here and in the evaluator;
# the cap keeps both far below Python's recursion limit.
_MAX_NESTING = 100


class _FormulaParser:
    def __init__(self, text: str):
        self.tokens = _Lexer(text).tokens
        self.pos = 0
        self.depth = 0

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _take(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _error(self, message: str, token: tuple[str, str, int]) -> ParseError:
        return ParseError(message, column=token[2] + 1)

    def _expect(self, value: str) -> None:
        kind, got, col = self._take()
        if kind == "end":
            raise ParseError(f"expected {value!r} but input ended", column=col + 1)
        if got != value:
            raise ParseError(f"expected {value!r}, got {got!r}", column=col + 1)

    def parse(self) -> Formula:
        formula = self._formula()
        kind, got, col = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {got!r}", column=col + 1)
        return formula

    def _formula(self) -> Formula:
        if self.depth == _MAX_NESTING:
            raise self._error(f"formula nested deeper than {_MAX_NESTING} levels", self._peek())
        self.depth += 1
        formula = self._conjunction()
        if self._peek()[1] == "->":
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
        while self._peek()[1] == "&":
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
        kind, value, col = self._peek()
        if value == "(":
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
        raise self._error(f"expected a formula, got {value!r}", self._peek())

    def _name(self) -> str:
        kind, value, col = self._take()
        if kind != "word" or not is_valid_attribute_name(value):
            raise ParseError(f"expected an attribute name, got {value!r}", column=col + 1)
        return value

    def _attrs(self) -> tuple[str, ...]:
        names = [self._name()]
        while self._peek()[0] == "word":
            names.append(self._name())
        return tuple(names)

    def _atom_call(self) -> AtomNode:
        _, keyword, col = self._take()
        self._expect("(")
        if keyword == "anon":
            kind, digits, kcol = self._take()
            if kind != "word" or not digits.isdigit():
                raise ParseError(f"expected a multiplicity, got {digits!r}", column=kcol + 1)
            k = int(digits)
            if k < 1:
                raise ParseError("multiplicity must be at least 1", column=kcol + 1)
            self._expect(";")
            left = self._attrs()
            self._expect(";")
            right = self._attrs()
            self._expect(")")
            return AtomNode(Atom(left, right, k))
        left = self._attrs()
        self._expect(";")
        right = self._attrs()
        self._expect(")")
        if keyword == "dep":
            return AtomNode(DependenceAtom(left, right))
        if keyword == "inc":
            return AtomNode(InclusionAtom(left, right))
        return AtomNode(IndependenceAtom(left, right))

    def _literal(self) -> LiteralNode:
        attribute = self._name()
        kind, op, col = self._take()
        if op not in ("=", "!="):
            raise ParseError(f"expected '=' or '!=', got {op!r}", column=col + 1)
        kind, value, vcol = self._take()
        if kind == "string":
            return LiteralNode(attribute, value, negated=(op == "!="))
        if kind == "word" and is_valid_attribute_name(value):
            return LiteralNode(attribute, value, negated=(op == "!="), target_is_attribute=True)
        raise ParseError(
            f"expected a quoted value or attribute name, got {value!r}", column=vcol + 1
        )


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
