import random

import pytest

from anonatom import (
    AndNode,
    Atom,
    AtomNode,
    DependenceAtom,
    ExistsNode,
    ImplNode,
    InclusionAtom,
    IndependenceAtom,
    LiteralNode,
    ParseError,
    format_atom,
    format_formula,
    format_sigma,
    parse_atom,
    parse_formula,
    parse_sigma,
)
from conftest import random_formula


class TestParseAtom:
    def test_plain(self):
        atom = parse_atom("hometown salary Y surname")
        assert atom == Atom(("hometown", "salary"), ("surname",), 2)

    def test_multiplicity(self):
        assert parse_atom("x Y3 y").k == 3
        assert parse_atom("x Y1 y").k == 1
        assert parse_atom("x Y03 y").k == 3

    def test_empty_protected_side(self):
        atom = parse_atom("x y Y")
        assert atom.published == ("x", "y")
        assert atom.protected == ()

    def test_zero_multiplicity(self):
        with pytest.raises(ParseError, match="at least 1"):
            parse_atom("x Y0 y")

    def test_missing_separator(self):
        with pytest.raises(ParseError, match="separator"):
            parse_atom("x y z")

    def test_double_separator(self):
        with pytest.raises(ParseError, match="more than one"):
            parse_atom("x Y y Y2 z")

    def test_published_side_required(self):
        with pytest.raises(ParseError):
            parse_atom("Y y")

    def test_bad_name(self):
        with pytest.raises(ParseError, match="invalid attribute name"):
            parse_atom('x Y va"lue')


class TestFormatAtom:
    def test_round_trips(self):
        for text in ("x Y y", "a b Y3 c d", "x Y", "hometown salary Y surname"):
            atom = parse_atom(text)
            assert parse_atom(format_atom(atom)) == atom

    def test_plain_multiplicity_prints_bare_separator(self):
        assert format_atom(Atom(("x",), ("y",), 2)) == "x Y y"
        assert format_atom(Atom(("x",), ("y",), 7)) == "x Y7 y"

    def test_empty_published_not_expressible(self):
        with pytest.raises(ValueError):
            format_atom(Atom((), ("y",), 2))

    def test_random_round_trips(self):
        rng = random.Random(60)
        names = ("alpha", "b2", "под", "x-y", "Z9")
        for _ in range(300):
            atom = Atom(
                tuple(rng.choice(names) for _ in range(rng.randint(1, 3))),
                tuple(rng.choice(names) for _ in range(rng.randint(0, 3))),
                rng.randint(1, 9),
            )
            assert parse_atom(format_atom(atom)) == atom


class TestSigmaFiles:
    TEXT = """
    # hypotheses for the chaining question
    x Y y
    y Y z   # inline comment

    x Y y   # duplicate collapses
    """

    def test_parse(self):
        sigma = parse_sigma(self.TEXT)
        assert sigma.atoms == (Atom(("x",), ("y",)), Atom(("y",), ("z",)))

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_sigma("x Y y\n\nx Y0 y\n")

    def test_round_trip(self):
        sigma = parse_sigma(self.TEXT)
        assert parse_sigma(format_sigma(sigma)) == sigma


class TestParseFormula:
    def test_literal_with_value(self):
        assert parse_formula('pub = "private"') == LiteralNode("pub", "private")

    def test_literal_with_attribute(self):
        assert parse_formula("x != y") == LiteralNode("x", "y", negated=True, target_is_attribute=True)

    def test_atom_calls(self):
        assert parse_formula("dep(a b ; c)") == AtomNode(DependenceAtom(("a", "b"), ("c",)))
        assert parse_formula("inc(a ; b)") == AtomNode(InclusionAtom(("a",), ("b",)))
        assert parse_formula("ind(a ; b c)") == AtomNode(IndependenceAtom(("a",), ("b", "c")))
        assert parse_formula("anon(3 ; a b ; c)") == AtomNode(Atom(("a", "b"), ("c",), 3))

    def test_guarded_implication(self):
        formula = parse_formula('pub = "private" & flag != "0" -> anon(2 ; d ; a)')
        assert isinstance(formula, ImplNode)
        assert len(formula.guard) == 2
        assert formula.body == AtomNode(Atom(("d",), ("a",), 2))

    def test_implication_binds_loosest_and_right_associates(self):
        formula = parse_formula('a = "1" -> b = "2" -> dep(x ; y)')
        assert isinstance(formula, ImplNode)
        assert isinstance(formula.body, ImplNode)

    def test_conjunction_associates_left_and_flattens(self):
        formula = parse_formula('(a = "1" & b = "2") & c = "3"')
        assert isinstance(formula, AndNode)
        assert len(formula.parts) == 3

    def test_exists(self):
        formula = parse_formula('exists v (v = "0" & anon(2 ; d v ; a))')
        assert isinstance(formula, ExistsNode)
        assert formula.attribute == "v"
        assert isinstance(formula.body, AndNode)

    def test_guard_must_be_literals(self):
        with pytest.raises(ParseError, match="literals"):
            parse_formula("dep(x ; y) -> dep(x ; z)")

    def test_anon_multiplicity_guard(self):
        with pytest.raises(ParseError, match="at least 1"):
            parse_formula("anon(0 ; a ; b)")

    def test_trailing_junk(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_formula("dep(a ; b) )")

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_formula('a = "oops')

    def test_error_columns(self):
        with pytest.raises(ParseError, match="column"):
            parse_formula("a = ")

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ('a ! "x"', "expected '!='", 3),
            ('a = "x\\q"', "bad escape sequence in string", 7),
            ('a = "x\\', "bad escape sequence in string", 7),
            ('a = "x\\"', "unterminated string", 5),
            ('a = "1" # c', "unexpected character '#'", 9),
        ],
    )
    def test_scan_errors(self, text, message, column):
        with pytest.raises(ParseError) as caught:
            parse_formula(text)
        assert str(caught.value) == f"{message} (column {column})"
        assert caught.value.column == column

    @pytest.mark.parametrize(
        "text",
        [
            'dep(a ; b ")"',
            'a = "x" "&" b = "y"',
            '"(" a = "1" )',
            'a = "x" "->" dep(a ; b)',
            'anon(2 ; a ";" b )',
        ],
    )
    def test_quoted_punctuation_is_a_value(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    @pytest.mark.parametrize("digits", ["\u00b2", "\u0663", "3\u0663"])
    def test_multiplicity_is_ascii_digits(self, digits):
        with pytest.raises(ParseError, match="expected a multiplicity") as caught:
            parse_formula(f"anon({digits} ; a ; b)")
        assert caught.value.column == 6


class TestFormulaRoundTrip:
    def test_fixed_cases(self):
        cases = [
            'pub = "private" -> anon(2 ; d ; a)',
            'exists v (v = "0" & anon(2 ; d v ; a))',
            'a != "x\\"y" & dep(a ; b)',
            "inc(a b ; b a) & ind(a ; b)",
        ]
        for text in cases:
            formula = parse_formula(text)
            assert parse_formula(format_formula(formula)) == formula

    def test_random_round_trips(self):
        rng = random.Random(61)
        names = ("a", "b", "c", "data")
        values = ("0", "1", "red", "70,000", 'qu"ote', "back\\slash", "tab\there")
        for _ in range(300):
            formula = random_formula(rng, names, values)
            text = format_formula(formula)
            assert parse_formula(text) == formula, text
