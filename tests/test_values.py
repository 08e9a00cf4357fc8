"""The contract of the package's immutable value classes: construction by
position and by keyword with defaults, equality within one class, hash,
the exact ``repr`` that error messages and ``--pretty`` derivations print,
immutability, and unchanged validation errors."""

import copy
import pickle

import pytest

from anonatom import (
    AndNode,
    ArityError,
    Atom,
    AtomNode,
    AtomSet,
    ConfigError,
    CountermodelReport,
    DependenceAtom,
    Derivation,
    Entailment,
    ExistsNode,
    ImplNode,
    InclusionAtom,
    IndependenceAtom,
    LiteralNode,
    NormalAtom,
    OracleConfig,
    OracleResult,
    OracleStatus,
    Rule,
    Schema,
    SchemaError,
    Team,
    Verdict,
    entails_k_saturate,
)
from anonatom.teamio import LoadedTeam

ATOM = Atom(("a",), ("b",), 3)
SCHEMA = Schema(("a",))
TEAM = Team(SCHEMA, frozenset({("1",)}))
LITERAL = LiteralNode("a", "1")
LEAF = Derivation(Rule.HYPOTHESIS, ATOM)

# (class, required fields, optional fields with non-default values, their
# defaults, repr of the instance built from all of them)
CASES = [
    (Atom, {"published": ("a",), "protected": ("b",)}, {"k": 3}, {"k": 2},
     "Atom(published=('a',), protected=('b',), k=3)"),
    (DependenceAtom, {"determinants": ("a",), "dependents": ("b", "c")}, {}, {},
     "DependenceAtom(determinants=('a',), dependents=('b', 'c'))"),
    (InclusionAtom, {"source": ("a",), "target": ("b",)}, {}, {},
     "InclusionAtom(source=('a',), target=('b',))"),
    (IndependenceAtom, {"left": ("a",), "right": ("b",)}, {}, {},
     "IndependenceAtom(left=('a',), right=('b',))"),
    (Schema, {"attributes": ("a", "b")}, {}, {}, "Schema(attributes=('a', 'b'))"),
    (Team, {"schema": SCHEMA, "rows": frozenset({("1",)})}, {}, {},
     "Team(schema=Schema(attributes=('a',)), rows=frozenset({('1',)}))"),
    (LoadedTeam, {"team": TEAM, "duplicate_rows": 2}, {}, {},
     "LoadedTeam(team=Team(schema=Schema(attributes=('a',)), rows=frozenset({('1',)})), "
     "duplicate_rows=2)"),
    (NormalAtom, {"published": frozenset({"a"}), "protected": frozenset({"b"}), "k": 2}, {}, {},
     "NormalAtom(published=frozenset({'a'}), protected=frozenset({'b'}), k=2)"),
    (AtomSet, {"atoms": (ATOM,)}, {"extra_attributes": frozenset({"z"})},
     {"extra_attributes": frozenset()},
     "AtomSet(atoms=(Atom(published=('a',), protected=('b',), k=3),), "
     "extra_attributes=frozenset({'z'}))"),
    (Derivation, {"rule": Rule.MONOTONICITY, "conclusion": Atom(("a",), ("b",))},
     {"premises": (LEAF,)}, {"premises": ()},
     "Derivation(rule=<Rule.MONOTONICITY: 'A2'>, "
     "conclusion=Atom(published=('a',), protected=('b',), k=2), "
     "premises=(Derivation(rule=<Rule.HYPOTHESIS: 'hyp'>, "
     "conclusion=Atom(published=('a',), protected=('b',), k=3), premises=()),))"),
    (Entailment, {"verdict": Verdict.DERIVABLE}, {"derivation": LEAF},
     {"derivation": None, "countermodel": None},
     "Entailment(verdict=<Verdict.DERIVABLE: 'derivable'>, "
     "derivation=Derivation(rule=<Rule.HYPOTHESIS: 'hyp'>, "
     "conclusion=Atom(published=('a',), protected=('b',), k=3), premises=()), "
     "countermodel=None)"),
    (CountermodelReport,
     {"team": TEAM, "satisfied_hypotheses": ((ATOM, True),), "failed_goal": ATOM,
      "domain_size": 3, "construction": "ternary-grid"}, {}, {},
     "CountermodelReport(team=Team(schema=Schema(attributes=('a',)), rows=frozenset({('1',)})), "
     "satisfied_hypotheses=((Atom(published=('a',), protected=('b',), k=3), True),), "
     "failed_goal=Atom(published=('a',), protected=('b',), k=3), domain_size=3, "
     "construction='ternary-grid')"),
    (OracleConfig, {}, {"domain_size": 3, "attribute_limit": 2},
     {"domain_size": 2, "attribute_limit": 4},
     "OracleConfig(domain_size=3, attribute_limit=2)"),
    (OracleResult, {"status": OracleStatus.REFUTED}, {"refuter": TEAM, "teams_checked": 4},
     {"refuter": None, "teams_checked": 0},
     "OracleResult(status=<OracleStatus.REFUTED: 'refuted'>, "
     "refuter=Team(schema=Schema(attributes=('a',)), rows=frozenset({('1',)})), teams_checked=4)"),
    (AtomNode, {"atom": ATOM}, {}, {},
     "AtomNode(atom=Atom(published=('a',), protected=('b',), k=3))"),
    (LiteralNode, {"attribute": "a", "target": "b"}, {"negated": True, "target_is_attribute": True},
     {"negated": False, "target_is_attribute": False},
     "LiteralNode(attribute='a', target='b', negated=True, target_is_attribute=True)"),
    (AndNode, {"parts": (LITERAL, AtomNode(ATOM))}, {}, {},
     "AndNode(parts=(LiteralNode(attribute='a', target='1', negated=False, "
     "target_is_attribute=False), AtomNode(atom=Atom(published=('a',), protected=('b',), k=3))))"),
    (ImplNode, {"guard": (LITERAL,), "body": AtomNode(ATOM)}, {}, {},
     "ImplNode(guard=(LiteralNode(attribute='a', target='1', negated=False, "
     "target_is_attribute=False),), "
     "body=AtomNode(atom=Atom(published=('a',), protected=('b',), k=3)))"),
    (ExistsNode, {"attribute": "z", "body": AtomNode(ATOM)}, {}, {},
     "ExistsNode(attribute='z', "
     "body=AtomNode(atom=Atom(published=('a',), protected=('b',), k=3)))"),
]
IDS = [case[0].__name__ for case in CASES]


def _fields(case):
    _, required, optional, _, _ = case
    return {**required, **optional}


def _all_fields(case):
    """Every field in declaration order, with its value in ``_build(case)``."""
    _, required, optional, defaults, _ = case
    return {**required, **defaults, **optional}


def _build(case):
    return case[0](**_fields(case))


def _values(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_construction_by_position_and_keyword(case):
    cls, required, optional, defaults, _ = case
    fields = _fields(case)
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert _values(by_keyword, fields) == tuple(fields.values())
    with_defaults = cls(*required.values())
    assert _values(with_defaults, defaults) == tuple(defaults.values())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr_is_unchanged(case):
    assert repr(_build(case)) == case[4]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_and_hash_agree(case):
    fields = _all_fields(case)
    first, second = _build(case), _build(case)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(tuple(fields.values()))
    assert len({first, second}) == 1
    assert first != object() and first != tuple(fields.values())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_assignment_and_deletion_raise(case):
    value = _build(case)
    for name in _all_fields(case):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == case[4]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_no_attribute_can_be_added(case):
    # a slotted frozen dataclass raised TypeError here instead
    value = _build(case)
    with pytest.raises(AttributeError):
        value.unknown_field = 1


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_copies_are_equal(case):
    value = _build(case)
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and repr(copied) == case[4]


def test_changed_field_breaks_equality():
    assert Atom(("a",), ("b",)) != Atom(("a",), ("b",), 3)
    assert Atom(("a",), ("b",)) != Atom(("a",), ("c",))
    assert LiteralNode("a", "1") != LiteralNode("a", "1", negated=True)
    assert OracleConfig() != OracleConfig(attribute_limit=3)


def test_classes_with_equal_fields_are_unequal():
    sides = (("a",), ("b",))
    values = [DependenceAtom(*sides), InclusionAtom(*sides), IndependenceAtom(*sides), Atom(*sides)]
    for i, left in enumerate(values):
        for right in values[i + 1:]:
            assert left != right and right != left
    assert len(set(values)) == len(values)
    assert NormalAtom(frozenset("a"), frozenset("b"), 2) != Atom(("a",), ("b",), 2)


def test_sequences_become_tuples():
    assert Atom(["a"], ["b"]) == Atom(("a",), ("b",))
    assert DependenceAtom(["a"], ["b"]).dependents == ("b",)
    assert InclusionAtom(["a"], ["b"]).source == ("a",)
    assert IndependenceAtom(["a"], ["b"]).right == ("b",)
    assert Schema(["a", "b"]).attributes == ("a", "b")
    assert Team(SCHEMA, [["1"], ("1",)]).rows == frozenset({("1",)})
    assert AndNode([LITERAL]).parts == (LITERAL,)
    assert ImplNode([LITERAL], AtomNode(ATOM)).guard == (LITERAL,)
    assert AtomSet([ATOM, ATOM]).atoms == (ATOM,)
    assert AtomSet((), {"z"}).extra_attributes == frozenset({"z"})


def test_atom_is_slotted():
    assert not hasattr(ATOM, "__dict__")
    assert {"published", "protected", "k"} <= set(Atom.__slots__)


def test_entailment_equality_ignores_the_closure():
    sigma = AtomSet.of(Atom(("x",), ("y",)))
    result = entails_k_saturate(sigma, Atom(("x",), ("z",)))
    assert result.verdict is Verdict.UNKNOWN
    bare = Entailment(Verdict.UNKNOWN)
    assert result == bare and hash(result) == hash(bare)
    assert repr(result) == repr(bare) == (
        "Entailment(verdict=<Verdict.UNKNOWN: 'unknown'>, derivation=None, countermodel=None)"
    )
    assert bare.saturated is None and result.saturated
    assert Entailment(Verdict.UNKNOWN, _closure=None) == bare
    assert AtomSet.of(ATOM).attributes == frozenset({"a", "b"})


@pytest.mark.parametrize("build, error, message", [
    (lambda: Atom(("a",), ("b",), 0), ValueError, "multiplicity must be a positive integer, got 0"),
    (lambda: Atom(("a",), ("b",), True), ValueError,
     "multiplicity must be a positive integer, got True"),
    (lambda: Atom(("a",), ("b",), "2"), ValueError,
     "multiplicity must be a positive integer, got '2'"),
    (lambda: InclusionAtom(("a",), ("b", "c")), ArityError,
     "inclusion sides must have equal length: 1 vs 2"),
    (lambda: Schema(("a", "a")), SchemaError, "duplicate attribute name: 'a'"),
    (lambda: Schema(("a b",)), SchemaError, "invalid attribute name: 'a b'"),
    (lambda: Team(SCHEMA, [("1", "2")]), SchemaError,
     "row ('1', '2') has 2 values but the schema has 1 attributes"),
    (lambda: Team(SCHEMA, [(1,)]), SchemaError, "non-string value 1 in row (1,)"),
    (lambda: AtomSet((DependenceAtom(("a",), ("b",)),)), TypeError,
     "AtomSet members must be anonymity atoms, got "
     "DependenceAtom(determinants=('a',), dependents=('b',))"),
    (lambda: ImplNode((AtomNode(ATOM),), LITERAL), TypeError,
     "implication guards are conjunctions of literals only"),
    (lambda: OracleConfig(domain_size=4), ConfigError, "domain_size must be 2 or 3, got 4"),
    (lambda: OracleConfig(attribute_limit=5), ConfigError,
     "attribute_limit must be between 1 and 4, got 5"),
])
def test_validation_errors_are_unchanged(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
