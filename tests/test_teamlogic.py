import itertools
import random
import tracemalloc

import pytest

from anonatom import (
    AndNode,
    Atom,
    AtomNode,
    DependenceAtom,
    DomainError,
    ExistsNode,
    ImplNode,
    LiteralNode,
    ResourceError,
    SchemaError,
    check_dependence,
    evaluate,
    extend,
    subteam,
)
from anonatom import teamlogic
from conftest import all_teams, make_team, random_small_team


def lit(attr, value, negated=False, is_attr=False):
    return LiteralNode(attr, value, negated=negated, target_is_attribute=is_attr)


class TestSubteam:
    def test_census_guard(self, census_team):
        part = subteam(census_team, (lit("hometown", "Watarru"),))
        assert len(part) == 2
        assert part.schema == census_team.schema

    def test_unsatisfied_guard(self, census_team):
        assert subteam(census_team, (lit("hometown", "Nowhere"),)).is_empty

    def test_empty_guard_keeps_team(self, census_team):
        assert subteam(census_team, ()) == census_team

    def test_attribute_comparison(self, transitivity_team):
        same = subteam(transitivity_team, (lit("x", "z", is_attr=True),))
        assert len(same) == 4  # x and z coincide on every row

    def test_unknown_attribute(self, census_team):
        with pytest.raises(SchemaError):
            subteam(census_team, (lit("age", "1"),))

    @pytest.mark.parametrize(
        "guard",
        [
            (lit("age", "1"),),
            (lit("surname", "age", is_attr=True),),
            (lit("hometown", "Nowhere"), lit("age", "1", negated=True)),
            (lit("hometown", "Nowhere"), lit("salary", "age", is_attr=True)),
        ],
    )
    def test_unknown_attribute_on_any_team(self, census_team, guard):
        """Also behind a literal that leaves no row, and on the empty team."""
        for team in (census_team, make_team(census_team.schema.attributes, [])):
            with pytest.raises(SchemaError, match="'age'"):
                subteam(team, guard)
            with pytest.raises(SchemaError, match="'age'"):
                evaluate(team, (), ImplNode(guard, lit("surname", "x")))
            with pytest.raises(SchemaError, match="'age'"):
                evaluate(team, (), guard[-1])

    def test_agrees_with_brute_force(self):
        """Every = / != literal over a constant or an attribute, in guards of
        one to three literals, on random small teams."""
        attrs, values = ("a", "b", "c"), ("0", "1", "2")
        literals = [
            lit(attr, target, negated, target in attrs)
            for attr in attrs
            for target in (*values, *attrs)
            for negated in (False, True)
        ]

        def holds(literal, row):
            left = row[attrs.index(literal.attribute)]
            right = (row[attrs.index(literal.target)] if literal.target_is_attribute
                     else literal.target)
            return (left != right) if literal.negated else (left == right)

        rng = random.Random(71)
        for _ in range(300):
            team = random_small_team(rng, attrs, values, 12)
            for size in (1, 2, 3):
                guard = tuple(rng.choice(literals) for _ in range(size))
                expected = {row for row in team.rows if all(holds(l, row) for l in guard)}
                part = subteam(team, guard)
                assert part == make_team(attrs, expected), guard
                assert evaluate(team, (), guard[0]) == all(holds(guard[0], r) for r in team.rows)


class TestExtend:
    def test_fan_out(self):
        team = make_team(("a",), [("0",)])
        grown = extend(team, "v", {("0",): {"0", "1"}})
        assert len(grown) == 2
        assert grown.schema.attributes == ("a", "v")

    def test_constant_column(self, census_team):
        choice = {row: {"c"} for row in census_team.rows}
        grown = extend(census_team, "tag", choice)
        assert len(grown) == len(census_team)
        assert check_dependence(grown, (), ("tag",))

    def test_duplicating_a_column(self, transitivity_team):
        choice = {row: {row[0]} for row in transitivity_team.rows}
        grown = extend(transitivity_team, "w", choice)
        assert len(grown) == 4
        assert check_dependence(grown, ("w",), ("x",))
        assert check_dependence(grown, ("x",), ("w",))

    def test_fresh_attribute_must_be_new(self, census_team):
        with pytest.raises(SchemaError):
            extend(census_team, "surname", {row: {"x"} for row in census_team.rows})

    def test_choice_must_cover_rows(self):
        team = make_team(("a",), [("0",), ("1",)])
        with pytest.raises(ValueError, match="cover"):
            extend(team, "v", {("0",): {"0"}})
        with pytest.raises(ValueError, match="empty"):
            extend(team, "v", {("0",): set(), ("1",): {"0"}})


class TestEvaluate:
    def test_private_rows_keep_address_anonymous(self):
        team = make_team(
            ("publicity", "data", "address"),
            [("private", "1", "X"), ("private", "1", "Y"), ("open", "2", "Z")],
        )
        formula = ImplNode(
            (lit("publicity", "private"),),
            AtomNode(Atom(("data",), ("address",))),
        )
        # the private part has one data-group with two addresses; the open
        # row is exempt, so the implication holds
        assert evaluate(team, (), formula)
        # without the guard the open row has no partner and the atom fails
        assert not evaluate(team, (), AtomNode(Atom(("data",), ("address",))))

    def test_vacuous_guard_is_true(self, census_team):
        formula = ImplNode((lit("hometown", "Nowhere"),), AtomNode(Atom(("surname",), ("salary",))))
        assert evaluate(census_team, (), formula)

    def test_update_with_fresh_attribute(self):
        team = make_team(("data", "address"), [("1", "X"), ("1", "Y")])
        formula = ExistsNode(
            "v", AndNode((lit("v", "0"), AtomNode(Atom(("data", "v"), ("address",)))))
        )
        assert evaluate(team, ("0", "1"), formula)

    def test_exists_needs_domain(self):
        team = make_team(("a",), [("0",)])
        with pytest.raises(DomainError):
            evaluate(team, (), ExistsNode("v", lit("v", "0")))

    def test_exists_rejects_existing_attribute(self, census_team):
        with pytest.raises(SchemaError):
            evaluate(census_team, ("0",), ExistsNode("surname", lit("surname", "0")))

    def test_exists_budget(self, monkeypatch):
        monkeypatch.setattr(teamlogic, "MAX_EXPANSIONS", 10)
        team = make_team(("a", "b"), itertools.product("0123", repeat=2))
        with pytest.raises(ResourceError):
            evaluate(team, ("0", "1", "2"), ExistsNode("v", lit("v", "0")))

    def test_exists_budget_is_exact(self, monkeypatch):
        team = make_team(("a",), [("0",), ("1",)])
        formula = ExistsNode("v", lit("v", "9"))  # fails on every expansion
        monkeypatch.setattr(teamlogic, "MAX_EXPANSIONS", 49)  # 7^2
        assert not evaluate(team, ("0", "1", "2"), formula)
        monkeypatch.setattr(teamlogic, "MAX_EXPANSIONS", 48)
        with pytest.raises(ResourceError):
            evaluate(team, ("0", "1", "2"), formula)

    def test_exists_budget_is_checked_before_allocation(self):
        team = make_team(("a",), [("0",), ("1",)])
        domain = tuple(str(i) for i in range(16))  # 65535^2 expansions
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                evaluate(team, domain, ExistsNode("v", lit("v", "0")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_exists_on_empty_team(self):
        team = make_team(("a",), [])
        assert evaluate(team, ("0",), ExistsNode("v", AtomNode(Atom(("a",), ("v",)))))

    def test_nested_exists(self):
        team = make_team(("a",), [("0",)])
        inner = AndNode((lit("v", "w", is_attr=True), lit("v", "0")))
        assert evaluate(team, ("0", "1"), ExistsNode("v", ExistsNode("w", inner)))

    def test_conjunction_order_invariant(self):
        rng = random.Random(50)
        parts = (
            lit("a", "0"),
            AtomNode(Atom(("a",), ("b",))),
            AtomNode(DependenceAtom(("a",), ("b",))),
        )
        for team in all_teams(("a", "b"), "01", max_rows=3):
            baseline = evaluate(team, ("0",), AndNode(parts))
            for _ in range(3):
                shuffled = tuple(rng.sample(parts, len(parts)))
                assert evaluate(team, ("0",), AndNode(shuffled)) == baseline


def brute_force_exists(team, domain, fresh, body):
    """Independent reference: collect every per-row subset combination."""
    rows = team.sorted_rows()
    if not rows:
        return evaluate(extend(team, fresh, {}), domain, body)
    subsets = [
        frozenset(combo)
        for size in range(1, len(domain) + 1)
        for combo in itertools.combinations(domain, size)
    ]
    outcomes = []
    for combo in itertools.product(subsets, repeat=len(rows)):
        extended = extend(team, fresh, dict(zip(rows, combo)))
        outcomes.append(evaluate(extended, domain, body))
    return any(outcomes)


class TestExistsAgainstBruteForce:
    BODIES = [
        AtomNode(Atom(("a", "v"), ("b",))),
        AtomNode(Atom(("v",), ("b",))),
        AndNode((LiteralNode("v", "0"), AtomNode(Atom(("a", "v"), ("b",))))),
        ImplNode((LiteralNode("a", "0"),), AtomNode(Atom(("v",), ("b",)))),
        LiteralNode("v", "0"),
        AtomNode(DependenceAtom(("v",), ("a",))),
    ]

    @pytest.mark.parametrize("domain", [("0",), ("0", "1")])
    def test_small_sweep(self, domain):
        for team in all_teams(("a", "b"), "01", max_rows=3):
            for body in self.BODIES:
                formula = ExistsNode("v", body)
                assert evaluate(team, domain, formula) == brute_force_exists(
                    team, domain, "v", body
                ), (team.sorted_rows(), domain, body)
