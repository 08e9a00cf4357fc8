import itertools
import random

import pytest

from anonatom import (
    UNBOUNDED,
    ArityError,
    Atom,
    DependenceAtom,
    InclusionAtom,
    IndependenceAtom,
    SchemaError,
    Team,
    anonymity_degree,
    check_anonymity,
    check_dependence,
    check_inclusion,
    check_independence,
    check_k_anonymity,
    group_by,
    group_distinct_counts,
    satisfies,
)
from conftest import all_teams, anonymity_scan, make_team, random_side, random_small_team
from reference_checkers import (
    check_anonymity_via_inclusion,
    check_dependence_pairwise,
    check_independence_pairwise,
    check_inclusion_pairwise,
    check_k_anonymity_existential,
    check_k_counting_variant,
    group_counts_by_scan,
)

EMPTY = Team.of(("x", "y"), [])
SINGLETON = Team.of(("x", "y"), [("0", "0")])


class TestAnonymity:
    def test_census_pair_hides_surname(self, census_team):
        assert check_anonymity(census_team, ("hometown", "salary"), ("surname",))

    def test_census_surname_reveals_hometown(self, census_team):
        assert not check_anonymity(census_team, ("surname",), ("hometown",))

    def test_transitivity_team(self, transitivity_team):
        assert check_anonymity(transitivity_team, ("x",), ("y",))
        assert check_anonymity(transitivity_team, ("y",), ("z",))
        assert not check_anonymity(transitivity_team, ("x",), ("z",))

    def test_empty_team_satisfies_everything(self):
        assert check_anonymity(EMPTY, ("x",), ("y",))
        assert check_anonymity(EMPTY, (), ())

    def test_singleton_fails_nonempty_protected(self):
        assert not check_anonymity(SINGLETON, ("x",), ("y",))
        assert not check_anonymity(SINGLETON, (), ("x", "y"))

    def test_empty_protected_holds_only_on_empty_team(self):
        assert check_anonymity(EMPTY, ("x",), ())
        assert not check_anonymity(SINGLETON, ("x",), ())

    def test_full_binary_team_satisfies(self):
        team = make_team(("x", "y"), itertools.product("01", repeat=2))
        assert check_anonymity(team, ("x",), ("y",))

    def test_unknown_attribute(self, census_team):
        with pytest.raises(SchemaError, match="'age'"):
            check_anonymity(census_team, ("age",), ("surname",))


class TestKAnonymity:
    def test_census_degrees(self, census_team):
        published, protected = ("hometown", "salary"), ("surname",)
        # brute reference: smallest distinct-surname count over the groups
        idx = census_team.schema.index("surname")
        counts = [
            len({row[idx] for row in rows})
            for rows in group_by(census_team, published).values()
        ]
        assert min(counts) == 2
        assert check_k_anonymity(census_team, published, protected, 2)
        assert not check_k_anonymity(census_team, published, protected, 3)

    def test_k1_always_true(self, census_team, transitivity_team):
        for team in (census_team, transitivity_team, EMPTY, SINGLETON):
            assert check_k_anonymity(team, ("x",) if "x" in team.schema else ("surname",), (), 1)

    def test_transitivity_k2(self, transitivity_team):
        assert check_k_anonymity(transitivity_team, ("x",), ("y",), 2)

    def test_invalid_multiplicity(self):
        with pytest.raises(ValueError):
            check_k_anonymity(EMPTY, ("x",), ("y",), 0)

    def test_k_monotone(self):
        rng = random.Random(11)
        for _ in range(200):
            team = random_small_team(rng, ("a", "b"), "012", 6)
            for k in range(2, 5):
                if check_k_anonymity(team, ("a",), ("b",), k):
                    assert check_k_anonymity(team, ("a",), ("b",), k - 1)

    def test_degree_characterizes_k(self):
        rng = random.Random(12)
        for _ in range(100):
            team = random_small_team(rng, ("a", "b"), "0123", 8)
            degree = anonymity_degree(team, ("a",), ("b",))
            for k in range(1, 6):
                assert check_k_anonymity(team, ("a",), ("b",), k) == (k <= degree)


class TestExistentialFormulation:
    def test_census(self, census_team):
        assert check_k_anonymity_existential(census_team, ("hometown", "salary"), ("surname",), 2)

    def test_singleton(self):
        assert not check_k_anonymity_existential(SINGLETON, ("x",), ("y",), 2)

    def test_agrees_with_grouped_on_random_teams(self):
        rng = random.Random(40)
        for _ in range(1000):
            team = random_small_team(rng, ("a", "b"), "012", 6)
            pub = tuple(rng.sample(("a", "b"), rng.randint(0, 2)))
            prot = tuple(rng.sample(("a", "b"), rng.randint(0, 2)))
            k = rng.randint(1, 4)
            assert check_k_anonymity_existential(team, pub, prot, k) == check_k_anonymity(
                team, pub, prot, k
            )


class TestCountingVariant:
    def test_three_row_separation(self):
        # distinct-value reading holds (two y values under x=0) but the row
        # count reading fails at (0,1,0): only one row differs in y
        team = make_team(("x", "y", "z"), [("0", "0", "0"), ("0", "1", "0"), ("0", "1", "1")])
        assert check_k_anonymity(team, ("x",), ("y",), 2)
        assert not check_k_counting_variant(team, ("x",), ("y",), 2)

    def test_empty_team_vacuous(self):
        assert check_k_counting_variant(EMPTY, ("x",), ("y",), 3)

    def test_k1_differs_on_constant_protected_group(self):
        # search tiny teams for: counting variant false at k=1 while the
        # distinct-value checker (trivially) holds
        found = None
        for team in all_teams(("a", "b"), "01", max_rows=3):
            if team.is_empty:
                continue
            if not check_k_counting_variant(team, ("a",), ("b",), 1):
                assert check_k_anonymity(team, ("a",), ("b",), 1)
                found = team
                break
        assert found is not None


class TestDependence:
    def test_census(self, census_team):
        assert check_dependence(census_team, ("surname",), ("hometown", "salary"))
        assert not check_dependence(census_team, ("hometown", "salary"), ("surname",))

    def test_empty(self):
        assert check_dependence(EMPTY, ("x",), ("y",))

    def test_anonymity_denies_dependence_on_nonempty_teams(self):
        rng = random.Random(99)
        for _ in range(200):
            team = random_small_team(rng, ("a", "b"), "012", 5)
            if not team.is_empty and check_anonymity(team, ("a",), ("b",)):
                assert not check_dependence(team, ("a",), ("b",))


class TestInclusion:
    def test_identity(self, census_team):
        assert check_inclusion(census_team, ("surname",), ("surname",))

    def test_transitivity_x_into_z(self, transitivity_team):
        # both columns take exactly the values {0, 1}
        assert check_inclusion(transitivity_team, ("x",), ("z",))

    def test_empty(self):
        assert check_inclusion(EMPTY, ("x",), ("y",))

    def test_arity_mismatch(self, census_team):
        with pytest.raises(ArityError):
            check_inclusion(census_team, ("surname", "hometown"), ("salary",))
        with pytest.raises(ArityError):
            InclusionAtom(("a",), ("b", "c"))


class TestIndependence:
    def test_constant_right_side(self):
        # independence holds because y is constant, yet anonymity fails
        team = make_team(("x", "y"), [("0", "0"), ("1", "0")])
        assert check_independence(team, ("x",), ("y",))
        assert not check_anonymity(team, ("x",), ("y",))

    def test_empty(self):
        assert check_independence(EMPTY, ("x",), ("y",))

    def test_full_product(self):
        team = make_team(("x", "y"), itertools.product("01", repeat=2))
        assert check_independence(team, ("x",), ("y",))

    def test_missing_combination(self):
        team = make_team(("x", "y"), [("0", "0"), ("1", "1")])
        assert not check_independence(team, ("x",), ("y",))


class TestInclusionTranslation:
    def test_census(self, census_team):
        assert check_anonymity_via_inclusion(census_team, ("hometown", "salary"), ("surname",))

    def test_singleton(self):
        assert not check_anonymity_via_inclusion(SINGLETON, ("x",), ("y",))

    def test_agrees_with_direct_checker(self):
        rng = random.Random(41)
        for _ in range(1000):
            team = random_small_team(rng, ("a", "b"), "012", 6)
            pub = tuple(rng.sample(("a", "b"), rng.randint(0, 2)))
            prot = tuple(rng.sample(("a", "b"), rng.randint(1, 2)))
            assert check_anonymity_via_inclusion(team, pub, prot) == check_anonymity(
                team, pub, prot
            )


class TestDegree:
    def test_census(self, census_team):
        assert anonymity_degree(census_team, ("hometown", "salary"), ("surname",)) == 2
        assert anonymity_degree(census_team, ("surname",), ("hometown",)) == 1

    def test_empty_team_unbounded(self):
        degree = anonymity_degree(EMPTY, ("x",), ("y",))
        assert degree == UNBOUNDED
        assert degree > 10**9
        assert 10**9 < degree
        assert not degree < 5
        assert degree >= 1

    def test_published_antitone(self):
        rng = random.Random(42)
        for _ in range(300):
            team = random_small_team(rng, ("a", "b", "c"), "012", 7)
            smaller = anonymity_degree(team, ("a", "b"), ("c",))
            larger = anonymity_degree(team, ("a",), ("c",))
            assert smaller <= larger


class TestStructuralProperties:
    def test_union_closure(self):
        rng = random.Random(43)
        kept = 0
        for _ in range(500):
            left = random_small_team(rng, ("a", "b"), "012", 5)
            right = random_small_team(rng, ("a", "b"), "012", 5)
            if check_anonymity(left, ("a",), ("b",)) and check_anonymity(right, ("a",), ("b",)):
                kept += 1
                assert check_anonymity(left.union(right), ("a",), ("b",))
        assert kept > 20

    def test_not_downward_closed(self):
        team = make_team(("x", "y"), [("0", "0"), ("0", "1")])
        sub = make_team(("x", "y"), [("0", "0")])
        assert check_anonymity(team, ("x",), ("y",))
        assert not check_anonymity(sub, ("x",), ("y",))

    def test_permutation_invariance(self):
        rng = random.Random(44)
        for _ in range(300):
            team = random_small_team(rng, ("a", "b", "c"), "01", 6)
            pub = tuple(rng.sample(("a", "b", "c"), rng.randint(0, 3)))
            prot = tuple(rng.sample(("a", "b", "c"), rng.randint(0, 3)))
            shuffled_pub = tuple(rng.sample(pub, len(pub)))
            shuffled_prot = tuple(rng.sample(prot, len(prot)))
            k = rng.randint(1, 3)
            assert check_k_anonymity(team, pub, prot, k) == check_k_anonymity(
                team, shuffled_pub, shuffled_prot, k
            )

    def test_matches_quadratic_scan_exhaustively(self):
        sides = [(), ("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "a"), ("b", "a", "b")]
        for team in all_teams(("a", "b"), "01"):
            for pub in sides:
                for prot in sides:
                    assert check_anonymity(team, pub, prot) == anonymity_scan(team, pub, prot)

    def test_keys_are_tuples_in_the_order_named(self, census_team):
        """The audit's keys are tuples on every side, one attribute
        included, though the grouping pass keys one attribute by its bare
        value."""
        keys = {
            (): (),
            ("salary",): ("70,000",),
            ("salary", "surname"): ("70,000", "Balbuk"),
            ("surname", "salary", "surname"): ("Balbuk", "70,000", "Balbuk"),
        }
        for attrs, key in keys.items():
            assert key in group_distinct_counts(census_team, attrs, ("hometown",))
        with pytest.raises(SchemaError, match="'age'"):
            group_distinct_counts(census_team, ("surname", "age"), ("hometown",))


class TestAgainstReferences:
    """Every production checker against its reference on random teams,
    with one-attribute sides (keyed by bare values in the grouping pass),
    empty sides, repeated names and sides that overlap."""

    @pytest.mark.parametrize("seed", range(4))
    def test_checkers_agree(self, seed):
        rng = random.Random(seed)
        attrs = ("a", "b", "c")
        for _ in range(250):
            team = random_small_team(rng, attrs, "012", 7)
            left = random_side(rng, attrs, 2)
            right = random_side(rng, attrs, 2)
            k = rng.randint(1, 4)
            counts = group_distinct_counts(team, left, right)
            reference = group_counts_by_scan(team, left, right)
            assert counts == reference
            assert all(type(key) is tuple and len(key) == len(left) for key in counts)
            degree = min((distinct for _, distinct in reference.values()), default=UNBOUNDED)
            assert anonymity_degree(team, left, right) == degree
            assert check_k_anonymity(team, left, right, k) == check_k_anonymity_existential(
                team, left, right, k
            )
            assert check_dependence(team, left, right) == check_dependence_pairwise(
                team, left, right
            )
            assert check_independence(team, left, right) == check_independence_pairwise(
                team, left, right
            )
            target = tuple(rng.choice(attrs) for _ in left)
            assert check_inclusion(team, left, target) == check_inclusion_pairwise(
                team, left, target
            )


class TestSatisfiesDispatcher:
    def test_each_kind(self, census_team):
        assert satisfies(census_team, Atom(("hometown", "salary"), ("surname",)))
        assert satisfies(census_team, DependenceAtom(("surname",), ("salary",)))
        assert satisfies(census_team, InclusionAtom(("hometown",), ("hometown",)))
        assert not satisfies(census_team, IndependenceAtom(("surname",), ("hometown",)))
        with pytest.raises(TypeError):
            satisfies(census_team, "not an atom")

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            Atom(("x",), ("y",), 0)
        assert Atom(("x",), ("y",)).k == 2
