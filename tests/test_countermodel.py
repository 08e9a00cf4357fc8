import itertools
import random

import pytest

from anonatom import (
    Atom,
    AtomSet,
    FragmentError,
    OracleConfig,
    OracleStatus,
    ResourceError,
    SchemaError,
    Team,
    Verdict,
    VerificationError,
    build_anonymity_countermodel,
    build_full_grid_countermodel,
    build_k_anonymity_countermodel,
    check_anonymity,
    check_k_anonymity,
    entails_anonymity,
    entails_k_simple,
    satisfies,
    semantic_entails,
    verify_countermodel,
)
from anonatom import countermodel
from anonatom.countermodel import _grid
from conftest import all_normal_shapes, form


def atom(pub, prot, k=2):
    return Atom(tuple(pub), tuple(prot), k)


def ternary_team_size(attribute_count: int, published: int, protected: int) -> int:
    """Closed form for the ternary grid's row count with disjoint sides:
    3^|W| minus the rows with an all-zero published tuple and a not-all-zero
    protected tuple."""
    free = attribute_count - published - protected
    return 3**attribute_count - (3**free) * (3**protected - 1)


def ternary_rows(attrs, pub, prot):
    """Independent enumeration of the defining condition."""
    rows = []
    for cells in itertools.product("012", repeat=len(attrs)):
        values = dict(zip(attrs, cells))
        if any(values[x] != "0" for x in pub) or all(values[y] == "0" for y in prot):
            rows.append(cells)
    return rows


class TestTernaryGrid:
    def test_seven_row_golden(self):
        report = build_anonymity_countermodel(AtomSet.of(), atom("x", "y"))
        expected = [
            ("0", "0"),
            ("1", "0"),
            ("1", "1"),
            ("1", "2"),
            ("2", "0"),
            ("2", "1"),
            ("2", "2"),
        ]
        assert report.team.sorted_rows() == expected
        assert report.team.sorted_rows() == sorted(ternary_rows(("x", "y"), "x", "y"))
        assert report.domain_size == 3
        assert not check_anonymity(report.team, ("x",), ("y",))

    def test_hypothesis_satisfied_goal_failed(self):
        sigma = AtomSet.of(atom("y", "x"))
        report = build_anonymity_countermodel(sigma, atom("x", "y"))
        assert verify_countermodel(report, sigma, atom("x", "y"))
        assert dict(report.satisfied_hypotheses) == {atom("y", "x"): True}

    def test_empty_protected_goal_rejected(self):
        with pytest.raises(ValueError, match="full_grid"):
            build_anonymity_countermodel(AtomSet.of(), atom("x", "x"))

    def test_derivable_instance_fails_verification(self):
        sigma = AtomSet.of(atom("x", "y"))
        with pytest.raises(VerificationError):
            build_anonymity_countermodel(sigma, atom("x", "y"))

    def test_attribute_cap(self):
        wide = atom(tuple(f"a{i}" for i in range(12)), ("z",))
        with pytest.raises(ResourceError):
            build_anonymity_countermodel(AtomSet.of(), wide)

    def test_size_formula_matches_enumeration(self):
        names = ("a", "b", "c", "d")
        for total in range(1, 5):
            attrs = names[:total]
            for pub_count in range(0, total + 1):
                for prot_count in range(1, total - pub_count + 1):
                    pub = attrs[:pub_count]
                    prot = attrs[pub_count : pub_count + prot_count]
                    goal = atom(pub, prot)
                    report = build_anonymity_countermodel(
                        AtomSet.of(extra_attributes=attrs), goal
                    )
                    assert len(report.team) == ternary_team_size(total, pub_count, prot_count)
                    assert len(report.team) == len(ternary_rows(attrs, pub, prot))

    def test_deterministic(self):
        sigma = AtomSet.of(atom("x", "y"), atom("y", "z"))
        first = build_anonymity_countermodel(sigma, atom("x", "z"))
        second = build_anonymity_countermodel(sigma, atom("x", "z"))
        assert first == second

    def test_rejects_k_atoms(self):
        with pytest.raises(FragmentError):
            build_anonymity_countermodel(AtomSet.of(), atom("x", "y", 3))


class TestTruncatedGrid:
    def test_domain_three_golden(self):
        report = build_k_anonymity_countermodel(AtomSet.of(), atom("x", "y", 3))
        assert report.domain_size == 3
        expected = sorted(
            (str(x), str(y))
            for x, y in itertools.product(range(3), repeat=2)
            if x != 0 or y <= 1
        )
        assert report.team.sorted_rows() == expected
        assert len(report.team) == 8
        assert not check_k_anonymity(report.team, ("x",), ("y",), 3)

    def test_hypothesis_kept(self):
        sigma = AtomSet.of(atom("x", "y", 2))
        goal = atom("x", "y", 3)
        report = build_k_anonymity_countermodel(sigma, goal)
        assert verify_countermodel(report, sigma, goal)

    def test_goal_in_sigma_rejected(self):
        sigma = AtomSet.of(atom("x", "y", 3))
        with pytest.raises(ValueError, match="subsumes"):
            build_k_anonymity_countermodel(sigma, atom("x", "y", 3))

    def test_non_simple_rejected(self):
        with pytest.raises(FragmentError):
            build_k_anonymity_countermodel(AtomSet.of(), atom("x", "yz", 3))

    @pytest.mark.parametrize(
        "build", [build_anonymity_countermodel, build_k_anonymity_countermodel]
    )
    def test_multiplicity_one_goal_rejected(self, build):
        # k = 1 atoms leave an instance in both fragments, and hold on every team
        with pytest.raises(ValueError, match="nothing to refute"):
            build(AtomSet.of(atom("x", "yz", 1)), atom("x", "y", 1))

    def test_deterministic(self):
        a = build_k_anonymity_countermodel(AtomSet.of(atom("x", "y", 2)), atom("x", "y", 4))
        b = build_k_anonymity_countermodel(AtomSet.of(atom("x", "y", 2)), atom("x", "y", 4))
        assert a == b


class TestStartDomain:
    def test_report_domain_is_the_smallest_refuting_grid(self):
        # the grid_rows enumeration below decides, domain by domain from 3,
        # which grid refutes first; the engine must report that domain
        rng = random.Random(23)
        refuted = 0
        for _ in range(300):
            attrs = "abcde"[: rng.randint(2, 5)]

            def simple(low):
                y = rng.choice(attrs)
                others = [a for a in attrs if a != y]
                return atom(rng.sample(others, rng.randint(0, min(2, len(others)))), y,
                            rng.randint(low, 6))

            sigma = AtomSet.of(*(simple(1) for _ in range(rng.randint(0, 3))),
                               extra_attributes=attrs)
            goal = simple(2)
            result = entails_k_simple(sigma, goal)
            if result.derivable:
                continue
            refuted += 1
            report = result.countermodel
            assert verify_countermodel(report, sigma, goal)

            def refutes(domain):
                team = Team.of(tuple(attrs), grid_rows(attrs, domain, goal.published,
                                                       goal.protected, goal.k - 2))
                return all(satisfies(team, h) for h in sigma) and not satisfies(team, goal)

            smallest = next(d for d in itertools.count(3) if refutes(d))
            assert report.domain_size == smallest, (sigma, goal)
            ternary = smallest == 3 and goal.k == 2
            assert report.construction == ("ternary-grid" if ternary else "truncated-grid")
        assert refuted > 200

    def test_both_engines_give_one_countermodel(self):
        sigma, goal = AtomSet.of(atom("y", "x"), atom("z", "y")), atom("x", "y")
        plain = entails_anonymity(sigma, goal).countermodel
        assert plain == entails_k_simple(sigma, goal).countermodel
        assert plain.construction == "ternary-grid"


class TestFullGrid:
    def test_refutes_empty_protected_goal(self):
        sigma = AtomSet.of(atom("x", "y"))
        goal = atom("xy", "y")  # protected side cancels away
        report = build_full_grid_countermodel(sigma, goal)
        assert verify_countermodel(report, sigma, goal)
        assert report.construction == "full-grid"

    def test_domain_grows_with_multiplicities(self):
        sigma = AtomSet.of(atom("x", "y", 5))
        goal = atom("u", "u", 2)
        report = build_full_grid_countermodel(sigma, goal)
        assert report.domain_size == 5
        assert verify_countermodel(report, sigma, goal)

    def test_rejects_refutable_goals(self):
        with pytest.raises(ValueError):
            build_full_grid_countermodel(AtomSet.of(), atom("x", "y"))


class TestMutation:
    def test_verifier_notices_introduced_violations(self):
        sigma = AtomSet.of()
        goal = atom("x", "y")
        report = build_anonymity_countermodel(sigma, goal)
        flips = 0
        for removed in report.team.sorted_rows():
            rows = report.team.rows - {removed}
            mutated = type(report)(
                Team(report.team.schema, frozenset(rows)),
                report.satisfied_hypotheses,
                report.failed_goal,
                report.domain_size,
                report.construction,
            )
            still_ok = verify_countermodel(mutated, sigma, goal)
            # ground truth straight from the checker
            assert still_ok == (not check_anonymity(mutated.team, ("x",), ("y",)))
            if not still_ok:
                flips += 1
        # deleting the all-zero pivot row makes the goal hold again
        assert flips >= 1


def grid_rows(attrs, domain, pub, prot, bound):
    """Independent enumeration of the grid condition: a nonzero published
    value, or every protected value at most ``bound``."""
    rows = []
    for cells in itertools.product([str(v) for v in range(domain)], repeat=len(attrs)):
        values = dict(zip(attrs, cells))
        if any(values[x] != "0" for x in pub) or all(int(values[y]) <= bound for y in prot):
            rows.append(cells)
    return rows


class TestShapeCache:
    @pytest.mark.parametrize(
        "attrs, domain, bound",
        [(("a", "b"), 2, 0), (("a", "b"), 3, 0), (("a", "b"), 3, 1),
         (("a", "b", "c"), 2, 0), (("a", "b", "c"), 3, 0), (("a", "b", "c"), 3, 1)],
    )
    def test_memoised_verdicts_match_fresh_grids(self, attrs, domain, bound):
        renamed = dict(zip(attrs, ("p", "q", "r")))
        countermodel._grids.clear()
        others = tuple(renamed.values())
        for pub, prot in all_normal_shapes(attrs):
            fresh = Team.of(attrs, grid_rows(attrs, domain, pub, prot, bound))
            masks = form(Atom(pub, prot), attrs)[:2]
            grid = _grid(len(attrs), domain, *masks, bound)
            team, holds = grid.team(attrs), grid.holds
            # the same shape under other names reads the memo the first call filled
            other_grid = _grid(len(others), domain, *masks, bound)
            other, other_holds = other_grid.team(others), other_grid.holds
            assert team.rows == fresh.rows and other.rows is team.rows
            for sides in all_normal_shapes(attrs):
                for k in range(1, len(fresh) + 3):
                    shape = Atom(*sides, k)
                    expected = satisfies(fresh, shape)
                    assert holds(team, shape, form(shape, attrs)) == expected, (pub, prot, shape)
                    moved = Atom(*([renamed[a] for a in side] for side in sides), k)
                    moved_form = form(moved, others)
                    assert other_holds(other, moved, moved_form) == expected, (pub, prot, moved)
        assert len(countermodel._grids) == 3 ** len(attrs)

    def test_renamed_instances_share_one_entry(self):
        countermodel._grids.clear()
        first_sigma, second_sigma = AtomSet.of(atom("y", "x")), AtomSet.of(atom("q", "p"))
        first = entails_anonymity(first_sigma, atom("x", "y")).countermodel
        second = entails_anonymity(second_sigma, atom("p", "q")).countermodel
        assert len(countermodel._grids) == 1
        assert first.team.schema.attributes == ("x", "y")
        assert second.team.schema.attributes == ("p", "q")
        assert second.team.rows is first.team.rows
        assert verify_countermodel(first, first_sigma, atom("x", "y"))
        assert verify_countermodel(second, second_sigma, atom("p", "q"))

    def test_cached_shape_still_checks_attribute_names(self):
        countermodel._grids.clear()
        build_anonymity_countermodel(AtomSet.of(), atom("x", "y"))
        with pytest.raises(SchemaError):
            build_anonymity_countermodel(AtomSet.of(), atom(["x y"], ["z"]))
        assert len(countermodel._grids) == 1
        team = build_anonymity_countermodel(AtomSet.of(), atom("x", "y")).team
        assert team.schema.attributes == ("x", "y")

    def test_only_the_oracle_grid_space_is_cached(self):
        countermodel._grids.clear()
        build_anonymity_countermodel(AtomSet.of(), atom("abcd", "e"))  # 5 attributes
        build_k_anonymity_countermodel(AtomSet.of(atom("x", "y", 4)), atom("x", "y", 5))  # domain 4
        build_full_grid_countermodel(AtomSet.of(atom("x", "y", 4)), atom("x", "x"))  # domain 4
        assert not countermodel._grids
        build_anonymity_countermodel(AtomSet.of(), atom("abc", "d"))  # 4 attributes, 81 rows
        assert len(countermodel._grids) == 1

    @pytest.mark.parametrize("sigma, goal", [
        (AtomSet.of(atom("x", "y", 5)), atom("x", "y", 3)),  # subsumed, from domain 5
        (AtomSet.of(atom("x", "x", 4)), atom("x", "y", 3)),  # inconsistent, from domain 4
    ])
    def test_derivable_instance_builds_at_most_one_grid(self, monkeypatch, sigma, goal):
        countermodel._grids.clear()
        built = []
        build = countermodel._grid_rows
        monkeypatch.setattr(countermodel, "_grid_rows", lambda *key: built.append(key) or build(*key))
        assert entails_k_simple(sigma, goal).derivable
        with pytest.raises(ValueError, match="nothing to refute"):
            build_k_anonymity_countermodel(sigma, goal)
        assert not built
        cfg = OracleConfig(domain_size=3, attribute_limit=2)
        assert semantic_entails(sigma, goal, cfg).status is not OracleStatus.REFUTED
        # one truncated grid (a protected position), then the oracle's full grid
        assert [key[3] != 0 for key in built] == [True, False]

    def test_goal_multiplicities_share_two_entries(self):
        countermodel._grids.clear()
        for k in range(3, 101):
            report = entails_k_simple(AtomSet.of(), atom("x", "y", k)).countermodel
            assert report.domain_size == 3
        # bounds past domain - 1 keep every row, so they share one key
        assert len(countermodel._grids) == 2

    def test_engine_and_oracle_build_and_check_a_refuter_once(self, monkeypatch):
        countermodel._grids.clear()
        built, checked = [], []
        build = countermodel._grid_rows
        monkeypatch.setattr(countermodel, "_grid_rows", lambda *key: built.append(key) or build(*key))
        monkeypatch.setattr(countermodel, "satisfies",
                            lambda team, a: checked.append(a) or satisfies(team, a))
        sigma, goal = AtomSet.of(atom("x", "y"), atom("y", "z")), atom("x", "z")
        engine = entails_anonymity(sigma, goal)
        oracle = semantic_entails(sigma, goal, OracleConfig(domain_size=2, attribute_limit=3))
        assert engine.verdict is Verdict.NOT_DERIVABLE
        assert oracle.status is OracleStatus.REFUTED
        assert oracle.refuter == engine.countermodel.team
        assert len(built) == 1
        assert checked == [*sigma.atoms, goal]
        monkeypatch.undo()
        assert verify_countermodel(engine.countermodel, sigma, goal)
