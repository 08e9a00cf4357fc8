import itertools
import json
import random
import sys
from collections import Counter
from math import comb

import pytest

from anonatom import (
    Atom,
    AtomSet,
    ConfigError,
    OracleConfig,
    OracleResult,
    OracleStatus,
    ResourceError,
    Team,
    Verdict,
    entails_anonymity,
    entails_k_saturate,
    entails_k_simple,
    satisfies,
    semantic_entails,
)
from anonatom import countermodel, inference, oracle
from anonatom.countermodel import candidate_teams
from conftest import all_normal_shapes, form
from reference_lattice import Lattice, lattice_entails


def atom(pub, prot, k=2):
    return Atom(tuple(pub), tuple(prot), k)


CFG2 = OracleConfig(domain_size=2, attribute_limit=3)


def refutes(team, sigma, goal):
    return all(satisfies(team, h) for h in sigma.atoms) and not satisfies(team, goal)


def lattice(attrs, domain):
    """Every team over the grid, materialized: team i holds grid row j iff
    bit j of i is set."""
    grid = list(itertools.product(domain, repeat=len(attrs)))
    return [
        Team.of(attrs, itertools.compress(grid, [i >> j & 1 for j in range(len(grid))]))
        for i in range(1 << len(grid))
    ]


def brute_force_mask(teams, atom):
    """Reference bitmap: bit i is set iff ``satisfies`` accepts team i."""
    return sum(1 << i for i, team in enumerate(teams) if satisfies(team, atom))


def normal_atoms(attrs, ks):
    """Every atom with disjoint published and protected sides over ``attrs``."""
    for sides in itertools.product((0, 1, 2), repeat=len(attrs)):
        published = tuple(a for a, side in zip(attrs, sides) if side == 1)
        protected = tuple(a for a, side in zip(attrs, sides) if side == 2)
        for k in ks:
            yield Atom(published, protected, k)


# refuted only by the grid: no candidate construction applies
GRID_REFUTED = [
    (AtomSet.of(atom("c", "ab", 3), atom("c", "b")), atom("a", "cb")),
    (AtomSet.of(atom("b", "ac", 3), atom("", "ba")), atom("ca", "b")),
    (AtomSet.of(atom("a", "c"), atom("", "ca", 3)), atom("b", "ca")),
    (AtomSet.of(atom("b", "c"), atom("c", "ba", 3)), atom("bc", "a")),
    (AtomSet.of(atom("b", "a"), atom("b", "ac")), atom("cb", "a", 3)),
]


class TestConfig:
    def test_exhaustive_lattice_gate(self):
        # the 2^16-team gate is gone: the search covers the grid space,
        # up to 4 attributes over 3 values (81 rows, 2^81 teams)
        cfg = OracleConfig(domain_size=3, attribute_limit=4)
        result = semantic_entails(AtomSet.of(atom("ab", "cd")), atom("a", "cd"), cfg)
        assert result == OracleResult(OracleStatus.ENTAILED, None, 2**81)
        # no refuter, but k = 3 needs a small-model bound to be ENTAILED
        result = semantic_entails(AtomSet.of(atom("ab", "cd", 3)), atom("a", "cd", 3), cfg)
        assert result == OracleResult(OracleStatus.UNKNOWN, None, 2**81)

    def test_domain_size_gate(self):
        with pytest.raises(ConfigError):
            OracleConfig(domain_size=4)

    def test_instance_wider_than_limit(self):
        sigma = AtomSet.of(atom("abc", "d"))
        with pytest.raises(ConfigError, match="limit"):
            semantic_entails(sigma, atom("abc", "d"), OracleConfig(attribute_limit=3))

    def test_limit_comes_before_the_candidates(self):
        sigma = AtomSet.of(atom("x", "y"))  # a candidate countermodel would refute
        with pytest.raises(ConfigError, match="limit"):
            semantic_entails(sigma, atom("abcd", "e"), OracleConfig(attribute_limit=4))


class TestExhaustive:
    def test_transitivity_refuted(self):
        sigma = AtomSet.of(atom("x", "y"), atom("y", "z"))
        result = semantic_entails(sigma, atom("x", "z"), CFG2)
        assert result.status is OracleStatus.REFUTED
        assert refutes(result.refuter, sigma, atom("x", "z"))

    def test_weakening_entailed(self):
        sigma = AtomSet.of(atom("xy", "z"))
        result = semantic_entails(sigma, atom("x", "z"), CFG2)
        assert result.status is OracleStatus.ENTAILED

    def test_empty_sigma_refuted_fast(self):
        result = semantic_entails(AtomSet.of(), atom("x", "y"), CFG2)
        assert result.status is OracleStatus.REFUTED

    def test_cycle_needs_constructed_candidate(self):
        # no two-valued team refutes this one; the ternary construction does
        sigma = AtomSet.of(atom("x", "y"), atom("y", "z"), atom("z", "x"))
        result = semantic_entails(sigma, atom("x", "z"), CFG2)
        assert result.status is OracleStatus.REFUTED
        assert refutes(result.refuter, sigma, atom("x", "z"))
        values = {v for row in result.refuter.rows for v in row}
        assert len(values) == 3

    def test_deterministic(self):
        sigma = AtomSet.of(atom("x", "y"), atom("y", "z"))
        first = semantic_entails(sigma, atom("x", "z"), CFG2)
        second = semantic_entails(sigma, atom("x", "z"), CFG2)
        assert first == second

    def test_inconsistent_sigma_entails_everything(self):
        sigma = AtomSet.of(atom("x", "x"))
        result = semantic_entails(sigma, atom("y", "z"), CFG2)
        assert result.status is OracleStatus.ENTAILED

    def test_high_multiplicity_guard(self):
        # a domain of size 3 cannot certify entailment once multiplicities
        # exceed 2, so the oracle stays honest with UNKNOWN
        sigma = AtomSet.of(atom("x", "y", 3))
        cfg = OracleConfig(domain_size=3, attribute_limit=2)
        result = semantic_entails(sigma, atom("x", "y", 3), cfg)
        assert result.status is OracleStatus.UNKNOWN

    def test_k_refutation_via_truncated_candidate(self):
        sigma = AtomSet.of(atom("x", "y", 2))
        goal = atom("x", "y", 3)
        result = semantic_entails(sigma, goal, CFG2)
        assert result.status is OracleStatus.REFUTED
        assert refutes(result.refuter, sigma, goal)

    def test_refuter_outside_the_first_grid_teams(self):
        # no candidate construction refutes this one; 8 of the 256 teams
        # refute, all past team index 7, e.g. rows 000, 010, 100
        sigma = AtomSet.of(atom("c", "ab", 3), atom("c", "b"))
        goal = atom("a", "cb")
        result = semantic_entails(sigma, goal, CFG2)
        assert result.status is OracleStatus.REFUTED
        assert refutes(result.refuter, sigma, goal)

    def test_agrees_with_simple_k_engine(self):
        # refutations coincide with NotDerivable verdicts; ENTAILED only
        # appears where the small domain can certify it, and then agrees
        rng = random.Random(88)
        attrs = ("x", "y")
        for _ in range(300):
            sigma = AtomSet.of(
                *(
                    Atom(
                        tuple(rng.sample(attrs, rng.randint(0, 2))),
                        (rng.choice(attrs),),
                        rng.randint(1, 4),
                    )
                    for _ in range(rng.randint(0, 2))
                )
            )
            goal = Atom(
                tuple(rng.sample(attrs, rng.randint(0, 2))), (rng.choice(attrs),), rng.randint(1, 4)
            )
            engine = entails_k_simple(sigma, goal)
            oracle = semantic_entails(sigma, goal, CFG2)
            assert (oracle.status is OracleStatus.REFUTED) == (not engine.derivable)
            if oracle.status is OracleStatus.ENTAILED:
                assert engine.derivable


class TestIndependence:
    def test_oracle_does_not_lean_on_the_engine_rule(self, monkeypatch):
        # With the engine's subsumption rule unusable, and the truncated
        # builder's guard told that every goal is subsumed (so that it never
        # builds), the oracle still decides a 3-attribute plain sample.
        rng = random.Random(31)
        shapes = [Atom(pub, prot) for pub, prot in all_normal_shapes(("a", "b", "c"))]
        sample = []
        for _ in range(300):
            sigma = AtomSet.of(*rng.sample(shapes, rng.randint(0, 3)))
            goal = rng.choice(shapes)
            sample.append((sigma, goal, entails_anonymity(sigma, goal).derivable))
        assert 0 < sum(derivable for *_, derivable in sample) < len(sample)

        def unusable(sigma, goal):
            raise AssertionError("the oracle consulted the engine's subsumption rule")

        monkeypatch.setattr(inference, "_subsuming", unusable)
        monkeypatch.setattr(countermodel, "_subsuming", lambda sigma, goal: goal)
        countermodel._grids.clear()
        for sigma, goal, derivable in sample:
            result = semantic_entails(sigma, goal, CFG2)
            assert result.status is (OracleStatus.ENTAILED if derivable else OracleStatus.REFUTED)
            if not derivable:
                assert refutes(result.refuter, sigma, goal)


class TestBitmaps:
    """The reference lattice (``tests/reference_lattice.py``) against its
    definition, and the oracle's row bitmaps, its group masks, on the
    shape cache."""

    # every full grid in the former grid space, the lattices of fewer than
    # 8 teams (0 and 1 attributes over 2 values) included
    @pytest.mark.parametrize("n, d", [(n, 2) for n in range(5)] + [(1, 3), (2, 3)])
    def test_row_bitmaps_match_their_definition(self, n, d):
        cache = Lattice(countermodel._grid(n, d))
        assert len(cache._containing) == d**n
        for j, containing in enumerate(cache._containing):
            # sum(1 << i for i in range(count) if i >> j & 1), written as a
            # binary numeral, highest team first, so that it builds in linear time
            bits = "".join("01"[i >> j & 1] for i in reversed(range(cache.count)))
            assert containing == int(bits, 2), (n, d, j)

    @pytest.mark.parametrize("attrs, domain", [(("a", "b"), ("0", "1", "2")), (("a", "b", "c"), ("0", "1"))])
    def test_every_normal_atom_matches_brute_force(self, attrs, domain):
        cache = Lattice(countermodel._grid(len(attrs), len(domain)))
        teams = lattice(attrs, domain)
        g = len(cache.rows)
        for a in normal_atoms(attrs, range(1, g + 3)):
            assert cache.mask(form(a, attrs)) == brute_force_mask(teams, a), a

    def test_sampled_atoms_at_four_attributes(self):
        attrs, domain = ("a", "b", "c", "d"), ("0", "1")
        cache = Lattice(countermodel._grid(len(attrs), len(domain)))
        teams = lattice(attrs, domain)
        rng = random.Random(6)
        for _ in range(3):
            # overlapping sides too: shared attributes cancel from the protected side
            a = Atom(
                tuple(rng.sample(attrs, rng.randint(0, 2))),
                tuple(rng.sample(attrs, rng.randint(2, 3))),
                rng.randint(2, 4),
            )
            assert cache.mask(form(a, attrs)) == brute_force_mask(teams, a), a

    @pytest.mark.parametrize("n, d", [(3, 2), (2, 3)])
    def test_group_masks_match_their_definition(self, n, d):
        masks = oracle._GroupMasks(countermodel._grid(n, d))
        rows = masks.rows
        for published, protected in all_normal_shapes(range(n)):
            groups = masks[sum(1 << i for i in published), sum(1 << i for i in protected)]
            members = [[[rows[j] for j in range(len(rows)) if value >> j & 1] for value in values]
                       for _, values in groups]
            # one group per published key, one cell per protected value in it
            assert len(groups) == d ** len(published)
            assert all(len(values) == d ** len(protected) for _, values in groups)
            # the cells partition the sorted rows; groups, and cells within a
            # group, come in the order of their first rows, so the first cell
            # holds the all-zero row
            assert sorted(row for cells in members for cell in cells for row in cell) == rows
            firsts = [cells[0][0] for cells in members]
            assert firsts == sorted(firsts) and firsts[0] == rows[0]
            for (group, values), cells in zip(groups, members):
                assert group == sum(values)
                assert [cell[0] for cell in cells] == sorted(cell[0] for cell in cells)
                for cell in cells:
                    sides = {(tuple(r[i] for i in published), tuple(r[i] for i in protected)) for r in cell}
                    assert len(sides) == 1
                assert len({tuple(cell[0][i] for i in published) for cell in cells}) == 1

    def test_cache_keyed_by_shape(self):
        countermodel._grids.clear()
        first_sigma, first_goal = GRID_REFUTED[0]
        second_sigma = AtomSet.of(atom("r", "pq", 3), atom("r", "q"))
        first = semantic_entails(first_sigma, first_goal, CFG2)
        cache = countermodel._grids[(3, 2, 0, 0, 0)].groups
        masks = dict(cache)
        second = semantic_entails(second_sigma, atom("p", "rq"), CFG2)
        assert countermodel._grids[(3, 2, 0, 0, 0)].groups is cache
        assert cache.keys() == masks.keys() and all(cache[key] is masks[key] for key in masks)
        assert first.refuter.schema.attributes == ("a", "b", "c")
        assert second.refuter.schema.attributes == ("p", "q", "r")
        assert first.refuter.rows == second.refuter.rows
        assert refutes(second.refuter, second_sigma, atom("p", "rq"))

    def test_multiplicity_clamped_past_the_grid(self):
        attrs = ("a", "b")
        cache = Lattice(countermodel._grid(len(attrs), 2))
        assert cache.mask(form(atom("a", "b", 5), attrs)) == cache.mask(form(atom("a", "b", 50), attrs))
        assert len(cache._masks) == 1

    def test_bitmaps_live_on_the_full_grid_entry(self):
        countermodel._grids.clear()
        sigma, goal = AtomSet.of(atom("xy", "z")), atom("x", "z")
        assert semantic_entails(sigma, goal, CFG2).status is OracleStatus.ENTAILED
        full = countermodel._grids[(3, 2, 0, 0, 0)]
        # one entry per atom side searched, whatever its k
        sides = {form(a, ("x", "y", "z"))[:2] for a in (goal, *sigma.atoms)}
        assert set(full.groups) == sides
        assert [entry for entry in countermodel._grids.values() if entry.groups] == [full]
        sigma3 = AtomSet.of(atom("xy", "z", 3))
        assert semantic_entails(sigma3, atom("x", "z", 3), CFG2).status is OracleStatus.UNKNOWN
        assert set(full.groups) == sides
        # no second cache keeps them: clearing the shape cache drops the masks
        countermodel._grids.clear()
        assert semantic_entails(sigma, goal, CFG2).teams_checked == 256
        groups = countermodel._grids[(3, 2, 0, 0, 0)].groups
        assert groups and groups is not full.groups


# The oracle's refuters of GRID_REFUTED, over the sorted attributes a, b, c.
LARGEST_REFUTERS = [
    ["000", "100", "110"],
    ["000", "001", "011", "100", "101", "110", "111"],
    ["000", "010", "011", "110", "111"],
    ["000", "001", "010", "011", "101", "110", "111"],
    ["000", "001", "010", "011", "100", "101", "110", "111"],
]


class TestCanonicalRefuter:
    @pytest.mark.parametrize("sigma, goal", GRID_REFUTED)
    def test_lowest_index_refuter_and_count(self, sigma, goal):
        # the reference lattice answers with the lowest-index refuting team
        attrs = tuple(sorted(sigma.attributes | goal.attributes()))
        first = next(team for team in lattice(attrs, ("0", "1")) if refutes(team, sigma, goal))
        result = lattice_entails(sigma, goal, CFG2)
        assert result.status is OracleStatus.REFUTED
        assert result.refuter == first
        candidates = len(list(candidate_teams(sigma, goal)))
        assert result.teams_checked == candidates + 256

    @pytest.mark.parametrize(
        "sigma, goal, rows",
        [(*instance, rows) for instance, rows in zip(GRID_REFUTED, LARGEST_REFUTERS)],
    )
    def test_largest_refuter_and_count(self, sigma, goal, rows):
        """The oracle answers with L(U), the union of every subteam of U
        that satisfies the hypotheses, where U is the grid less the rows
        with an all-zero published tuple and a protected tuple outside the
        first min(k-1, |Y|) in sorted order."""
        attrs = tuple(sorted(sigma.attributes | goal.attributes()))
        published = [attrs.index(a) for a in goal.published]
        protected = [attrs.index(a) for a in goal.protected if a not in goal.published]
        teams = lattice(attrs, ("0", "1"))
        tuples = sorted({tuple(row[i] for i in protected) for row in teams[-1].rows})
        shown = tuples[: min(goal.k - 1, len(tuples))]
        allowed = {
            row for row in teams[-1].rows
            if any(row[i] != "0" for i in published) or tuple(row[i] for i in protected) in shown
        }
        largest = set().union(*(
            team.rows for team in teams
            if team.rows <= allowed and all(satisfies(team, h) for h in sigma.atoms)
        ))
        result = semantic_entails(sigma, goal, CFG2)
        assert result == OracleResult(OracleStatus.REFUTED, Team.of(attrs, map(tuple, rows)), 256)
        assert result.refuter.rows == largest
        assert refutes(result.refuter, sigma, goal)


def _seeded_sample():
    """5,000 seeded instances ``(sigma, goal, cfg)``: 1-4 attributes over 2
    values and 1-2 over 3, k from 1 to 6, overlapping and empty sides, 0-3
    hypotheses."""
    rng = random.Random(27)
    for _ in range(5000):
        domain = rng.choice((2, 3))
        attrs = "abcd"[: rng.randint(1, 4 if domain == 2 else 2)]

        def side():
            return tuple(rng.sample(attrs, rng.randint(0, len(attrs))))

        hyps = [Atom(side(), side(), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
        sigma = AtomSet.of(*hyps)
        goal = Atom(side(), side(), rng.randint(1, 6))
        yield sigma, goal, OracleConfig(domain_size=domain, attribute_limit=len(attrs))


class TestAgainstTheLattice:
    def test_seeded_sample(self):
        """The oracle against the reference lattice on the seeded sample.
        Status and ``teams_checked`` agree, and every refuter refutes."""
        seen = Counter()
        for sigma, goal, cfg in _seeded_sample():
            result = semantic_entails(sigma, goal, cfg)
            reference = lattice_entails(sigma, goal, cfg)
            assert (result.status, result.teams_checked) == (
                reference.status, reference.teams_checked
            ), (sigma, goal, cfg)
            if result.refuter is not None:
                assert refutes(result.refuter, sigma, goal), (sigma, goal, cfg)
            seen[result.status, result.teams_checked > 1] += 1
        # candidates, refutations by the search, ENTAILED and UNKNOWN all occur
        assert len(seen) == 4 and min(seen.values()) >= 100, seen

    def test_seeded_sample_descending(self, monkeypatch):
        """The same sample with no fixpoint allowed, so that every search
        with a choice of S descends.  Where the descent answers, status and
        ``teams_checked`` agree with the reference and every refuter
        refutes; it raises ResourceError only where the reference finds no
        refuter."""
        monkeypatch.setattr(oracle, "MAX_FIXPOINTS", 0)
        seen = Counter()
        for sigma, goal, cfg in _seeded_sample():
            reference = lattice_entails(sigma, goal, cfg)
            try:
                result = semantic_entails(sigma, goal, cfg)
            except ResourceError:
                assert reference.status is not OracleStatus.REFUTED, (sigma, goal, cfg)
                seen["undecided"] += 1
                continue
            assert (result.status, result.teams_checked) == (
                reference.status, reference.teams_checked
            ), (sigma, goal, cfg)
            if result.refuter is not None:
                assert refutes(result.refuter, sigma, goal), (sigma, goal, cfg)
            seen[result.status] += 1
        assert seen["undecided"] == 4 and len(seen) == 4 and min(seen.values()) >= 4, seen

    def test_deletions_cascade(self):
        # The goal's zero group b = 0 keeps only a = 0, so the groups a = 1
        # and a = 2 show two b-values and the first round deletes them; only
        # a second round sees that the rest shows one a-value and deletes
        # it, so no subteam refutes.  ``a Y3 b a`` is not simple as written,
        # so no candidate applies.
        sigma, goal = AtomSet.of(atom("", "a", 3), atom("a", "ba", 3)), atom("b", "a")
        cfg = OracleConfig(domain_size=3, attribute_limit=2)
        result = semantic_entails(sigma, goal, cfg)
        assert result == lattice_entails(sigma, goal, cfg) == OracleResult(OracleStatus.UNKNOWN, None, 2**9)


class TestFixpointBudget:
    @pytest.fixture
    def fixpoints(self, monkeypatch):
        """The function that called ``oracle._largest``, once per fixpoint:
        ``_refuting`` for the enumeration, ``_descent`` for the descent."""
        calls = []
        largest = oracle._largest

        def counted(*args):
            calls.append(sys._getframe(1).f_code.co_name)
            return largest(*args)

        monkeypatch.setattr(oracle, "_largest", counted)
        return calls

    def test_checked_before_any_fixpoint(self, fixpoints):
        # S would hold 4 of the 81 abcd tuples: C(80, 3) fixpoints, past 2^16.
        # No team refutes (abcd shows at least the 5 ab tuples), and the
        # descent stops at a minimal S showing 5, so it cannot tell
        sigma, goal = AtomSet.of(Atom((), ("a", "b"), 5)), Atom((), tuple("abcd"), 5)
        with pytest.raises(ResourceError, match=r"C\(80, 3\) fixpoints over 81 rows"):
            semantic_entails(sigma, goal, OracleConfig(domain_size=3))
        assert set(fixpoints) == {"_descent"} and len(fixpoints) <= 2 * 81 + 1

    def test_cap_counts_fixpoints(self, fixpoints):
        # 27 tuples over bcd at D = 3: Y6 takes C(26, 4) = 14,950 fixpoints,
        # Y7 would take C(26, 5) = 65,780, past 2^16, so it descends: with no
        # hypothesis, one fixpoint for S = every tuple and one per tuple
        # dropped, from 27 down to 6
        cfg = OracleConfig(domain_size=3, attribute_limit=3)
        goal = Atom((), ("b", "c", "d"), 6)
        result = semantic_entails(AtomSet.of(goal), goal, cfg)
        assert result == OracleResult(OracleStatus.UNKNOWN, None, 2**27)
        assert fixpoints == ["_refuting"] * 14_950
        goal = Atom((), ("b", "c", "d"), 7)
        result = semantic_entails(AtomSet.of(), goal, cfg)
        assert result.status is OracleStatus.REFUTED and len(result.refuter) == 6
        assert refutes(result.refuter, AtomSet.of(), goal)
        assert fixpoints[14_950:] == ["_descent"] * 22

    @pytest.mark.parametrize("goal", [Atom((), tuple("abcd"), 15), Atom(("a",), tuple("bcd"), 14)])
    def test_past_the_cap_the_descent_refutes(self, fixpoints, goal):
        # C(80, 13) and C(26, 12) fixpoints, past 2^16
        result = semantic_entails(AtomSet.of(), goal, OracleConfig(domain_size=3))
        assert result.status is OracleStatus.REFUTED and result.teams_checked == 2**81
        assert refutes(result.refuter, AtomSet.of(), goal)
        protected = 3 ** len(goal.protected)
        assert set(fixpoints) == {"_descent"} and len(fixpoints) <= 2 * protected + 1

    def test_the_descent_is_incomplete(self, monkeypatch):
        # a 3-row diagonal over ab refutes: 3 a-values, 3 b-values, 3 ab
        # tuples; the descent stops at a minimal S of 4 ab tuples instead
        sigma, goal = AtomSet.of(atom("", "a", 3), atom("", "b", 3)), atom("", "ab", 4)
        cfg = OracleConfig(domain_size=3, attribute_limit=2)
        result = semantic_entails(sigma, goal, cfg)
        assert result.status is OracleStatus.REFUTED and len(result.refuter) == 3
        monkeypatch.setattr(oracle, "MAX_FIXPOINTS", 0)
        with pytest.raises(ResourceError, match=r"C\(8, 2\) fixpoints over 9 rows; cap is 0"):
            semantic_entails(sigma, goal, cfg)

    def test_the_former_grid_space_fits(self, fixpoints):
        # every instance of the former 2^16-team space (D = 2 over up to 4
        # attributes, D = 3 over up to 2) is searched: at most C(15, 7)
        # fixpoints, for a goal protecting 4 attributes with k = 9
        needed = max(
            comb(d**q - 1, min(k - 1, d**q) - 1)
            for d, n in ((2, 4), (3, 2)) for q in range(n + 1) for k in range(2, d**n + 2)
        )
        assert needed == comb(15, 7) == 6_435 <= oracle.MAX_FIXPOINTS
        goal = Atom((), ("a", "b", "c", "d"), 9)
        result = semantic_entails(AtomSet.of(goal), goal, OracleConfig())
        assert result == OracleResult(OracleStatus.UNKNOWN, None, 2**16)
        assert len(fixpoints) == 6_435
        # with no hypothesis the first S refutes: the refuter is its 8 rows
        result = semantic_entails(AtomSet.of(), goal, OracleConfig())
        assert len(fixpoints) == 6_436 and len(result.refuter) == 8
        assert refutes(result.refuter, AtomSet.of(), goal)


class TestSmallestA1A5Gap:
    """``d b Y c``, ``d a Y c`` and ``d Y a b`` entail ``d Y3 a b c``, and
    the axioms A1-A5 do not derive it: they are incomplete for general
    k-atoms.

    Take a team satisfying the hypotheses, and one of its d-groups.  By
    ``d Y a b`` the group shows two ab tuples, so were it to show at most
    two abc tuples, it would show exactly two, t and u, which differ on ab.
    By ``d b Y c`` the rows of the group with t's b-value show two c-values;
    only u can supply the second, so t and u agree on b.  By ``d a Y c``
    they agree on a likewise: they agree on ab after all.  So every
    d-group shows three abc tuples, and two rows cannot refute the goal.
    """

    SIGMA = AtomSet.of(atom("db", "c"), atom("da", "c"), atom("d", "ab"))
    GOAL = atom("d", "abc", 3)

    def test_saturation_leaves_it_unknown(self):
        assert entails_k_saturate(self.SIGMA, self.GOAL).verdict is Verdict.UNKNOWN

    @pytest.mark.parametrize("domain, teams", [(2, 2**16), (3, 2**81)])
    def test_no_refuter_over_four_attributes(self, domain, teams):
        # UNKNOWN rather than ENTAILED: no small-model bound covers k = 3
        result = semantic_entails(self.SIGMA, self.GOAL, OracleConfig(domain_size=domain))
        assert result == OracleResult(OracleStatus.UNKNOWN, None, teams)


def _random_atom(rng, attrs, kind, k=None):
    """An atom over ``attrs`` for a ``kind`` of instance: plain (k = 2),
    simple (one protected attribute) or general."""
    most = min(2, len(attrs))
    protected = rng.sample(attrs, 1 if kind == "simple" else rng.randint(1, most))
    published = rng.sample(attrs, rng.randint(1, most))  # the grammar needs one
    if k is None:
        k = 2 if kind == "plain" else rng.randint(2, 4)
    return Atom(tuple(published), tuple(protected), k)


class TestMultiplicityOneHypotheses:
    """A k = 1 atom holds on every team, so adding one to the hypotheses
    changes no answer: neither the oracle's status at D = 2 or D = 3 nor
    ``entail``'s verdict or exit code."""

    def test_an_added_y1_hypothesis_changes_nothing(self, tmp_path, capsys):
        from anonatom.cli import main
        from anonatom.syntax import format_atom

        def outcomes(sigma, goal):
            path = tmp_path / "sigma.txt"
            path.write_text("".join(format_atom(a) + "\n" for a in sigma), encoding="utf-8")
            code = main(["entail", "--sigma", str(path), "--goal", format_atom(goal)])
            document = json.loads(capsys.readouterr().out)
            statuses = [
                semantic_entails(sigma, goal, OracleConfig(domain_size=domain)).status
                for domain in (2, 3)
            ]
            return code, document.get("verdict"), statuses

        rng = random.Random(7)
        changed = []
        for i in range(300):
            kind = ("plain", "simple", "general")[i % 3]
            attrs = "abc"[: rng.randint(2, 3)]
            sigma = AtomSet.of(*(_random_atom(rng, attrs, kind) for _ in range(rng.randint(0, 3))))
            goal = _random_atom(rng, attrs, kind)
            attrs = sorted({*sigma.attributes, *goal.attributes()})  # the instance's own
            y1 = _random_atom(rng, attrs, "general", k=1)
            before = outcomes(sigma, goal)
            after = outcomes(AtomSet.of(*sigma, y1), goal)
            if after != before:
                changed.append((kind, sigma, y1, goal, before, after))
        assert changed == []
