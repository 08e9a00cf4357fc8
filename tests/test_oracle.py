import itertools
import random

import pytest

from anonatom import (
    Atom,
    AtomSet,
    ConfigError,
    OracleConfig,
    OracleStatus,
    Team,
    entails_anonymity,
    entails_k_simple,
    random_team,
    satisfies,
    semantic_entails,
)
from anonatom import countermodel, inference, oracle
from anonatom.countermodel import candidate_teams
from conftest import all_normal_shapes, form


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
        with pytest.raises(ConfigError):
            OracleConfig(domain_size=3, attribute_limit=3, mode="exhaustive")
        OracleConfig(domain_size=3, attribute_limit=2, mode="exhaustive")
        OracleConfig(domain_size=3, attribute_limit=4, mode="random")

    def test_domain_size_gate(self):
        with pytest.raises(ConfigError):
            OracleConfig(domain_size=4)

    def test_mode_gate(self):
        with pytest.raises(ConfigError):
            OracleConfig(mode="clever")

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
        # no candidate construction refutes this one; the lattice holds 8 of
        # 256 refuters, all past team index 7, e.g. rows 000, 010, 100
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
    # every full grid in the oracle's grid space, the lattices of fewer than
    # 8 teams (0 and 1 attributes over 2 values) included
    @pytest.mark.parametrize("n, d", [(n, 2) for n in range(5)] + [(1, 3), (2, 3)])
    def test_row_bitmaps_match_their_definition(self, n, d):
        cache = oracle._Lattice(countermodel._grid(n, d))
        assert len(cache._containing) == d**n
        for j, containing in enumerate(cache._containing):
            # sum(1 << i for i in range(count) if i >> j & 1), written as a
            # binary numeral, highest team first, so that it builds in linear time
            bits = "".join("01"[i >> j & 1] for i in reversed(range(cache.count)))
            assert containing == int(bits, 2), (n, d, j)

    @pytest.mark.parametrize("attrs, domain", [(("a", "b"), ("0", "1", "2")), (("a", "b", "c"), ("0", "1"))])
    def test_every_normal_atom_matches_brute_force(self, attrs, domain):
        cache = oracle._Lattice(countermodel._grid(len(attrs), len(domain)))
        teams = lattice(attrs, domain)
        g = len(cache.rows)
        for a in normal_atoms(attrs, range(1, g + 3)):
            assert cache.mask(form(a, attrs)) == brute_force_mask(teams, a), a

    def test_sampled_atoms_at_four_attributes(self):
        attrs, domain = ("a", "b", "c", "d"), ("0", "1")
        cache = oracle._Lattice(countermodel._grid(len(attrs), len(domain)))
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

    def test_cache_keyed_by_shape(self):
        countermodel._grids.clear()
        first_sigma, first_goal = GRID_REFUTED[0]
        second_sigma = AtomSet.of(atom("r", "pq", 3), atom("r", "q"))
        first = semantic_entails(first_sigma, first_goal, CFG2)
        cache = countermodel._grids[(3, 2, 0, 0, 0)].lattice
        masks = len(cache._masks)
        second = semantic_entails(second_sigma, atom("p", "rq"), CFG2)
        assert countermodel._grids[(3, 2, 0, 0, 0)].lattice is cache
        assert len(cache._masks) == masks
        assert first.refuter.schema.attributes == ("a", "b", "c")
        assert second.refuter.schema.attributes == ("p", "q", "r")
        assert first.refuter.rows == second.refuter.rows
        assert refutes(second.refuter, second_sigma, atom("p", "rq"))

    def test_multiplicity_clamped_past_the_grid(self):
        attrs = ("a", "b")
        cache = oracle._Lattice(countermodel._grid(len(attrs), 2))
        assert cache.mask(form(atom("a", "b", 5), attrs)) == cache.mask(form(atom("a", "b", 50), attrs))
        assert len(cache._masks) == 1

    def test_bitmaps_live_on_the_full_grid_entry(self):
        countermodel._grids.clear()
        sigma, goal = AtomSet.of(atom("xy", "z")), atom("x", "z")
        assert semantic_entails(sigma, goal, CFG2).status is OracleStatus.ENTAILED
        full = countermodel._grids[(3, 2, 0, 0, 0)]
        assert full.lattice.grid is full
        assert [entry for entry in countermodel._grids.values() if entry.lattice] == [full]
        # no second cache keeps them: clearing the shape cache drops the bitmaps
        countermodel._grids.clear()
        assert semantic_entails(sigma, goal, CFG2).teams_checked == 256
        assert countermodel._grids[(3, 2, 0, 0, 0)].lattice not in (None, full.lattice)


class TestCanonicalRefuter:
    @pytest.mark.parametrize("sigma, goal", GRID_REFUTED)
    def test_lowest_index_refuter_and_count(self, sigma, goal):
        attrs = tuple(sorted(sigma.attributes | goal.attributes()))
        first = next(team for team in lattice(attrs, ("0", "1")) if refutes(team, sigma, goal))
        result = semantic_entails(sigma, goal, CFG2)
        assert result.status is OracleStatus.REFUTED
        assert result.refuter == first
        candidates = len(list(candidate_teams(sigma, goal)))
        assert result.teams_checked == candidates + 256


class TestRandomMode:
    def test_never_entailed(self):
        cfg = OracleConfig(domain_size=2, attribute_limit=3, mode="random", samples=40, seed=9)
        outcomes = set()
        for goal in (atom("x", "z"), atom("x", "zy")):
            # entailed goals still come back UNKNOWN in random mode
            result = semantic_entails(AtomSet.of(atom("xy", "z"), atom("x", "zy")), goal, cfg)
            outcomes.add(result.status)
        assert OracleStatus.ENTAILED not in outcomes

    def test_finds_easy_refuters(self):
        cfg = OracleConfig(domain_size=2, attribute_limit=3, mode="random", samples=200, seed=1)
        sigma = AtomSet.of(atom("y", "x"))
        # strip the candidate shortcut's chance to matter: candidates also
        # refute, so just confirm the verdict and the refuter's validity
        result = semantic_entails(sigma, atom("x", "y"), cfg)
        assert result.status is OracleStatus.REFUTED
        assert refutes(result.refuter, sigma, atom("x", "y"))


class TestRandomTeam:
    def test_zero_budget(self):
        assert random_team(("a", "b"), ("0", "1"), 0, seed=3).is_empty

    def test_same_seed_same_team(self):
        first = random_team(("a", "b"), ("0", "1", "2"), 8, seed=42)
        second = random_team(("a", "b"), ("0", "1", "2"), 8, seed=42)
        assert first == second

    def test_budget_respected(self):
        for seed in range(25):
            assert len(random_team(("a",), ("0", "1"), 5, seed=seed)) <= 5

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            random_team(("a",), ("0",), -1, seed=0)
