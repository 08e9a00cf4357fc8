"""Acceptance suite: one test per criterion, each printing a pass line
(run with ``pytest tests/test_acceptance.py -v -s``)."""

import itertools
import random
import time

from anonatom import (
    Atom,
    AtomSet,
    OracleConfig,
    OracleStatus,
    Team,
    Verdict,
    anonymity_degree,
    check_anonymity,
    check_dependence,
    check_independence,
    check_k_anonymity,
    entails_anonymity,
    entails_k_simple,
    evaluate,
    extend,
    format_atom,
    format_formula,
    parse_atom,
    parse_formula,
    semantic_entails,
    verify_countermodel,
    verify_derivation,
)
from anonatom.cli import main
from anonatom.teamlogic import AndNode, AtomNode, ExistsNode, ImplNode, LiteralNode
from conftest import (
    CENSUS_ATTRS,
    CENSUS_ROWS,
    TRANSITIVITY_ATTRS,
    TRANSITIVITY_ROWS,
    all_normal_shapes,
    all_teams,
    anonymity_scan,
    random_formula,
    random_small_team,
)
from reference_checkers import (
    check_anonymity_via_inclusion,
    check_k_anonymity_existential,
    check_k_counting_variant,
)


def report(number, label, elapsed, limit):
    print(f"criterion {number:2d} ({label}): PASS [{elapsed:.2f}s, limit {limit:.0f}s]")
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s budget"


def test_criterion_01_census_goldens():
    start = time.monotonic()
    team = Team.of(CENSUS_ATTRS, CENSUS_ROWS)
    assert check_anonymity(team, ("hometown", "salary"), ("surname",))
    assert check_dependence(team, ("surname",), ("hometown", "salary"))
    assert not check_anonymity(team, ("surname",), ("hometown",))
    assert anonymity_degree(team, ("hometown", "salary"), ("surname",)) == 2
    report(1, "six-row census goldens", time.monotonic() - start, 1.0)


def test_criterion_02_transitivity_goldens():
    start = time.monotonic()
    team = Team.of(TRANSITIVITY_ATTRS, TRANSITIVITY_ROWS)
    assert check_anonymity(team, ("x",), ("y",))
    assert check_anonymity(team, ("y",), ("z",))
    assert not check_anonymity(team, ("x",), ("z",))
    sigma = AtomSet.of(Atom(("x",), ("y",)), Atom(("y",), ("z",)))
    goal = Atom(("x",), ("z",))
    result = entails_anonymity(sigma, goal)
    assert result.verdict is Verdict.NOT_DERIVABLE
    assert verify_countermodel(result.countermodel, sigma, goal)
    report(2, "anonymity does not chain", time.monotonic() - start, 1.0)


def test_criterion_03_plain_fragment_completeness_sweep():
    start = time.monotonic()
    attrs = ("a", "b", "c")
    shapes = [Atom(pub, prot, 2) for pub, prot in all_normal_shapes(attrs)]
    cfg = OracleConfig(domain_size=2, attribute_limit=3)
    instances = 0
    for size in range(0, 4):
        for sigma_atoms in itertools.combinations(shapes, size):
            sigma = AtomSet.of(*sigma_atoms)
            for goal in shapes:
                instances += 1
                engine = entails_anonymity(sigma, goal)
                oracle = semantic_entails(sigma, goal, cfg)
                assert engine.derivable == (oracle.status is OracleStatus.ENTAILED), (
                    sigma_atoms,
                    goal,
                    engine.verdict,
                    oracle.status,
                )
                if engine.derivable:
                    assert verify_derivation(engine.derivation, sigma)
                else:
                    assert verify_countermodel(engine.countermodel, sigma, goal)
    assert instances == 89_208
    report(3, f"completeness sweep over {instances} instances", time.monotonic() - start, 300.0)


def _random_sides(rng, attrs, max_len=2, min_len=0):
    return tuple(rng.choice(attrs) for _ in range(rng.randint(min_len, max_len)))


def test_criterion_04_rule_soundness():
    start = time.monotonic()
    attrs = ("a", "b", "c")
    iterations = 1000
    hits = {}

    def team_for(rng):
        return random_small_team(rng, attrs, "012", 7)

    # permutation: reordering either side changes nothing
    rng = random.Random(4001)
    hits["A1"] = 0
    for _ in range(iterations):
        team = team_for(rng)
        pub, prot = _random_sides(rng, attrs), _random_sides(rng, attrs)
        k = rng.randint(1, 3)
        if check_k_anonymity(team, pub, prot, k):
            hits["A1"] += 1
            shuffled_pub = tuple(rng.sample(pub, len(pub)))
            shuffled_prot = tuple(rng.sample(prot, len(prot)))
            assert check_k_anonymity(team, shuffled_pub, shuffled_prot, k)

    # weakening: shrink published, grow protected, lower multiplicity
    rng = random.Random(4002)
    hits["A2"] = 0
    for _ in range(iterations):
        team = team_for(rng)
        pub, prot = _random_sides(rng, attrs), _random_sides(rng, attrs)
        k = rng.randint(1, 3)
        if check_k_anonymity(team, pub, prot, k):
            hits["A2"] += 1
            kept = tuple(a for a in pub if rng.random() < 0.6)
            grown = prot + _random_sides(rng, attrs)
            assert check_k_anonymity(team, kept, grown, rng.randint(1, k))

    # cancellation: published attributes leave the protected side freely
    rng = random.Random(4003)
    hits["A3"] = 0
    for _ in range(iterations):
        team = team_for(rng)
        pub = _random_sides(rng, attrs, min_len=1)
        base = _random_sides(rng, attrs)
        extra = tuple(rng.choice(pub) for _ in range(rng.randint(1, 2)))
        mixed = list(base + extra)
        rng.shuffle(mixed)
        k = rng.randint(1, 3)
        if check_k_anonymity(team, pub, tuple(mixed), k):
            hits["A3"] += 1
            assert check_k_anonymity(team, pub, base, k)

    # empty protected side with k >= 2 forces the empty team
    rng = random.Random(4004)
    hits["A4"] = 0
    for _ in range(iterations):
        team = team_for(rng)
        pub = _random_sides(rng, attrs, min_len=1)
        prot = tuple(rng.choice(pub) for _ in range(rng.randint(0, 2)))
        if check_k_anonymity(team, pub, prot, rng.randint(2, 4)):
            hits["A4"] += 1
            assert team.is_empty

    # chain composition multiplies multiplicities
    rng = random.Random(4005)
    hits["A5"] = 0
    for _ in range(iterations):
        team = team_for(rng)
        base = tuple(rng.sample(attrs, rng.randint(0, 1)))
        rest = [a for a in attrs if a not in base]
        rng.shuffle(rest)
        links = [(rest[0],), (rest[1],)]
        ks = [rng.randint(1, 2), rng.randint(1, 2)]
        running = base
        premises_hold = True
        for side, k in zip(links, ks):
            if not check_k_anonymity(team, running, side, k):
                premises_hold = False
                break
            running = running + side
        if premises_hold:
            hits["A5"] += 1
            assert check_k_anonymity(team, base, links[0] + links[1], ks[0] * ks[1])

    assert all(count >= 50 for count in hits.values()), hits
    elapsed = time.monotonic() - start
    summary = ", ".join(f"{rule}:{count}" for rule, count in sorted(hits.items()))
    report(4, f"rule soundness ({summary} premise hits)", elapsed, 60.0)


def test_criterion_05_checker_equivalences():
    start = time.monotonic()
    sides = [(), ("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]
    checked = 0
    for team in all_teams(("a", "b"), "012", max_rows=3):
        for pub in sides:
            for prot in sides:
                direct = check_anonymity(team, pub, prot)
                assert direct == check_k_anonymity(team, pub, prot, 2)
                assert direct == check_anonymity_via_inclusion(team, pub, prot)
                assert direct == anonymity_scan(team, pub, prot)
                for k in (1, 2, 3, 4):
                    assert check_k_anonymity(team, pub, prot, k) == (
                        check_k_anonymity_existential(team, pub, prot, k)
                    )
                checked += 1
    rng = random.Random(5001)
    for _ in range(1000):
        team = random_small_team(rng, ("a", "b", "c"), "012", 8)
        pub = _random_sides(rng, ("a", "b", "c"))
        prot = _random_sides(rng, ("a", "b", "c"))
        direct = check_anonymity(team, pub, prot)
        assert direct == check_k_anonymity(team, pub, prot, 2)
        assert direct == check_anonymity_via_inclusion(team, pub, prot)
        assert direct == anonymity_scan(team, pub, prot)
        k = rng.randint(1, 4)
        assert check_k_anonymity(team, pub, prot, k) == check_k_anonymity_existential(
            team, pub, prot, k
        )
        checked += 1
    report(5, f"checker equivalences over {checked} cases", time.monotonic() - start, 120.0)


def test_criterion_06_separating_witnesses_found_by_search():
    start = time.monotonic()
    teams = list(all_teams(("a", "b"), "012", max_rows=4))

    counting_witness = next(
        (
            (team, k)
            for team in teams
            for k in (1, 2, 3)
            if check_k_counting_variant(team, ("a",), ("b",), k)
            != check_k_anonymity(team, ("a",), ("b",), k)
        ),
        None,
    )
    assert counting_witness is not None

    independence_witness = next(
        (
            team
            for team in teams
            if check_independence(team, ("a",), ("b",))
            and not check_anonymity(team, ("a",), ("b",))
        ),
        None,
    )
    assert independence_witness is not None

    downward_witness = None
    for team in teams:
        if not check_anonymity(team, ("a",), ("b",)):
            continue
        for removed in team.rows:
            sub = Team(team.schema, team.rows - {removed})
            if not sub.is_empty and not check_anonymity(sub, ("a",), ("b",)):
                downward_witness = (team, sub)
                break
        if downward_witness:
            break
    assert downward_witness is not None

    report(6, "separating witnesses found within 4-row teams", time.monotonic() - start, 10.0)


def test_criterion_07_simple_k_agreement():
    start = time.monotonic()
    rng = random.Random(7001)
    attrs = ("x", "y", "z")
    derivable = refuted = 0
    for _ in range(200):
        sigma = AtomSet.of(
            *(
                Atom(
                    tuple(rng.sample(attrs, rng.randint(0, 3))),
                    (rng.choice(attrs),),
                    rng.randint(1, 5),
                )
                for _ in range(rng.randint(0, 3))
            )
        )
        goal = Atom(
            tuple(rng.sample(attrs, rng.randint(0, 3))), (rng.choice(attrs),), rng.randint(1, 5)
        )
        result = entails_k_simple(sigma, goal)
        if result.derivable:
            derivable += 1
            assert verify_derivation(result.derivation, sigma)
        else:
            refuted += 1
            assert verify_countermodel(result.countermodel, sigma, goal)
            assert result.countermodel.domain_size <= 16
    assert derivable and refuted
    report(
        7,
        f"simple k-atoms: {derivable} proofs verified, {refuted} countermodels verified",
        time.monotonic() - start,
        120.0,
    )


def test_criterion_08_union_closure():
    start = time.monotonic()
    rng = random.Random(8001)
    attrs = ("a", "b", "c")
    pairs = 0
    while pairs < 500:
        pub = _random_sides(rng, attrs)
        prot = _random_sides(rng, attrs, min_len=1)
        k = rng.randint(1, 3)
        atom = Atom(pub, prot, k)
        teams = []
        tries = 0
        while len(teams) < 2 and tries < 300:
            tries += 1
            candidate = random_small_team(rng, attrs, "012", 6)
            if check_k_anonymity(candidate, pub, prot, k):
                teams.append(candidate)
        if len(teams) < 2:
            continue
        pairs += 1
        union = teams[0].union(teams[1])
        assert check_k_anonymity(union, pub, prot, k), (atom, teams)
    report(8, "union closure over 500 seeded pairs", time.monotonic() - start, 30.0)


def test_criterion_09_formula_fragment():
    start = time.monotonic()

    privacy_team = Team.of(
        ("publicity", "data", "address"),
        [("private", "1", "X"), ("private", "1", "Y"), ("open", "2", "Z")],
    )
    guarded = ImplNode(
        (LiteralNode("publicity", "private"),),
        AtomNode(Atom(("data",), ("address",))),
    )
    assert evaluate(privacy_team, (), guarded)

    update_team = Team.of(("data", "address"), [("1", "X"), ("1", "Y")])
    updated = ExistsNode(
        "v", AndNode((LiteralNode("v", "0"), AtomNode(Atom(("data", "v"), ("address",)))))
    )
    assert evaluate(update_team, ("0", "1"), updated)

    bodies = [
        AtomNode(Atom(("a", "v"), ("b",))),
        AtomNode(Atom(("v",), ("b",))),
        AndNode((LiteralNode("v", "0"), AtomNode(Atom(("a", "v"), ("b",))))),
        ImplNode((LiteralNode("a", "0"),), AtomNode(Atom(("v",), ("b",)))),
        LiteralNode("v", "0"),
    ]
    subset_pool = {
        1: [frozenset({"0"})],
        2: [frozenset({"0"}), frozenset({"1"}), frozenset({"0", "1"})],
    }
    disagreements = 0
    for domain in (("0",), ("0", "1")):
        subsets = subset_pool[len(domain)]
        for team in all_teams(("a", "b"), "01", max_rows=3):
            rows = team.sorted_rows()
            for body in bodies:
                expected = False
                if rows:
                    for combo in itertools.product(subsets, repeat=len(rows)):
                        extended = extend(team, "v", dict(zip(rows, combo)))
                        if evaluate(extended, domain, body):
                            expected = True
                            break
                else:
                    expected = evaluate(extend(team, "v", {}), domain, body)
                got = evaluate(team, domain, ExistsNode("v", body))
                if got != expected:
                    disagreements += 1
    assert disagreements == 0
    report(9, "formula fragment and lax existential sweep", time.monotonic() - start, 60.0)


def test_criterion_10_cli_and_round_trips(tmp_path, capsys):
    start = time.monotonic()
    sigma_path = tmp_path / "sigma.txt"
    sigma_path.write_text("x Y y\ny Y z\n", encoding="utf-8")
    cm_path = tmp_path / "cm.csv"

    code = main(
        ["entail", "--sigma", str(sigma_path), "--goal", "x Y z", "--countermodel-out", str(cm_path)]
    )
    capsys.readouterr()
    assert code == 1

    code = main(["check", "--team", str(cm_path), "--atom", "x Y z"])
    capsys.readouterr()
    assert code == 1
    for member in ("x Y y", "y Y z"):
        code = main(["check", "--team", str(cm_path), "--atom", member])
        capsys.readouterr()
        assert code == 0

    rng = random.Random(10001)
    names = ("a", "b2", "salary", "x-ray")
    for _ in range(500):
        atom = Atom(
            tuple(rng.choice(names) for _ in range(rng.randint(1, 3))),
            tuple(rng.choice(names) for _ in range(rng.randint(0, 3))),
            rng.randint(1, 9),
        )
        assert parse_atom(format_atom(atom)) == atom
    values = ("0", "1", "red", "70,000", 'qu"ote', "back\\slash")
    for _ in range(500):
        formula = random_formula(rng, names, values)
        assert parse_formula(format_formula(formula)) == formula

    report(10, "CLI countermodel round-trip and 1000 print/parse round-trips",
           time.monotonic() - start, 60.0)
