"""One digest over the outputs of the engines, the constructions and the
oracle on a seeded sample, so that a change meant to keep them all fails
here on the first differing byte.

The sample is every 30th instance of the plain-fragment sweep (criterion
03) plus 500 random simple and general k-atom instances over 2 to 4
attributes.  Per instance the digest reads the engine's verdict, proof
tree (``to_dict``) and countermodel (schema, sorted rows, construction,
domain size), every team of ``candidate_teams``, and the oracle's status,
refuter and ``teams_checked``.  A change that alters any of them on
purpose updates ``EXPECTED`` and says so in ``CHANGES.md``.

``EXPECTED_VERDICTS`` is the digest of the same outputs with each oracle
refuter replaced by whether it refutes, so a change that only picks other
refuters leaves it as it is.
"""

import hashlib
import itertools
import json
import random

from anonatom import (
    Atom,
    AtomSet,
    OracleConfig,
    entails_anonymity,
    entails_k_saturate,
    entails_k_simple,
    semantic_entails,
)
from anonatom.countermodel import _refutes, candidate_teams
from conftest import all_normal_shapes

EXPECTED = "828ce20c30c84bc906ff583c3aea22ab2248a3fc8aa1d207758265e8d1126b72"
EXPECTED_VERDICTS = "a8c680c83cebaa2ae6abc69464409b57021bf579b64fffe7148da7e52deeec42"


def _team(team):
    return None if team is None else [team.schema.attributes, team.sorted_rows()]


def _outputs(sigma, goal, engine, configs):
    """Each output as the two digests read it: in full, and with the
    oracle's refuter replaced by whether it refutes."""
    result = engine(sigma, goal)
    report = result.countermodel
    saturated = None if result.saturated is None else len(result.saturated)
    verdict = [
        result.verdict.value,
        None if result.derivation is None else result.derivation.to_dict(),
        None if report is None else [_team(report.team), report.construction, report.domain_size],
        saturated,
    ]
    yield verdict, verdict
    candidates = [[name, _team(team)] for name, team in candidate_teams(sigma, goal)]
    yield candidates, candidates
    for cfg in configs:
        oracle = semantic_entails(sigma, goal, cfg)
        team = oracle.refuter
        yield (
            [oracle.status.value, _team(team), oracle.teams_checked],
            [oracle.status.value, team is not None and _refutes(team, sigma, goal), oracle.teams_checked],
        )


def _sweep_instances():
    shapes = [Atom(pub, prot, 2) for pub, prot in all_normal_shapes(("a", "b", "c"))]
    instances = (
        (AtomSet.of(*sigma), goal)
        for size in range(4)
        for sigma in itertools.combinations(shapes, size)
        for goal in shapes
    )
    return itertools.islice(instances, 0, None, 30)


def _random_instances(rng, count):
    for i in range(count):
        attrs = "abcd"[: rng.randint(2, 4)]
        simple = i % 2 == 0

        def side(low):
            return tuple(rng.sample(attrs, rng.randint(low, 1 if simple else 2)))

        def one():
            prot = (rng.choice(attrs),) if simple else side(1)
            return Atom(tuple(rng.sample(attrs, rng.randint(0, 2))), prot, rng.randint(1, 4))

        sigma = AtomSet.of(*(one() for _ in range(rng.randint(0, 3))))
        yield attrs, simple, sigma, one()


def test_outputs_match_the_pinned_digest():
    full, verdicts = hashlib.sha256(), hashlib.sha256()

    def add(outputs):
        for parts in outputs:
            for digest, part in zip((full, verdicts), parts):
                digest.update(json.dumps(part).encode())
                digest.update(b"\n")

    sweep = OracleConfig(domain_size=2, attribute_limit=3)
    for sigma, goal in _sweep_instances():
        add(_outputs(sigma, goal, entails_anonymity, (sweep,)))
    rng = random.Random(12)
    for attrs, simple, sigma, goal in _random_instances(rng, 500):
        cfg = OracleConfig(domain_size=3, attribute_limit=2) if len(attrs) == 2 else OracleConfig()
        rng.randrange(100)  # the seed a former second config drew: the sample stays the same
        add(_outputs(sigma, goal, entails_k_simple if simple else entails_k_saturate, (cfg,)))
    assert (full.hexdigest(), verdicts.hexdigest()) == (EXPECTED, EXPECTED_VERDICTS)
