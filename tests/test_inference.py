import itertools
import json
import random

import pytest

from anonatom import (
    Atom,
    AtomSet,
    Derivation,
    FragmentError,
    NormalAtom,
    ResourceError,
    Rule,
    Team,
    Verdict,
    check_k_anonymity,
    entails_anonymity,
    entails_k_simple,
    entails_k_saturate,
    is_inconsistent,
    normalize,
    verify_countermodel,
    verify_derivation,
)
from anonatom import inference
from anonatom.inference import _Query, explain_derivation
from conftest import all_normal_shapes


def atom(pub, prot, k=2):
    return Atom(tuple(pub), tuple(prot), k)


class TestNormalize:
    def test_shared_attributes_cancel(self):
        norm = normalize(atom("xy", "zy"))
        assert norm.published == frozenset("xy")
        assert norm.protected == frozenset("z")

    def test_self_cancellation(self):
        norm = normalize(atom("x", "x"))
        assert norm.published == frozenset("x")
        assert norm.protected == frozenset()

    def test_already_normal(self):
        norm = normalize(atom("xy", "uz", 3))
        assert norm.published == frozenset("xy")
        assert norm.protected == frozenset("uz")
        assert norm.k == 3

    def test_duplicates_collapse(self):
        norm = normalize(atom(("x", "x"), ("y", "y")))
        assert norm.published == frozenset("x")
        assert norm.protected == frozenset("y")

    def test_positional_form(self):
        # masks over the sorted universe x, y, z; k is kept as it is (the
        # grid memo and the oracle's bitmaps clamp it to their rows + 1)
        query = _Query(AtomSet.of(atom("y", "x", 50)), atom("zx", "yxx", 3))
        assert query.attrs == ("x", "y", "z")
        assert query.goal_form == (0b101, 0b010, 3)
        assert query.hyps == ((atom("y", "x", 50), (0b010, 0b001, 50)),)

    def test_forms_are_the_bit_image_of_normalize(self):
        # The engines read forms, not ``normalize``; this checks the two
        # agree: every 3-attribute sweep shape with sides overlapping or
        # not, and random atoms with duplicate and shared names.
        subsets = [s for n in range(4) for s in itertools.combinations("abc", n)]
        atoms = [atom(pub, prot, k) for pub in subsets for prot in subsets for k in (1, 2, 3)]
        rng = random.Random(11)
        for _ in range(300):
            pub = rng.choices("abcde", k=rng.randint(0, 5))
            atoms.append(atom(pub, rng.choices("abcde", k=rng.randint(0, 5)), rng.randint(1, 6)))
        for goal in atoms:
            sigma = AtomSet.of(*rng.sample(atoms, 3))
            query = _Query(sigma, goal)
            assert query.attrs == tuple(sorted(sigma.attributes | goal.attributes()))
            bit = {a: 1 << i for i, a in enumerate(query.attrs)}

            def image(a):
                norm = normalize(a)
                return sum(map(bit.get, norm.published)), sum(map(bit.get, norm.protected)), a.k

            assert query.goal_form == image(goal), goal
            assert query.hyps == tuple((hyp, image(hyp)) for hyp in sigma.atoms)


class TestAtomSet:
    def test_attributes_computed_once(self):
        first = AtomSet.of(atom("x", "y"), atom("y", "zy"), extra_attributes=("u",))
        same = AtomSet.of(atom("x", "y"), atom("y", "zy"), extra_attributes=("u",))
        attrs = first.attributes
        assert attrs == frozenset("xyzu")
        assert first.attributes is attrs
        # the kept value takes no part in equality or hashing
        assert first == same and hash(first) == hash(same)
        assert same.attributes == attrs
        assert first == same and hash(first) == hash(same)
        assert first != AtomSet.of(atom("x", "y"), atom("y", "zy"))

    def test_sets_without_extra_attributes_share_one_empty_set(self):
        empty = AtomSet.of().extra_attributes
        assert AtomSet.of(atom("x", "y")).extra_attributes is empty
        assert AtomSet((atom("x", "y"),), frozenset()).extra_attributes is empty
        assert AtomSet.of(extra_attributes="u").extra_attributes == frozenset("u")


class TestInconsistency:
    def test_self_protecting_atom(self):
        assert is_inconsistent(AtomSet.of(atom("x", "x")))

    def test_plain_atom_consistent(self):
        assert not is_inconsistent(AtomSet.of(atom("x", "y")))

    def test_cancellation_empties_protected(self):
        assert is_inconsistent(AtomSet.of(atom("xy", "x", 3)))

    def test_k1_empty_protected_is_fine(self):
        assert not is_inconsistent(AtomSet.of(atom("x", "x", 1)))


class TestEntailsAnonymity:
    def test_no_transitivity(self):
        sigma = AtomSet.of(atom("x", "y"), atom("y", "z"))
        result = entails_anonymity(sigma, atom("x", "z"))
        assert result.verdict is Verdict.NOT_DERIVABLE
        assert verify_countermodel(result.countermodel, sigma, atom("x", "z"))

    def test_weakening(self):
        sigma = AtomSet.of(atom("xy", "z"))
        result = entails_anonymity(sigma, atom("x", "zu"))
        assert result.derivable
        assert verify_derivation(result.derivation, sigma)
        assert result.derivation.rule is Rule.MONOTONICITY

    def test_nothing_entails_anonymity(self):
        sigma = AtomSet.of()
        result = entails_anonymity(sigma, atom("x", "y"))
        assert result.verdict is Verdict.NOT_DERIVABLE
        assert verify_countermodel(result.countermodel, sigma, atom("x", "y"))

    def test_cancellation(self):
        sigma = AtomSet.of(atom("xy", "zy"))
        result = entails_anonymity(sigma, atom("xy", "z"))
        assert result.derivable
        assert verify_derivation(result.derivation, sigma)
        rules = set()
        node = result.derivation
        while node.premises:
            rules.add(node.rule)
            node = node.premises[0]
        assert Rule.CANCELLATION in rules

    def test_inconsistent_hypotheses_derive_anything(self):
        sigma = AtomSet.of(atom("x", "x"))
        result = entails_anonymity(sigma, atom("u", "v"))
        assert result.derivable
        assert result.derivation.rule is Rule.EX_FALSO
        assert verify_derivation(result.derivation, sigma)

    def test_empty_protected_goal_needs_inconsistency(self):
        sigma = AtomSet.of(atom("x", "y"))
        goal = atom("u", "u")
        result = entails_anonymity(sigma, goal)
        assert result.verdict is Verdict.NOT_DERIVABLE
        assert result.countermodel.construction == "full-grid"
        assert verify_countermodel(result.countermodel, sigma, goal)

    def test_rejects_k_atoms(self):
        with pytest.raises(FragmentError, match="entails_k"):
            entails_anonymity(AtomSet.of(), atom("x", "y", 3))
        with pytest.raises(FragmentError):
            entails_anonymity(AtomSet.of(atom("x", "y", 3)), atom("x", "y"))


class TestEntailsKSimple:
    def test_lowering_multiplicity(self):
        sigma = AtomSet.of(atom("x", "y", 5))
        result = entails_k_simple(sigma, atom("x", "y", 3))
        assert result.derivable
        assert verify_derivation(result.derivation, sigma)

    def test_raising_multiplicity_refuted(self):
        sigma = AtomSet.of(atom("x", "y", 3))
        goal = atom("x", "y", 5)
        result = entails_k_simple(sigma, goal)
        assert result.verdict is Verdict.NOT_DERIVABLE
        assert verify_countermodel(result.countermodel, sigma, goal)

    def test_k1_trivial(self):
        result = entails_k_simple(AtomSet.of(), atom("x", "y", 1))
        assert result.derivable
        assert result.derivation.rule is Rule.K1_TRIVIAL
        assert verify_derivation(result.derivation, AtomSet.of())

    def test_rejects_wide_protected_sides(self):
        with pytest.raises(FragmentError, match="simple"):
            entails_k_simple(AtomSet.of(), atom("x", "yz", 2))

    def test_goal_with_published_protected_attribute(self):
        # the protected attribute cancels away, so only the empty team
        # satisfies the goal; any nonempty model of the hypotheses refutes
        sigma = AtomSet.of(atom("x", "y", 3))
        goal = atom("xy", "y", 2)
        result = entails_k_simple(sigma, goal)
        assert result.verdict is Verdict.NOT_DERIVABLE
        assert result.countermodel.construction == "full-grid"
        assert verify_countermodel(result.countermodel, sigma, goal)

    def test_agrees_with_plain_engine_on_k2(self):
        rng = random.Random(77)
        attrs = ("x", "y", "z")
        for _ in range(500):
            sigma = AtomSet.of(
                *(
                    Atom(
                        tuple(rng.sample(attrs, rng.randint(0, 3))),
                        (rng.choice(attrs),),
                        2,
                    )
                    for _ in range(rng.randint(0, 3))
                )
            )
            goal = Atom(tuple(rng.sample(attrs, rng.randint(0, 3))), (rng.choice(attrs),), 2)
            assert entails_k_simple(sigma, goal).verdict == entails_anonymity(sigma, goal).verdict


class TestSaturation:
    def test_chain_composition(self):
        sigma = AtomSet.of(atom("x", "y", 2), atom("xy", "z", 3))
        result = entails_k_saturate(sigma, atom("x", "yz", 6))
        assert result.derivable
        assert verify_derivation(result.derivation, sigma)

        def rules(node):
            yield node.rule
            for premise in node.premises:
                yield from rules(premise)

        assert Rule.COMPOSITION in set(rules(result.derivation))

    def test_permutation_only(self):
        sigma = AtomSet.of(atom("xy", "z", 4))
        result = entails_k_saturate(sigma, atom("yx", "z", 4))
        assert result.derivable
        assert verify_derivation(result.derivation, sigma)

    @pytest.mark.parametrize("hyp", [atom("x", "y", 3), atom("x", "xy", 3)])
    def test_capped_hypothesis_gives_verified_tree(self, hyp):
        # the hypothesis's multiplicity is capped at the goal's, so the tree
        # must lower it by weakening, not by permutation or cancellation
        sigma = AtomSet.of(hyp)
        result = entails_k_saturate(sigma, atom("x", "y", 2))
        assert result.derivable
        assert verify_derivation(result.derivation, sigma)

    def test_unreachable_goal_is_unknown(self):
        result = entails_k_saturate(AtomSet.of(), atom("x", "y", 3))
        assert result.verdict is Verdict.UNKNOWN
        assert result.saturated is not None

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr(inference, "MAX_SATURATION_STEPS", 5)
        sigma = AtomSet.of(atom("abcdef"[:3], "d", 2), atom("ab", "e", 2))
        with pytest.raises(ResourceError, match="budget"):
            entails_k_saturate(sigma, atom("a", "bcdef", 32))

    def test_multiplicity_one_goal(self):
        result = entails_k_saturate(AtomSet.of(), atom("x", "y", 1))
        assert result.derivable

    def test_agrees_with_subsumption_on_plain_fragment(self):
        # saturation (weakening + composition) proves exactly the
        # subsumption-derivable plain and simple goals on small universes
        attrs = ("a", "b", "c")
        shapes = [atom(pub, prot) for pub, prot in all_normal_shapes(attrs)]
        published = sorted({pub for pub, _ in all_normal_shapes(attrs)})
        simple = [atom(pub, p, k) for pub in published for p in attrs for k in (2, 3, 4)]
        rng = random.Random(5)
        for fragment, engine, pool in (
            (shapes, entails_anonymity, 120),
            (simple, entails_k_simple, 40),
        ):
            sigmas = [AtomSet.of()]
            sigmas += [AtomSet.of(s) for s in fragment]
            sigmas += [AtomSet.of(*rng.sample(fragment, 2)) for _ in range(pool)]
            for sigma in sigmas:
                for goal in fragment:
                    expected = engine(sigma, goal).derivable
                    got = entails_k_saturate(sigma, goal)
                    assert got.derivable == expected, (sigma.atoms, goal)
                    if got.derivable:
                        assert verify_derivation(got.derivation, sigma)

    def test_closure_holds_no_k1_atoms(self):
        # k = 1 goals are settled up front, so nothing seeds the closure with
        # the 3^|W| trivially true Y1 atoms, at 8 attributes or any other size
        names = [f"a{i}" for i in range(6)]
        result = entails_k_saturate(
            AtomSet.of(extra_attributes=(*names, "x", "y")), atom("x", "y", 3)
        )
        assert result.verdict is Verdict.UNKNOWN
        assert result.saturated == frozenset()
        sigma = AtomSet.of(atom("x", "y", 1), atom("x", "z", 3), extra_attributes=names)
        result = entails_k_saturate(sigma, atom("x", "yz", 6))
        assert result.verdict is Verdict.UNKNOWN
        assert result.saturated and all(n.k > 1 for n in result.saturated)


def _tree(rule, published, protected, k, *premises):
    return {"rule": rule, "conclusion": {"published": list(published),
                                         "protected": list(protected), "k": k},
            "premises": list(premises)}


# Fixed instances at 6 to 8 attributes, with the closure size and the proof
# tree that saturation gives for each.  The search order decides which of
# several proofs is found, so these pin that order as well as the verdicts.
_PINNED_SATURATIONS = [
    pytest.param(
        AtomSet.of(atom("ab", "cd"), atom("abcd", "e", 3), extra_attributes="f"),
        atom("a", "cde", 6), 180,
        _tree("A2", "a", "cde", 6, _tree("A5", "ab", "cde", 6,
                                         _tree("hyp", "ab", "cd", 2),
                                         _tree("hyp", "abcd", "e", 3))),
        id="composition-6",
    ),
    pytest.param(
        AtomSet.of(atom("ab", "c"), atom("abc", "d"), atom("abcd", "e", 3), atom("fg", "a")),
        atom("a", "bcde", 12), 556,
        _tree("A2", "a", "bcde", 12, _tree(
            "A5", "ab", "cde", 12,
            _tree("hyp", "ab", "c", 2),
            _tree("A5", "abc", "de", 6,
                  _tree("hyp", "abc", "d", 2), _tree("hyp", "abcd", "e", 3)),
        )),
        id="nested-composition-7",
    ),
    pytest.param(
        AtomSet.of(atom("abc", "de", 3), atom("fg", "h"), atom("ab", "cf")),
        atom("a", "def"), 556,
        _tree("A2", "a", "def", 2, _tree("A2", "ab", "def", 2, _tree(
            "A2", "abc", "def", 2,
            _tree("A2", "abc", "de", 2, _tree("hyp", "abc", "de", 3)),
        ))),
        id="weakening-8",
    ),
    pytest.param(
        AtomSet.of(atom("abc", "d", 3), atom("abcd", "e", 3), atom("h", "ga")),
        atom("ab", "cde", 5), 456,
        _tree("A2", "ab", "cde", 5, _tree("A2", "abc", "de", 5, _tree(
            "A5", "abc", "de", 9,
            _tree("hyp", "abc", "d", 3), _tree("hyp", "abcd", "e", 3),
        ))),
        id="capped-composition-8",
    ),
    pytest.param(
        AtomSet.of(atom("ab", "cd"), atom("cd", "ef", 3), atom("e", "g")),
        atom("a", "g"), 204, None, id="unknown-7",
    ),
    pytest.param(
        AtomSet.of(atom("ab", "cd"), atom("abcd", "ef", 3), atom("gh", "a")),
        atom("a", "cdef", 7), 664, None, id="unknown-8",
    ),
]


@pytest.mark.parametrize("sigma, goal, closure, tree", _PINNED_SATURATIONS)
def test_saturation_outputs_are_pinned(sigma, goal, closure, tree):
    result = entails_k_saturate(sigma, goal)
    assert len(result.saturated) == closure
    if tree is None:
        assert result.verdict is Verdict.UNKNOWN
        assert result.derivation is None
    else:
        assert result.verdict is Verdict.DERIVABLE
        assert result.derivation.to_dict() == tree
        assert verify_derivation(result.derivation, sigma)


def _normal(pub, prot, k):
    return NormalAtom(frozenset(pub), frozenset(prot), k)


def _count_runs(monkeypatch):
    """A list that gets one entry per ``_Saturation.run`` call."""
    runs = []
    run = inference._Saturation.run
    monkeypatch.setattr(inference._Saturation, "run",
                        lambda self, *goal: runs.append(goal) or run(self, *goal))
    return runs


class TestSaturatedSet:
    # x Y3 y, xy Y z |- x Y6 yz: the whole closure, captured from the
    # eager implementation that built the set on every call
    SIGMA = AtomSet.of(atom("x", "y", 3), atom("xy", "z"))
    GOAL = atom("x", "yz", 6)
    CLOSURE = frozenset({
        _normal("", "xy", 3), _normal("", "xyz", 6), _normal("", "xz", 2),
        _normal("", "y", 3), _normal("", "yz", 6), _normal("", "z", 2),
        _normal("x", "y", 3), _normal("x", "yz", 6), _normal("x", "z", 2),
        _normal("xy", "z", 2), _normal("y", "xz", 2), _normal("y", "z", 2),
    })

    def test_closure_is_pinned(self):
        result = entails_k_saturate(self.SIGMA, self.GOAL)
        assert result.verdict is Verdict.DERIVABLE
        assert result.saturated == self.CLOSURE

    @pytest.mark.parametrize("goal, tree_calls", [
        (GOAL, True),  # the proof tree's conclusions take names too
        (atom("z", "xy", 2), False),  # Unknown: nothing is named before the read
    ])
    def test_set_is_built_on_first_read(self, monkeypatch, goal, tree_calls):
        calls = []
        names = _Query.names
        monkeypatch.setattr(_Query, "names",
                            lambda self, mask: calls.append(mask) or names(self, mask))
        runs = _count_runs(monkeypatch)
        result = entails_k_saturate(self.SIGMA, goal)
        before = len(calls)
        assert bool(before) == tree_calls
        # the tree comes from a run that stopped at the goal; the Unknown is
        # settled up front (no hypothesis publishes z), with no run at all
        assert len(runs) == int(tree_calls)
        saturated = result.saturated  # two names per atom, on this read only
        assert len(calls) - before == 2 * len(saturated)
        assert len(runs) == int(tree_calls) + 1  # the first read runs in full once
        assert result.saturated is saturated  # kept: the second read builds nothing
        assert len(calls) - before == 2 * len(saturated)
        assert len(runs) == int(tree_calls) + 1

    @pytest.mark.parametrize("engine, sigma, goal", [
        (entails_anonymity, AtomSet.of(atom("xy", "z")), atom("x", "z")),
        (entails_anonymity, AtomSet.of(atom("x", "y")), atom("y", "x")),
        (entails_k_simple, AtomSet.of(atom("x", "y", 3)), atom("x", "y", 2)),
        (entails_k_simple, AtomSet.of(atom("x", "y", 2)), atom("x", "y", 3)),
        # settled before any closure is built
        (entails_k_saturate, AtomSet.of(), atom("x", "y", 1)),
        (entails_k_saturate, AtomSet.of(atom("x", "x", 2)), atom("x", "y", 3)),
    ])
    def test_no_closure_gives_none(self, engine, sigma, goal):
        assert engine(sigma, goal).saturated is None


def _general_instance(rng, n_attrs, variant):
    """A k-atom instance in the shape of the benchmark's general instances:
    four hypotheses that each publish two attributes and protect two, with
    k 2 or 3; even variants weaken a planted two-link chain, odd variants
    draw the goal at random."""
    names = [f"a{i}" for i in range(n_attrs)]
    hyps = []
    for j in range(4):
        picked = rng.sample(names, 4)
        hyps.append(Atom(tuple(picked[:2]), tuple(picked[2:]), 2 + j % 2))
    if variant % 2 == 0:
        first = hyps[0]
        rest = [a for a in names if a not in first.published + first.protected]
        second = tuple(rng.sample(rest, min(2, len(rest))))
        hyps[1] = Atom(first.published + first.protected, second, 2)
        k = 2 * first.k if variant % 4 == 0 else 3
        goal = Atom(first.published[:1], first.protected + second, k)
    else:
        picked = rng.sample(names, 4)
        goal = Atom(tuple(picked[:2]), tuple(picked[2:]), 3 + variant // 2 % 2)
    return AtomSet(tuple(hyps), frozenset(names)), goal


def _eager(sigma, goal):
    """The eager reference: seed, run to completion, then look at the goal.
    Gives the verdict, the tree as a dict, the closure as normal atoms, and
    the query and its ``best``."""
    query = _Query(sigma, goal)
    sat = inference._Saturation(query)
    for hyp, (published, protected, k) in query.hyps:
        if k > 1:
            sat.offer((published, protected), k, ("hyp", hyp))
    sat.run()
    closure = frozenset(NormalAtom(query.names(p), query.names(r), k)
                        for (p, r), k in sat.best.items())
    key = query.goal_form[:2]
    if sat.best.get(key, 0) >= goal.k:
        tree = inference._restate(sat.rebuild((*key, sat.best[key])), goal).to_dict()
        return Verdict.DERIVABLE, tree, closure, query, sat.best
    return Verdict.UNKNOWN, None, closure, query, sat.best


def _differential_sample():
    rng = random.Random(2025)
    sample = [_general_instance(rng, n, i) for n in (5, 6, 7, 8) for i in range(24)]
    return sample + [tuple(p.values[:2]) for p in _PINNED_SATURATIONS]


class TestGoalDirectedSaturation:
    SAMPLE = _differential_sample()

    def test_agrees_with_the_eager_reference(self, monkeypatch):
        runs = _count_runs(monkeypatch)
        classes = set()
        for sigma, goal in self.SAMPLE:
            verdict, tree, closure, _, _ = _eager(sigma, goal)
            runs.clear()
            result = entails_k_saturate(sigma, goal)
            answering_runs = len(runs)
            assert result.verdict is verdict, (sigma.atoms, goal)
            got_tree = None if result.derivation is None else result.derivation.to_dict()
            assert got_tree == tree, (sigma.atoms, goal)
            assert result.saturated == closure, (sigma.atoms, goal)
            if verdict is Verdict.DERIVABLE:
                assert verify_derivation(result.derivation, sigma)
                classes.add("derivable")
            elif answering_runs == 0:
                classes.add("unknown up front")
            else:
                assert len(runs) == answering_runs  # the read reused the full run
                classes.add("unknown after a full run")
        assert classes == {"derivable", "unknown up front", "unknown after a full run"}

    def test_multiplicity_one_hypotheses_seed_nothing(self, monkeypatch):
        # z Y1 x publishes the goal's z, but no Y1 atom enters the closure,
        # so the goal is still settled up front
        runs = _count_runs(monkeypatch)
        sigma = AtomSet.of(atom("x", "y", 3), atom("z", "x", 1))
        result = entails_k_saturate(sigma, atom("z", "y", 3))
        assert result.verdict is Verdict.UNKNOWN and not runs
        assert result.saturated == _eager(sigma, atom("z", "y", 3))[2]

    def test_closure_publishes_inside_some_seed(self):
        # weakening shrinks a published side and composition keeps its first
        # link's, so every closure key publishes inside a seed's published side
        for sigma, goal in self.SAMPLE:
            _, _, _, query, best = _eager(sigma, goal)
            seeds = [p for _, (p, _, k) in query.hyps if k > 1]
            for published, _ in best:
                assert any(not published & ~seed for seed in seeds), (sigma.atoms, goal)


class TestSaturationBudget:
    # composition-6 reaches its goal in 2 steps; its full closure takes 180
    SIGMA = AtomSet.of(atom("ab", "cd"), atom("abcd", "e", 3), extra_attributes="f")
    BUDGET = 10

    def test_goal_before_the_budget_answers_and_the_read_raises(self, monkeypatch):
        monkeypatch.setattr(inference, "MAX_SATURATION_STEPS", self.BUDGET)
        result = entails_k_saturate(self.SIGMA, atom("a", "cde", 6))
        assert result.verdict is Verdict.DERIVABLE
        assert result.derivation.to_dict() == _PINNED_SATURATIONS[0].values[3]
        with pytest.raises(ResourceError, match="budget"):
            result.saturated

    def test_unknown_up_front_raises_only_on_read(self, monkeypatch):
        monkeypatch.setattr(inference, "MAX_SATURATION_STEPS", self.BUDGET)
        result = entails_k_saturate(self.SIGMA, atom("f", "a", 3))  # f is published by no hypothesis
        assert result.verdict is Verdict.UNKNOWN
        with pytest.raises(ResourceError, match="budget"):
            result.saturated

    def test_cli_exits_two_on_an_unknown_past_the_budget(self, monkeypatch, tmp_path, capsys):
        from anonatom.cli import main

        monkeypatch.setattr(inference, "MAX_SATURATION_STEPS", self.BUDGET)
        path = tmp_path / "sigma.txt"
        path.write_text("a b Y c d\na b c d Y3 e\n", encoding="utf-8")
        code = main(["entail", "--sigma", str(path), "--goal", "f Y3 a"])  # neither fragment
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ResourceError"


def _leaf(pub, prot, k=2):
    return Derivation(Rule.HYPOTHESIS, atom(pub, prot, k))


# Hand-built illegal trees over the hypotheses x Y y and xy Y z, each with
# the message of the first illegal step and its path.
_BAD_TREES = {
    "hyp-with-premises": (
        Derivation(Rule.HYPOTHESIS, atom("x", "y"), (_leaf("x", "y"),)),
        "root: hypothesis leaves take no premises",
    ),
    "k1-with-premises": (
        Derivation(Rule.K1_TRIVIAL, atom("x", "y", 1), (_leaf("x", "y"),)),
        "root: k1-trivial leaves take no premises",
    ),
    "k1-with-k2": (
        Derivation(Rule.K1_TRIVIAL, atom("x", "y")),
        "root: k1-trivial conclusion must have multiplicity 1",
    ),
    "ex-falso-two-premises": (
        Derivation(Rule.EX_FALSO, atom("u", "v"), (_leaf("x", "y"), _leaf("xy", "z"))),
        "root: ex-falso takes exactly one premise",
    ),
    "A4-no-premise": (
        Derivation(Rule.EMPTY_PROTECTED, atom("u", "v")),
        "root: A4 takes exactly one premise",
    ),
    "ex-falso-consistent-premise": (
        Derivation(Rule.EX_FALSO, atom("u", "v"), (_leaf("x", "y"),)),
        "root: ex-falso premise must cancel to an empty protected side with k >= 2",
    ),
    "A1-no-premise": (
        Derivation(Rule.PERMUTATION, atom("x", "y")),
        "root: A1 takes exactly one premise",
    ),
    "A2-two-premises": (
        Derivation(Rule.MONOTONICITY, atom("x", "y"), (_leaf("x", "y"), _leaf("x", "y"))),
        "root: A2 takes exactly one premise",
    ),
    "permutation-swaps-sides": (
        Derivation(Rule.PERMUTATION, atom("y", "x"), (_leaf("x", "y"),)),
        "root: permutation must preserve both attribute sets and the multiplicity",
    ),
    "composition-one-link": (
        Derivation(Rule.COMPOSITION, atom("x", "y"), (_leaf("x", "y"),)),
        "root: composition takes at least two premises",
    ),
    "composition-published-side": (
        Derivation(Rule.COMPOSITION, atom("xy", "z", 4), (_leaf("x", "y"), _leaf("xy", "z"))),
        "root: composition must publish what its first link publishes",
    ),
    "composition-protected-union": (
        Derivation(Rule.COMPOSITION, atom("x", "z", 4), (_leaf("x", "y"), _leaf("xy", "z"))),
        "root: composition must protect the union of its links' protected sides",
    ),
    "unknown-rule": (
        Derivation("A6", atom("x", "y"), (_leaf("x", "y"),)),
        "root: unknown rule 'A6'",
    ),
    "failing-premise": (
        Derivation(Rule.MONOTONICITY, atom("", "y"), (
            Derivation(Rule.PERMUTATION, atom("x", "y"), (_leaf("u", "v"),)),
        )),
        "root.premises[0].premises[0]: Atom(published=('u',), protected=('v',), k=2) "
        "is not a hypothesis",
    ),
}


class TestVerifyDerivation:
    @pytest.mark.parametrize("tree, message", _BAD_TREES.values(), ids=_BAD_TREES)
    def test_illegal_step_is_located(self, tree, message):
        sigma = AtomSet.of(atom("x", "y"), atom("xy", "z"))
        assert not verify_derivation(tree, sigma)
        assert explain_derivation(tree, sigma) == message

    def test_perturbed_conclusion_rejected(self):
        sigma = AtomSet.of(atom("xy", "z"))
        result = entails_anonymity(sigma, atom("x", "zu"))
        tree = result.derivation
        tampered = Derivation(tree.rule, Atom(tree.conclusion.published, tree.conclusion.protected, 3), tree.premises)
        assert not verify_derivation(tampered, sigma)
        assert explain_derivation(tampered, sigma) is not None

    def test_unknown_hypothesis_rejected(self):
        sigma = AtomSet.of(atom("x", "y"))
        leaf = Derivation(Rule.HYPOTHESIS, atom("u", "v"))
        message = explain_derivation(leaf, sigma)
        assert message is not None and "hypothesis" in message

    def test_hand_built_composition_chain(self):
        sigma = AtomSet.of(atom("x", "y", 2), atom("xy", "z", 3), atom("xyz", "u", 2))
        tree = Derivation(
            Rule.COMPOSITION,
            atom("x", "yzu", 12),
            (
                Derivation(Rule.HYPOTHESIS, atom("x", "y", 2)),
                Derivation(Rule.HYPOTHESIS, atom("xy", "z", 3)),
                Derivation(Rule.HYPOTHESIS, atom("xyz", "u", 2)),
            ),
        )
        assert verify_derivation(tree, sigma)
        wrong_product = Derivation(Rule.COMPOSITION, atom("x", "yzu", 11), tree.premises)
        assert not verify_derivation(wrong_product, sigma)
        broken_chain = Derivation(
            Rule.COMPOSITION,
            atom("x", "yu", 4),
            (
                Derivation(Rule.HYPOTHESIS, atom("x", "y", 2)),
                Derivation(Rule.HYPOTHESIS, atom("xyz", "u", 2)),
            ),
        )
        assert not verify_derivation(broken_chain, sigma)

    def test_cancellation_must_come_from_published(self):
        sigma = AtomSet.of(atom("x", "yz"))
        tree = Derivation(
            Rule.CANCELLATION, atom("x", "y"), (Derivation(Rule.HYPOTHESIS, atom("x", "yz")),)
        )
        assert not verify_derivation(tree, sigma)  # z is not published

    def test_serialization_round_trip(self):
        sigma = AtomSet.of(atom("x", "y", 2), atom("xy", "z", 3))
        result = entails_k_saturate(sigma, atom("x", "yz", 6))
        redone = Derivation.from_dict(result.derivation.to_dict())
        assert redone == result.derivation
        assert verify_derivation(redone, sigma)


def _random_sequences(rng, attrs, max_len=2):
    return tuple(rng.choice(attrs) for _ in range(rng.randint(0, max_len)))


class TestRuleSoundness:
    """Premise-true implies conclusion-true, on random teams (a fuller
    sweep runs in the acceptance suite)."""

    ATTRS = ("a", "b", "c")

    def _team(self, rng):
        count = rng.randint(0, 7)
        rows = {tuple(rng.choice("012") for _ in self.ATTRS) for _ in range(count)}
        return Team.of(self.ATTRS, rows)

    def test_weakening_sound(self):
        rng = random.Random(300)
        hits = 0
        for _ in range(300):
            team = self._team(rng)
            pub = _random_sequences(rng, self.ATTRS)
            prot = _random_sequences(rng, self.ATTRS)
            k = rng.randint(1, 3)
            if not check_k_anonymity(team, pub, prot, k):
                continue
            hits += 1
            sub_pub = tuple(a for a in pub if rng.random() < 0.6)
            extra = _random_sequences(rng, self.ATTRS)
            lower = rng.randint(1, k)
            assert check_k_anonymity(team, sub_pub, prot + extra, lower)
        assert hits > 30

    def test_composition_sound(self):
        rng = random.Random(301)
        hits = 0
        for _ in range(400):
            team = self._team(rng)
            base = tuple(rng.sample(self.ATTRS, rng.randint(0, 1)))
            rest = [a for a in self.ATTRS if a not in base]
            rng.shuffle(rest)
            first, second = (rest[0],), (rest[1],)
            k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
            if check_k_anonymity(team, base, first, k1) and check_k_anonymity(
                team, base + first, second, k2
            ):
                hits += 1
                assert check_k_anonymity(team, base, first + second, k1 * k2)
        assert hits > 50
