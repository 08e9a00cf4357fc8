"""The derivability relation for anonymity atoms.

Hypotheses and goals are ``Atom`` values; entailment questions are asked
against an ``AtomSet``.  Three engines cover three fragments:

* ``entails_anonymity`` (the plain, k = 2 fragment) and
  ``entails_k_simple`` (one protected attribute, any k) decide their
  fragments completely by one rule: a goal follows exactly when it is
  trivial (k = 1), the hypothesis set is inconsistent, or, after
  normalization, some hypothesis publishes at least the goal's
  attributes, protects a subset of its protected attributes, and has at
  least its multiplicity.
* ``entails_k_saturate`` is a sound saturation for arbitrary k-atoms.
  It closes the hypothesis set under the axioms (permutation and
  cancellation are absorbed into normal forms, weakening moves shrink
  the published side and grow the protected side, and chain composition
  multiplies multiplicities).  It answers Derivable or Unknown, never
  NotDerivable, since no completeness guarantee exists for this
  fragment.

Positive answers carry a ``Derivation`` tree that an independent
verifier (``verify_derivation``) can re-check; negative answers carry a
machine-verified countermodel built in :mod:`anonatom.countermodel`.

Derivation steps are checked at the set level: each rule's legality is
insensitive to attribute order and duplicates, which matches the
semantics (grouping ignores both).

Each engine or oracle call puts its question in normal form once, as a
``_Query`` (:mod:`anonatom.query`) that every layer reads; ``normalize``
gives the same form over attribute names, for callers and for the
verifier.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from ._value import Value, _set
from .atoms import Atom
from .countermodel import CountermodelReport, _refuter, _verified
from .errors import FragmentError, ResourceError
from .query import AtomSet, NormalAtom, _inconsistent_member, _Query, _subsuming, normalize


class Rule(str, Enum):
    HYPOTHESIS = "hyp"
    PERMUTATION = "A1"
    MONOTONICITY = "A2"
    CANCELLATION = "A3"
    EMPTY_PROTECTED = "A4"
    COMPOSITION = "A5"
    EX_FALSO = "ex-falso"
    K1_TRIVIAL = "k1-trivial"


class Derivation(Value):
    """A proof tree: leaves are hypotheses (or trivially-true k = 1 atoms),
    internal nodes apply one named rule."""

    _fields = ("rule", "conclusion", "premises")
    rule: Rule
    conclusion: Atom
    premises: tuple[Derivation, ...]

    def __init__(self, rule: Rule, conclusion: Atom, premises: tuple[Derivation, ...] = ()) -> None:
        _set(self, "rule", rule)
        _set(self, "conclusion", conclusion)
        _set(self, "premises", premises)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "conclusion": _atom_to_dict(self.conclusion),
            "premises": [p.to_dict() for p in self.premises],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Derivation":
        return cls(
            Rule(data["rule"]),
            _atom_from_dict(data["conclusion"]),
            tuple(cls.from_dict(p) for p in data.get("premises", ())),
        )


def _atom_to_dict(atom: Atom) -> dict:
    return {"published": list(atom.published), "protected": list(atom.protected), "k": atom.k}


def _atom_from_dict(data: dict) -> Atom:
    return Atom(tuple(data["published"]), tuple(data["protected"]), int(data["k"]))


class Verdict(str, Enum):
    DERIVABLE = "derivable"
    NOT_DERIVABLE = "not-derivable"
    UNKNOWN = "unknown"


class Entailment(Value):
    """An engine's answer: the verdict, with a proof tree when Derivable
    and a countermodel when NotDerivable.

    ``saturated`` is the whole closure of ``entails_k_saturate``'s
    hypotheses, as a set of normal atoms; the complete engines, and
    saturation answers settled before any closure is built (k = 1 goals,
    inconsistent hypotheses), give None.  It is computed on first read and
    then kept: from the answering run's ``best`` when that run completed,
    otherwise (the run stopped at the goal, or the answer came before any
    run) by one full saturation, which may raise ``ResourceError``.  A
    caller that never reads it never pays for it.  It takes no part in
    equality.
    """

    _fields = ("verdict", "derivation", "countermodel")
    verdict: Verdict
    derivation: Derivation | None
    countermodel: CountermodelReport | None
    _closure: tuple[_Query, dict[_Key, int] | None] | None

    def __init__(
        self,
        verdict: Verdict,
        derivation: Derivation | None = None,
        countermodel: CountermodelReport | None = None,
        _closure: tuple[_Query, dict[_Key, int] | None] | None = None,
    ) -> None:
        _set(self, "verdict", verdict)
        _set(self, "derivation", derivation)
        _set(self, "countermodel", countermodel)
        _set(self, "_closure", _closure)

    @cached_property
    def saturated(self) -> frozenset[NormalAtom] | None:
        if self._closure is None:
            return None
        query, best = self._closure
        if best is None:
            sat = _seeded(query)
            sat.run()
            best = sat.best
        names = query.names
        return frozenset(NormalAtom(names(p), names(r), k) for (p, r), k in best.items())

    @property
    def derivable(self) -> bool:
        return self.verdict is Verdict.DERIVABLE


def is_inconsistent(sigma: AtomSet) -> bool:
    """True iff some hypothesis cancels to an empty protected side with
    k >= 2; such a set is satisfied by the empty team only."""
    # a goal over no attributes adds none to the universe
    return _inconsistent_member(_Query(sigma, Atom((), ())).hyps) is not None


def _ex_falso(goal: Atom, bad: Atom) -> Derivation:
    return Derivation(Rule.EX_FALSO, goal, (Derivation(Rule.HYPOTHESIS, bad),))


def _restate(node: Derivation, goal: Atom) -> Derivation:
    """``node`` extended to conclude ``goal``: by a pure permutation when
    nothing changes set-wise, otherwise by weakening."""
    c = node.conclusion
    if c == goal:
        return node
    same = set(c.published) == set(goal.published) and set(c.protected) == set(goal.protected)
    rule = Rule.PERMUTATION if same and c.k == goal.k else Rule.MONOTONICITY
    return Derivation(rule, goal, (node,))


def _weakening(hyp: Atom, goal: Atom) -> Derivation:
    """Derivation of ``goal`` from a subsuming hypothesis: cancellation
    first if shared attributes must go, then ``_restate``."""
    node = Derivation(Rule.HYPOTHESIS, hyp)
    pub_set = set(hyp.published)
    cancelled = tuple(a for a in hyp.protected if a not in pub_set)
    if cancelled != hyp.protected:
        node = Derivation(Rule.CANCELLATION, Atom(hyp.published, cancelled, hyp.k), (node,))
    return _restate(node, goal)


def _settled(query: _Query) -> Entailment | None:
    """The answer every engine gives before looking further: k = 1 goals
    hold trivially, and an inconsistent hypothesis set derives anything."""
    goal = query.goal
    if goal.k == 1:
        return Entailment(Verdict.DERIVABLE, derivation=Derivation(Rule.K1_TRIVIAL, goal))
    bad = _inconsistent_member(query.hyps)
    if bad is not None:
        return Entailment(Verdict.DERIVABLE, derivation=_ex_falso(goal, bad))
    return None


def _decide(sigma: AtomSet, goal: Atom) -> Entailment:
    """The complete decision shared by the plain and the simple fragment;
    ``countermodel._refuter`` builds the refuter of a goal that does not
    follow, so both engines return the same countermodel on an instance in
    both fragments."""
    query = _Query(sigma, goal)
    settled = _settled(query)
    if settled is not None:
        return settled
    hyp = _subsuming(query.hyps, query.goal_form)
    if hyp is not None:
        return Entailment(Verdict.DERIVABLE, derivation=_weakening(hyp, goal))
    report = _verified(_refuter(query), query, "grid")
    return Entailment(Verdict.NOT_DERIVABLE, countermodel=report)


def entails_anonymity(sigma: AtomSet, goal: Atom) -> Entailment:
    """Decide the plain-anonymity fragment (every multiplicity is 2).

    Derivable answers carry a hypothesis/cancellation/weakening tree;
    NotDerivable answers carry a verified countermodel team.
    """
    if goal.k != 2:
        raise FragmentError(
            f"goal has multiplicity {goal.k}; use entails_k_simple or entails_k_saturate"
        )
    for atom in sigma.atoms:
        if atom.k != 2:
            raise FragmentError(
                f"hypothesis {atom} has multiplicity {atom.k}; "
                "use entails_k_simple or entails_k_saturate"
            )
    return _decide(sigma, goal)


def entails_k_simple(sigma: AtomSet, goal: Atom) -> Entailment:
    """Decide entailment for simple atoms (single protected attribute,
    arbitrary multiplicities)."""
    for atom in (*sigma.atoms, goal):
        if not atom.is_simple:
            raise FragmentError(
                f"{atom} is not simple (one protected attribute); use entails_k_saturate"
            )
    return _decide(sigma, goal)


# Saturation bookkeeping: per (published, protected) pair we keep the best
# multiplicity reached (capped at the goal's, which weakening justifies)
# and, per reached triple, how it was derived.
_Key = tuple[int, int]
_Triple = tuple[int, int, int]


# A longer saturation raises ResourceError.  The budget bounds each run on
# its own: the run that answers, which stops at the goal, and the full run
# that a first read of ``Entailment.saturated`` makes when the answering run
# did not complete.  So an answer may come back, and the read then raise.
MAX_SATURATION_STEPS = 100_000


class _Saturation:
    # Attribute sets are the query's int bitmasks over the sorted universe,
    # so a published side is an int and a key is a pair of ints.  The
    # weakening loop walks the bits from low to high, which is the
    # sorted-name order, and every other walk follows dict insertion order,
    # never set iteration order; so the proof found does not depend on
    # string hashing (PYTHONHASHSEED).  Names come back only through
    # ``query.names``, for the proof tree and the saturated set.  An
    # ``Entailment`` keeps the query, and ``best`` when the run completed;
    # the proofs, queue and indices live here, so they are freed once the
    # answer is built.
    def __init__(self, query: _Query):
        self.query = query
        self.cap = query.goal.k
        self.best: dict[_Key, int] = {}
        self.proofs: dict[_Triple, tuple] = {}
        self.by_published: dict[int, dict[_Key, None]] = {}
        self.by_closure: dict[int, dict[_Key, None]] = {}
        self.queue: list[_Triple] = []
        self.steps = 0

    def offer(self, key: _Key, k: int, proof: tuple) -> None:
        if k > self.cap:
            k = self.cap
        if self.best.get(key, 0) >= k:
            return
        self.best[key] = k
        pub, prot = key
        triple = (pub, prot, k)
        self.proofs[triple] = proof
        self.queue.append(triple)
        self.by_published.setdefault(pub, {})[key] = None
        self.by_closure.setdefault(pub | prot, {})[key] = None

    def run(self, goal: _Key | None = None) -> None:
        """Saturate, or with a ``goal`` key stop once it reaches the cap.

        Stopping early leaves the goal's tree as a full run finds it:
        ``offer`` writes a triple's proof only when ``best`` rises to it
        and ``best`` never falls, so each proof is written once, and the
        capped goal key takes no later rise.
        """
        best, queue, offer = self.best, self.queue, self.offer
        by_published, by_closure = self.by_published, self.by_closure
        bits = [1 << i for i in range(len(self.query.attrs))]
        max_steps = MAX_SATURATION_STEPS
        cap = self.cap  # at least 2, and ``best`` has no key None: a full run empties the queue
        while queue and best.get(goal, 0) < cap:
            self.steps += 1
            if self.steps > max_steps:
                raise ResourceError(
                    f"saturation budget exceeded after {self.steps - 1} steps; "
                    f"partial closure holds {len(best)} atoms"
                )
            source = queue.pop()
            pub, prot, k = source
            if best.get((pub, prot), 0) != k:
                continue  # superseded by a better multiplicity
            # weakening moves: drop a published attribute (optionally
            # re-adding it on the protected side) or extend the protected side
            weakened = ("A2", source)
            for b in bits:
                if pub & b:
                    smaller = pub ^ b
                    offer((smaller, prot), k, weakened)
                    offer((smaller, prot | b), k, weakened)
                elif not prot & b:
                    offer((pub, prot | b), k, weakened)
            # chain composition with this atom as the first link ...
            for key2 in list(by_published.get(pub | prot, ())):
                k2 = best[key2]
                offer((pub, prot | key2[1]), k * k2, ("A5", source, (*key2, k2)))
            # ... and as the second link
            for key1 in list(by_closure.get(pub, ())):
                k1 = best[key1]
                offer((key1[0], key1[1] | prot), k1 * k, ("A5", (*key1, k1), source))

    def rebuild(self, triple: _Triple) -> Derivation:
        proof = self.proofs[triple]
        pub, prot, k = triple
        names = self.query.names
        conclusion = Atom(tuple(sorted(names(pub))), tuple(sorted(names(prot))), k)
        if proof[0] == "hyp":
            return _weakening(proof[1], conclusion)
        if proof[0] == "A2":
            return Derivation(Rule.MONOTONICITY, conclusion, (self.rebuild(proof[1]),))
        first = self.rebuild(proof[1])
        second = self.rebuild(proof[2])
        product = proof[1][2] * proof[2][2]
        composed = Atom(conclusion.published, conclusion.protected, product)
        node = Derivation(Rule.COMPOSITION, composed, (first, second))
        if product != k:
            node = Derivation(Rule.MONOTONICITY, conclusion, (node,))
        return node


def _seeded(query: _Query) -> _Saturation:
    """A saturation seeded with the hypotheses of k > 1."""
    sat = _Saturation(query)
    for hyp, (published, protected, k) in query.hyps:
        if k > 1:
            sat.offer((published, protected), k, ("hyp", hyp))
    return sat


def entails_k_saturate(sigma: AtomSet, goal: Atom) -> Entailment:
    """Sound saturation for arbitrary k-atoms: Derivable with a proof tree
    when the closure reaches the goal, otherwise Unknown.  Never claims
    NotDerivable.

    Only the work the verdict needs is done.  The run stops once the goal
    is reached.  A goal whose published side lies inside no seeding
    hypothesis's published side is Unknown without a run: weakening only
    shrinks a published side and composition keeps its first link's, so
    no closure atom publishes outside a seed's.  Either way the answer's
    ``saturated`` set is the whole closure, computed on first read.

    Goals with k = 1 are settled up front and no ``Y1`` atom, not even a
    hypothesis, enters the closure: composing with a ``Y1`` link reaches
    nothing that weakening (A2) does not reach from the other link.

    * ``x Y1 y`` then ``xy Yk z`` concludes ``x Yk yz``: from ``xy Yk z``,
      drop ``y`` from the published side and re-add it as protected.
    * ``x Yk y`` then ``xy Y1 z`` concludes the same ``x Yk yz``: from
      ``x Yk y``, extend the protected side by ``z``.
    """
    query = _Query(sigma, goal)
    settled = _settled(query)
    if settled is not None:
        return settled

    key = query.goal_form[:2]
    if not any(k > 1 and not key[0] & ~p for _, (p, _, k) in query.hyps):
        return Entailment(Verdict.UNKNOWN, _closure=(query, None))
    sat = _seeded(query)
    sat.run(key)
    closure = (query, None if sat.queue else sat.best)
    if sat.best.get(key, 0) >= goal.k:
        node = _restate(sat.rebuild((*key, sat.best[key])), goal)
        return Entailment(Verdict.DERIVABLE, derivation=node, _closure=closure)
    return Entailment(Verdict.UNKNOWN, _closure=closure)


def explain_derivation(derivation: Derivation, sigma: AtomSet) -> str | None:
    """None when the tree is a legal proof from ``sigma``; otherwise a
    message locating the first illegal step."""
    return _explain(derivation, sigma, "root")


def verify_derivation(derivation: Derivation, sigma: AtomSet) -> bool:
    """Independent proof checker for Derivation trees."""
    return explain_derivation(derivation, sigma) is None


def _explain(node: Derivation, sigma: AtomSet, path: str) -> str | None:
    for i, premise in enumerate(node.premises):
        problem = _explain(premise, sigma, f"{path}.premises[{i}]")
        if problem is not None:
            return problem
    c = node.conclusion
    rule = node.rule
    if rule is Rule.HYPOTHESIS:
        if node.premises:
            return f"{path}: hypothesis leaves take no premises"
        if c not in sigma:
            return f"{path}: {c} is not a hypothesis"
        return None
    if rule is Rule.K1_TRIVIAL:
        if node.premises:
            return f"{path}: k1-trivial leaves take no premises"
        if c.k != 1:
            return f"{path}: k1-trivial conclusion must have multiplicity 1"
        return None
    if rule in (Rule.EX_FALSO, Rule.EMPTY_PROTECTED):
        if len(node.premises) != 1:
            return f"{path}: {rule.value} takes exactly one premise"
        p = normalize(node.premises[0].conclusion)
        if p.protected or p.k < 2:
            return f"{path}: {rule.value} premise must cancel to an empty protected side with k >= 2"
        return None
    if rule in (Rule.PERMUTATION, Rule.MONOTONICITY, Rule.CANCELLATION):
        if len(node.premises) != 1:
            return f"{path}: {rule.value} takes exactly one premise"
        p = node.premises[0].conclusion
        p_pub, p_prot = set(p.published), set(p.protected)
        c_pub, c_prot = set(c.published), set(c.protected)
        if rule is Rule.PERMUTATION:
            if p_pub == c_pub and p_prot == c_prot and p.k == c.k:
                return None
            return f"{path}: permutation must preserve both attribute sets and the multiplicity"
        if rule is Rule.MONOTONICITY:
            if c_pub <= p_pub and c_prot >= p_prot and c.k <= p.k:
                return None
            return (
                f"{path}: weakening may only shrink the published side, "
                "grow the protected side, and lower the multiplicity"
            )
        # cancellation: only attributes present on the published side may leave
        if c_pub == p_pub and c_prot <= p_prot and (p_prot - c_prot) <= p_pub and c.k == p.k:
            return None
        return f"{path}: cancellation may only drop protected attributes that are published"
    if rule is Rule.COMPOSITION:
        if len(node.premises) < 2:
            return f"{path}: composition takes at least two premises"
        links = [q.conclusion for q in node.premises]
        running = set(links[0].published)
        if set(c.published) != running:
            return f"{path}: composition must publish what its first link publishes"
        product = 1
        union_prot: set[str] = set()
        for link in links:
            if set(link.published) != running:
                return f"{path}: composition links must chain published+protected sides"
            running |= set(link.protected)
            union_prot |= set(link.protected)
            product *= link.k
        if set(c.protected) != union_prot:
            return f"{path}: composition must protect the union of its links' protected sides"
        if c.k != product:
            return f"{path}: composition multiplicity must be the product of its links'"
        return None
    return f"{path}: unknown rule {rule!r}"
