"""Hypothesis sets and the one normal form of an entailment question.

An ``AtomSet`` holds the hypotheses and the attribute universe they live
in.  ``_Query`` puts one question ``sigma |- goal`` in normal form once:
the sorted universe, and each atom's published and protected attributes
as bitmasks over it, with shared attributes cancelled, and its k.  The
engines in :mod:`anonatom.inference`, the grid builders in
:mod:`anonatom.countermodel` and the oracle all read that form and its
fragment, and ``normalize`` gives the same form over attribute names.
This module holds no engine, so the oracle and the grid builders load none.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from ._value import Value, _set
from .atoms import Atom


class NormalAtom(Value):
    """Order-free atom with the protected side disjoint from the published
    side (shared attributes cancel; within a published-group they are
    constant and cannot contribute distinct protected tuples)."""

    _fields = ("published", "protected", "k")
    published: frozenset[str]
    protected: frozenset[str]
    k: int

    def __init__(self, published: frozenset[str], protected: frozenset[str], k: int) -> None:
        _set(self, "published", published)
        _set(self, "protected", protected)
        _set(self, "k", k)


def normalize(atom: Atom) -> NormalAtom:
    pub = frozenset(atom.published)
    return NormalAtom(pub, frozenset(atom.protected) - pub, atom.k)


_NO_ATTRIBUTES: frozenset[str] = frozenset()


class AtomSet(Value):
    """A hypothesis set plus the attribute universe it lives in.

    ``extra_attributes`` widens the universe beyond the attributes the
    member atoms mention (goals contribute theirs at query time).
    """

    _fields = ("atoms", "extra_attributes")
    atoms: tuple[Atom, ...]
    extra_attributes: frozenset[str]

    def __init__(
        self, atoms: Iterable[Atom], extra_attributes: Iterable[str] = _NO_ATTRIBUTES
    ) -> None:
        deduped: list[Atom] = []
        seen: set[Atom] = set()
        for atom in atoms:
            if not isinstance(atom, Atom):
                raise TypeError(f"AtomSet members must be anonymity atoms, got {atom!r}")
            if atom not in seen:
                seen.add(atom)
                deduped.append(atom)
        _set(self, "atoms", tuple(deduped))
        # sets without extra attributes share one empty frozenset (each
        # empty frozenset is an object of its own, about 200 bytes)
        _set(self, "extra_attributes", frozenset(extra_attributes) or _NO_ATTRIBUTES)

    @classmethod
    def of(cls, *atoms: Atom, extra_attributes: Iterable[str] = ()) -> "AtomSet":
        return cls(tuple(atoms), frozenset(extra_attributes))

    @cached_property
    def attributes(self) -> frozenset[str]:
        """Every attribute of the set, computed on first read and then kept
        (the fields are frozen); it takes no part in equality or hashing."""
        out = set(self.extra_attributes)
        for atom in self.atoms:
            out |= atom.attributes()
        return frozenset(out)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: object) -> bool:
        return atom in self.atoms


# An atom's form: its published attributes and its protected attributes
# less the published ones, as int bitmasks over a sorted universe, and k.
_Form = tuple[int, int, int]


class _Query:
    """One question ``sigma |- goal`` in the one form that the engines, the
    grid builders and the oracle read.

    ``attrs`` is the sorted universe of the hypotheses and the goal, and
    bit i of a mask stands for ``attrs[i]``.  ``hyps`` pairs each
    hypothesis with its form and ``goal_form`` is the goal's.  A form is
    the normal form of ``normalize`` as bitmasks: order and duplicates are
    gone (A1) and shared attributes cancel from the protected side (A3),
    so atoms with one form hold on the same teams over ``attrs``.
    ``plain`` (every k at most 2) and ``simple`` (every atom of k above 1
    ``Atom.is_simple``) are the one fragment rule: a k = 1 atom holds on
    every team, so it counts against neither.
    """

    __slots__ = ("sigma", "goal", "attrs", "hyps", "goal_form", "plain", "simple", "_names")

    def __init__(self, sigma: AtomSet, goal: Atom):
        self.sigma = sigma
        self.goal = goal
        self.attrs = attrs = tuple(sorted({*sigma.attributes, *goal.published, *goal.protected}))
        bit = {a: 1 << i for i, a in enumerate(attrs)}
        forms: list[_Form] = []
        plain = simple = True
        for atom in (*sigma.atoms, goal):
            published = protected = 0
            for a in atom.published:
                published |= bit[a]
            for a in atom.protected:
                protected |= bit[a]
            k = atom.k
            if k > 1:  # k = 1 holds on every team
                plain = plain and k == 2
                simple = simple and atom.is_simple
            forms.append((published, protected & ~published, k))
        self.plain, self.simple = plain, simple
        self.goal_form = forms.pop()
        self.hyps = tuple(zip(sigma.atoms, forms))
        self._names: dict[int, frozenset[str]] = {}

    def names(self, mask: int) -> frozenset[str]:
        """The attributes of ``mask``, built once per mask and then kept, so
        the atoms of a saturated set share them."""
        names = self._names.get(mask)
        if names is None:
            names = self._names[mask] = frozenset(
                a for i, a in enumerate(self.attrs) if mask >> i & 1
            )
        return names


def _inconsistent_member(hyps: Iterable[tuple[Atom, _Form]]) -> Atom | None:
    """The first hypothesis whose form protects nothing with k >= 2."""
    for hyp, (_, protected, k) in hyps:
        if not protected and k >= 2:
            return hyp
    return None


def _subsuming(hyps: Iterable[tuple[Atom, _Form]], goal: _Form) -> Atom | None:
    """The first hypothesis whose form subsumes the form ``goal``: it
    publishes at least the goal's attributes, protects a subset of its
    protected attributes, and has at least its multiplicity."""
    published, protected, k = goal
    for hyp, (h_published, h_protected, h_k) in hyps:
        if not published & ~h_published and not h_protected & ~protected and h_k >= k:
            return hyp
    return None
