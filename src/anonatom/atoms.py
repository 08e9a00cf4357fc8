"""Anonymity, k-anonymity, and auxiliary atoms, with their checkers.

The central statement is ``published Y_k protected``: every group of
rows that agree on the published attributes must exhibit at least k
distinct value tuples over the protected attributes, so knowing someone's
published values never narrows their protected values below k candidates.
k = 2 is the plain anonymity atom: for every row there is another row
with the same published tuple and a different protected tuple.

The checkers (anonymity, k-anonymity, the degree, the audit counts,
dependence and independence) all derive from one grouping pass,
``_groups``, which keys rows by ``_picker``: a bare value on a
one-attribute side, a tuple otherwise.  Independently coded reference
formulations, for tests to cross-check them against, live with the
tests, in ``tests/reference_checkers.py``.

Conventions the definitions leave open: the empty team satisfies every
atom; an empty protected side with k >= 2 holds only on the empty team
(no row can differ from itself on the empty tuple); k = 1 holds on every
team.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Sequence, Union

from ._value import Value, _set
from .errors import ArityError
from .team import Row, Team


def _positive_multiplicity(k: object) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"multiplicity must be a positive integer, got {k!r}")
    return k


class Atom(Value):
    """``published Y_k protected``: publishing keeps the protected tuple
    k-anonymous.  k defaults to 2, the plain anonymity atom.  Slotted:
    hypothesis sets and sweeps hold many of them."""

    __slots__ = _fields = ("published", "protected", "k")
    published: tuple[str, ...]
    protected: tuple[str, ...]
    k: int

    def __init__(self, published: Sequence[str], protected: Sequence[str], k: int = 2) -> None:
        _set(self, "published", tuple(published))
        _set(self, "protected", tuple(protected))
        _set(self, "k", _positive_multiplicity(k))

    def __reduce__(self):  # a slotted value has no __dict__ for copy and pickle
        return self.__class__, (self.published, self.protected, self.k)

    @property
    def is_simple(self) -> bool:
        """A single protected attribute (before any normalization)."""
        return len(self.protected) == 1

    def attributes(self) -> frozenset[str]:
        return frozenset(self.published) | frozenset(self.protected)


class DependenceAtom(Value):
    """``dep(determinants; dependents)``: equal determinant tuples force
    equal dependent tuples."""

    _fields = ("determinants", "dependents")
    determinants: tuple[str, ...]
    dependents: tuple[str, ...]

    def __init__(self, determinants: Sequence[str], dependents: Sequence[str]) -> None:
        _set(self, "determinants", tuple(determinants))
        _set(self, "dependents", tuple(dependents))

    def attributes(self) -> frozenset[str]:
        return frozenset(self.determinants) | frozenset(self.dependents)


class InclusionAtom(Value):
    """``inc(source; target)``: every source tuple occurs as a target tuple."""

    _fields = ("source", "target")
    source: tuple[str, ...]
    target: tuple[str, ...]

    def __init__(self, source: Sequence[str], target: Sequence[str]) -> None:
        _set(self, "source", tuple(source))
        _set(self, "target", tuple(target))
        if len(self.source) != len(self.target):
            raise ArityError(
                f"inclusion sides must have equal length: {len(self.source)} vs {len(self.target)}"
            )

    def attributes(self) -> frozenset[str]:
        return frozenset(self.source) | frozenset(self.target)


class IndependenceAtom(Value):
    """``ind(left; right)``: every occurring left tuple combines with
    every occurring right tuple in some row."""

    _fields = ("left", "right")
    left: tuple[str, ...]
    right: tuple[str, ...]

    def __init__(self, left: Sequence[str], right: Sequence[str]) -> None:
        _set(self, "left", tuple(left))
        _set(self, "right", tuple(right))

    def attributes(self) -> frozenset[str]:
        return frozenset(self.left) | frozenset(self.right)


AuxAtom = Union[DependenceAtom, InclusionAtom, IndependenceAtom]
AnyAtom = Union[Atom, AuxAtom]


class _UnboundedDegree:
    """Anonymity degree of the empty team; compares above every integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNBOUNDED"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _UnboundedDegree)

    def __hash__(self) -> int:
        return hash("anonatom.UNBOUNDED")

    def __gt__(self, other: object) -> bool:
        return isinstance(other, int)

    def __ge__(self, other: object) -> bool:
        return isinstance(other, (int, _UnboundedDegree))

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return isinstance(other, _UnboundedDegree)


UNBOUNDED = _UnboundedDegree()
Degree = Union[int, _UnboundedDegree]


# What ``_picker`` returns for a row: its value tuple over several
# attributes or none, its bare value over exactly one.
Picked = Union[Row, str]


def _picker(team: Team, attrs: Sequence[str]) -> Callable[[Row], Picked]:
    """Row -> its values over ``attrs``, bound to this team's schema.

    A tuple in the order named for zero or several attributes, but the
    bare value for one, as ``itemgetter`` gives it: two rows agree on
    ``attrs`` exactly when their picks are equal, and grouping on one
    attribute builds no 1-tuples.  ``itemgetter`` cannot be built from
    no index, so the empty side takes an empty slice.
    """
    idx = team.schema.indexes(attrs)
    return itemgetter(*idx) if idx else itemgetter(slice(0))


def _groups(team: Team, published: Sequence[str], protected: Sequence[str]) -> dict[Picked, list[Picked]]:
    """The one grouping pass under every production checker: each
    published pick with the protected pick of each of its rows (see
    ``_picker``: bare values on a one-attribute side), so a group's row
    count is the list's length and its distinct protected tuples are the
    list's set.  Keys come in no particular order."""
    pub = _picker(team, published)
    prot = _picker(team, protected)
    groups: dict[Picked, list[Picked]] = defaultdict(list)
    for row in team.rows:
        groups[pub(row)].append(prot(row))
    return groups


def check_anonymity(team: Team, published: Sequence[str], protected: Sequence[str]) -> bool:
    """True iff every row has another row agreeing on ``published`` and
    differing on the ``protected`` tuple.

    Equivalently, every published-group shows at least two distinct
    protected tuples.  The empty team qualifies; with an empty protected
    side only the empty team does.
    """
    return check_k_anonymity(team, published, protected, 2)


def check_k_anonymity(team: Team, published: Sequence[str], protected: Sequence[str], k: int) -> bool:
    """True iff every published-group shows at least k distinct protected
    tuples.  k = 1 holds on every team; k = 2 is ``check_anonymity``."""
    if _positive_multiplicity(k) == 1:
        team.schema.indexes((*published, *protected))  # unknown names still raise
        return True
    return all(len(set(values)) >= k for values in _groups(team, published, protected).values())


def check_dependence(team: Team, determinants: Sequence[str], dependents: Sequence[str]) -> bool:
    """Functional dependence: within every determinant-group the dependent
    tuple is constant."""
    groups = _groups(team, determinants, dependents)
    return all(len(set(values)) <= 1 for values in groups.values())


def check_inclusion(team: Team, source: Sequence[str], target: Sequence[str]) -> bool:
    """Every ``source`` tuple occurs somewhere as a ``target`` tuple."""
    if len(source) != len(target):
        raise ArityError(
            f"inclusion sides must have equal length: {len(source)} vs {len(target)}"
        )
    src = _picker(team, source)
    tgt = _picker(team, target)
    occurring = set(map(tgt, team.rows))
    return all(map(occurring.__contains__, map(src, team.rows)))


def check_independence(team: Team, left: Sequence[str], right: Sequence[str]) -> bool:
    """True iff for all rows s, s' some row combines s's left tuple with
    s''s right tuple: the occurring (left, right) pairs form a full product.

    Note this may hold while anonymity fails, e.g. when the right side is
    constant.
    """
    seen = [set(values) for values in _groups(team, left, right).values()]
    rights = set().union(*seen)
    return all(len(values) == len(rights) for values in seen)


def anonymity_degree(team: Team, published: Sequence[str], protected: Sequence[str]) -> Degree:
    """The largest k for which ``check_k_anonymity`` holds: the minimum
    over published-groups of the distinct protected-tuple count.

    The empty team has degree UNBOUNDED, which compares above every
    integer.
    """
    groups = _groups(team, published, protected)
    return min((len(set(values)) for values in groups.values()), default=UNBOUNDED)


def group_distinct_counts(
    team: Team, published: Sequence[str], protected: Sequence[str]
) -> dict[Row, tuple[int, int]]:
    """Audit view: per published-group key, (rows in group, distinct
    protected tuples).  Keys are tuples, also over one attribute, and
    come in no particular order."""
    groups = _groups(team, published, protected)
    counts = {key: (len(values), len(set(values))) for key, values in groups.items()}
    if len(published) == 1:  # _groups keys one attribute by its bare value
        return {(key,): count for key, count in counts.items()}
    return counts


def satisfies(team: Team, atom: AnyAtom) -> bool:
    """Evaluate any atom kind on a team."""
    if isinstance(atom, Atom):
        return check_k_anonymity(team, atom.published, atom.protected, atom.k)
    if isinstance(atom, DependenceAtom):
        return check_dependence(team, atom.determinants, atom.dependents)
    if isinstance(atom, InclusionAtom):
        return check_inclusion(team, atom.source, atom.target)
    if isinstance(atom, IndependenceAtom):
        return check_independence(team, atom.left, atom.right)
    raise TypeError(f"not an atom: {atom!r}")
