"""Reference formulations of the anonymity checkers, coded independently
of the grouping pass in :mod:`anonatom.atoms` so that tests can
cross-check it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from anonatom.atoms import _positive_multiplicity
from anonatom.team import Row, Team


def _extractor(team: Team, attrs: Sequence[str]) -> Callable[[Row], Row]:
    """Row -> its value tuple over ``attrs``: a tuple on every side,
    one attribute included."""
    idx = team.schema.indexes(attrs)
    return lambda row: tuple(row[i] for i in idx)


def check_k_anonymity_existential(
    team: Team, published: Sequence[str], protected: Sequence[str], k: int
) -> bool:
    """Reference implementation, witness-search formulation: for every
    row, find k rows that agree with it on ``published`` and carry
    pairwise distinct protected tuples.

    Scans the whole team per row instead of grouping; agrees with
    ``check_k_anonymity`` on every input (a tested equivalence).
    """
    _positive_multiplicity(k)
    pub = _extractor(team, published)
    prot = _extractor(team, protected)
    rows = list(team.rows)
    for row in rows:
        key = pub(row)
        witnesses: set[Row] = set()
        for other in rows:
            if pub(other) == key:
                witnesses.add(prot(other))
                if len(witnesses) >= k:
                    break
        if len(witnesses) < k:
            return False
    return True


def check_k_counting_variant(
    team: Team, published: Sequence[str], protected: Sequence[str], k: int
) -> bool:
    """Reference implementation of the counting criterion: every row must
    have at least k *rows* (not values) agreeing on ``published`` and
    differing on the protected tuple.  Not equivalent to
    ``check_k_anonymity``; kept so the difference can be exhibited."""
    _positive_multiplicity(k)
    pub = _extractor(team, published)
    prot = _extractor(team, protected)
    rows = list(team.rows)
    for row in rows:
        key = pub(row)
        value = prot(row)
        differing = 0
        for other in rows:
            if pub(other) == key and prot(other) != value:
                differing += 1
                if differing >= k:
                    break
        if differing < k:
            return False
    return True


def check_anonymity_via_inclusion(
    team: Team, published: Sequence[str], protected: Sequence[str]
) -> bool:
    """Reference implementation, anonymity via its inclusion-logic
    reading: per row, search for a witness tuple u different from the
    row's protected tuple such that (published, u) occurs as a
    (published, protected) tuple of some row.

    Must agree with ``check_anonymity`` everywhere (a tested equivalence).
    """
    pub = _extractor(team, published)
    prot = _extractor(team, protected)
    pairs = {(pub(row), prot(row)) for row in team.rows}
    for row in team.rows:
        key = pub(row)
        value = prot(row)
        if not any(pk == key and pv != value for pk, pv in pairs):
            return False
    return True


def group_counts_by_scan(
    team: Team, published: Sequence[str], protected: Sequence[str]
) -> dict[Row, tuple[int, int]]:
    """Reference for ``group_distinct_counts``: per published tuple, the
    rows carrying it and their distinct protected tuples, collected by a
    scan of the whole team for each key."""
    pub = _extractor(team, published)
    prot = _extractor(team, protected)
    counts = {}
    for key in {pub(row) for row in team.rows}:
        members = [row for row in team.rows if pub(row) == key]
        counts[key] = (len(members), len({prot(row) for row in members}))
    return counts


def check_dependence_pairwise(
    team: Team, determinants: Sequence[str], dependents: Sequence[str]
) -> bool:
    """Reference for ``check_dependence``: any two rows equal on the
    determinants are equal on the dependents."""
    det = _extractor(team, determinants)
    dep = _extractor(team, dependents)
    return all(
        dep(s) == dep(t) for s in team.rows for t in team.rows if det(s) == det(t)
    )


def check_inclusion_pairwise(team: Team, source: Sequence[str], target: Sequence[str]) -> bool:
    """Reference for ``check_inclusion``: every row's source tuple is some
    row's target tuple."""
    src = _extractor(team, source)
    tgt = _extractor(team, target)
    return all(any(src(s) == tgt(t) for t in team.rows) for s in team.rows)


def check_independence_pairwise(team: Team, left: Sequence[str], right: Sequence[str]) -> bool:
    """Reference for ``check_independence``: for all rows s, t some row
    carries s's left tuple together with t's right tuple."""
    lft = _extractor(team, left)
    rgt = _extractor(team, right)
    return all(
        any(lft(u) == lft(s) and rgt(u) == rgt(t) for u in team.rows)
        for s in team.rows
        for t in team.rows
    )
