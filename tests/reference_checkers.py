"""Reference formulations of the anonymity checkers, coded independently
of the grouping pass in :mod:`anonatom.atoms` so that tests can
cross-check it.
"""

from __future__ import annotations

from typing import Sequence

from anonatom.atoms import _extractor, _positive_multiplicity
from anonatom.team import Row, Team


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
