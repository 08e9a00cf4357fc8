"""Brute-force semantic entailment over a small value domain.

``semantic_entails`` first tries the explicit countermodel constructions,
whose builders verify their output: they are complete refuters on their
fragments, and some non-entailed claims have no refuter over a two-valued
domain.  They read ``countermodel``'s shape cache, so an entailed instance
costs a few memo reads before the search.  Otherwise it decides every
team over the full grid G of g rows, D^n for n attributes over D values.
A call puts the question in normal form once (``query._Query``), and all
that follows reads it.

The search decides the 2^g teams by a greatest fixpoint over G's rows,
and builds no team but the refuter.  Anonymity atoms are closed under
union, so the subteams of U that satisfy the hypotheses have a largest
member L(U), their union: ``_largest`` deletes every published group
showing 1..k-1 protected values for some hypothesis until none does.  A
team refutes ``x Yk y`` iff it satisfies them and its group x = a shows
a set S of 1..k-1 protected tuples, so the goal is refuted iff for some
a and some S of min(k-1, |Y|) of its |Y| tuples a row with x = a
survives in L(G_S), G_S = G - {x = a, y not in S}; a goal protecting
nothing (|Y| = 1) iff L(G) is non-empty.  G, the atoms and the goal are
invariant under permuting each attribute's values on its own, which
fixes a = 0...0 and 0...0 in S: C(|Y|-1, min(k-1, |Y|)-1) fixpoints,
one for k = 2, counted against ``MAX_FIXPOINTS`` before the first runs.
The refuter is L itself for the first S in sorted order, the largest
refuting subteam whose zero group shows only S.  The group masks of
each atom side are kept on G's cache entry (``_Grid.groups``,
``_GroupMasks``).

Past that cap the search descends instead (``_descent``): from S = every
tuple it drops one tuple at a time while a zero row survives, in at most
2|Y| + 1 fixpoints, and refutes with L as soon as the zero group shows at
most k-1 tuples.  No zero row in L(G) means no refuter; an
inclusion-minimal S still showing k or more is ResourceError, as another
S may refute.

The search answers REFUTED, ENTAILED or UNKNOWN.  A grid of at most 3
values may be too small to host a refuter of an instance mentioning a
multiplicity above 2, so such an instance with no refuter is UNKNOWN.
"""

from __future__ import annotations

import itertools
from enum import Enum

from ._value import Value, _set
from .atoms import Atom
from .countermodel import (
    GRID_SPACE_ATTRIBUTES, GRID_SPACE_DOMAIN, _candidates, _Grid, _grid,
)
from .errors import ConfigError, ResourceError
from .query import AtomSet, _Query
from .team import Row, Team

# The fixpoints one enumeration may run, counted before the first.
MAX_FIXPOINTS = 1 << 16


class OracleConfig(Value):
    _fields = ("domain_size", "attribute_limit")
    domain_size: int
    attribute_limit: int

    def __init__(self, domain_size: int = 2, attribute_limit: int = 4) -> None:
        _set(self, "domain_size", domain_size)
        _set(self, "attribute_limit", attribute_limit)
        if self.domain_size not in range(2, GRID_SPACE_DOMAIN + 1):
            raise ConfigError(
                f"domain_size must be 2 or {GRID_SPACE_DOMAIN}, got {self.domain_size}"
            )
        if not 1 <= self.attribute_limit <= GRID_SPACE_ATTRIBUTES:
            raise ConfigError(
                f"attribute_limit must be between 1 and {GRID_SPACE_ATTRIBUTES}, "
                f"got {self.attribute_limit}"
            )


class OracleStatus(str, Enum):
    ENTAILED = "entailed"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


class OracleResult(Value):
    _fields = ("status", "refuter", "teams_checked")
    status: OracleStatus
    refuter: Team | None
    teams_checked: int

    def __init__(
        self, status: OracleStatus, refuter: Team | None = None, teams_checked: int = 0
    ) -> None:
        _set(self, "status", status)
        _set(self, "refuter", refuter)
        _set(self, "teams_checked", teams_checked)


class _GroupMasks(dict):
    """The groups of each atom side ``(published, protected)`` over a full
    grid, built on first read: per published key in sorted order, the
    group's row mask and the row masks of its protected values in sorted
    order.  Bit j of a mask stands for ``rows[j]``, the grid's j-th row in
    sorted order, so the first group's first value holds the all-zero row."""

    def __init__(self, grid: _Grid):
        super().__init__()
        self.rows = sorted(grid.rows)

    def __missing__(self, side: tuple[int, int]) -> list[tuple[int, tuple[int, ...]]]:
        published, protected = side
        by_key: dict[Row, dict[Row, int]] = {}
        for j, row in enumerate(self.rows):
            key = tuple(v for i, v in enumerate(row) if published >> i & 1)
            values = by_key.setdefault(key, {})
            value = tuple(v for i, v in enumerate(row) if protected >> i & 1)
            values[value] = values.get(value, 0) | 1 << j
        groups = self[side] = [(sum(v.values()), tuple(v.values())) for v in by_key.values()]
        return groups


def _largest(rows: int, query: _Query, masks: _GroupMasks, watch: int) -> int:
    """L(rows), the largest subteam of ``rows`` satisfying every hypothesis
    of ``query``, by greatest fixpoint over the groups of ``masks``; 0 as
    soon as no row of ``watch`` is left."""
    while True:
        kept = rows
        for _, (published, protected, k) in query.hyps:
            if k > 1:  # k = 1 holds on every team
                for group, values in masks[published, protected]:
                    if kept & group and len([v for v in values if kept & v]) < k:
                        kept &= ~group
                        if not kept & watch:
                            return 0
        if kept == rows:
            return rows
        rows = kept


def _refuting(query: _Query, grid: _Grid) -> frozenset[Row] | None:
    """The rows of the canonical refuter over the full ``grid``, or None if
    no subteam refutes.  Past ``MAX_FIXPOINTS`` choices of S the rows come
    from ``_descent`` instead, and ResourceError if it cannot decide."""
    published, protected, k = query.goal_form
    if k < 2:  # holds on every team
        return None
    masks = grid.groups
    if masks is None:
        masks = grid.groups = _GroupMasks(grid)
    zero_group, values = masks[published, protected][0]  # values[0] holds 0...0
    picks = min(k - 1, len(values)) - 1  # members of S besides 0...0
    descend = False
    if 0 < picks < len(values) - 1:
        from math import comb  # deferred: k = 2 takes one fixpoint

        descend = comb(len(values) - 1, picks) > MAX_FIXPOINTS
    if descend:
        kept = _descent(query, masks, values, k)
        if kept is None:
            raise ResourceError(
                f"the goal needs C({len(values) - 1}, {picks}) fixpoints over "
                f"{len(masks.rows)} rows; cap is {MAX_FIXPOINTS}"
            )
    else:
        rest = (1 << len(masks.rows)) - 1 & ~zero_group
        for chosen in itertools.combinations(values[1:], picks):
            shown = sum(chosen, values[0])  # the rows of S: value masks are disjoint
            kept = _largest(rest | shown, query, masks, zero_group)
            if kept:
                break
    return frozenset(row for j, row in enumerate(masks.rows) if kept >> j & 1) if kept else None


def _descent(query: _Query, masks: _GroupMasks, values: tuple[int, ...], k: int) -> int | None:
    """A refuting L(G_S), S a set of the zero group's tuples ``values``;
    0 if L(G) keeps no zero row, so that no S does (L is monotone in S);
    None at an inclusion-minimal S whose L still shows k or more tuples,
    where another S may still refute.

    From S = every tuple, each step drops one tuple that L shows, in
    sorted order, and keeps the drop if a zero row survives: L of the
    smaller S is L(L less the tuple's rows).  A tuple whose drop leaves
    no zero row is never dropped again, as no smaller S keeps one
    without it, so the descent runs at most 2|Y| + 1 fixpoints."""
    zero_group = sum(values)
    kept = _largest((1 << len(masks.rows)) - 1, query, masks, zero_group)
    needed = 0  # the rows of the tuples no zero row survives without
    while kept and len([value for value in values if kept & value]) >= k:
        for value in values:
            if kept & value and not needed & value:
                smaller = _largest(kept & ~value, query, masks, zero_group)
                if smaller:
                    kept = smaller
                    break
                needed |= value
        else:
            return None
    return kept


def semantic_entails(sigma: AtomSet, goal: Atom, cfg: OracleConfig) -> OracleResult:
    """Search for a team satisfying the hypotheses but not the goal;
    ``teams_checked`` counts the 2^g teams decided over the g grid rows.

    With no refuter, instances mentioning a multiplicity above 2 stay
    UNKNOWN: a grid of at most 3 values cannot host every refuter they
    may have, until a small-model bound for them is proved."""
    query = _Query(sigma, goal)
    attrs = query.attrs
    if len(attrs) > cfg.attribute_limit:
        raise ConfigError(
            f"instance mentions {len(attrs)} attributes but the configured limit is "
            f"{cfg.attribute_limit}"
        )
    candidate = next(_candidates(query), None)
    if candidate is not None:  # verified by its builder: it refutes
        return OracleResult(OracleStatus.REFUTED, candidate[1], 1)
    grid = _grid(len(attrs), cfg.domain_size)
    teams = 1 << len(grid.rows)  # every subteam is decided
    rows = _refuting(query, grid)
    if rows is not None:
        return OracleResult(OracleStatus.REFUTED, grid.team(attrs, rows), teams)
    if max((a.k for a in (*sigma.atoms, goal)), default=2) > 2:
        return OracleResult(OracleStatus.UNKNOWN, None, teams)
    return OracleResult(OracleStatus.ENTAILED, None, teams)
