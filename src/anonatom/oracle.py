"""Brute-force semantic entailment and reproducible random teams.

``semantic_entails`` decides entailment the slow, trustworthy way: it
first tries the explicit countermodel constructions, whose builders
verify their output, and returns the first one built as the refuter
(they are complete refuters on their fragments, which matters because
some non-entailed claims have no refuter over a two-valued domain);
otherwise it checks every team over a small value domain or samples
some.  The candidates come from ``countermodel``'s shape cache: every
grid inside the oracle's grid space (at most 4 attributes over at most 3
values) is built once per shape and each atom shape is checked on it
once, whichever engine or oracle call asks first, so an entailed
instance costs a few memo reads before the enumeration.  The first grid
is checked without subsumption, which only stops a truncated grid from
growing; a candidate is returned only when its builder's check says it
refutes.  A call puts the question in normal form once
(``query._Query``), and the candidates, the shape cache and the bitmaps
all read that form.

Exhaustive mode enumerates the teams over the full grid of the shape
cache, the grid the full-grid construction uses at that domain, and
builds no team to check them: each grid row's bitmap (one bit per
team) repeats a byte pattern, each atom's combines those of the rows
(``_Lattice``, kept on the grid's cache entry), and the lowest set bit of
the refuting bitmap names the one team it builds, the refuter.

Exhaustive mode answers ENTAILED or REFUTED; random mode answers
REFUTED or UNKNOWN, never ENTAILED.  For instances mentioning
multiplicities above 2 the enumeration domain may be too small to host
a refuter, so exhaustive mode reports UNKNOWN instead of ENTAILED
unless the domain exceeds the largest multiplicity mentioned.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Sequence

from ._value import Value, _set
from .atoms import Atom
from .countermodel import (
    GRID_SPACE_ATTRIBUTES, GRID_SPACE_DOMAIN, _candidates, _Grid, _grid, _refutes,
)
from .errors import ConfigError
from .query import AtomSet, _Form, _Query
from .team import Schema, Team

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

# The full team lattice over a grid of g assignments has 2^g members;
# exhaustive mode is limited to lattices of at most 2^16 teams.
_MAX_GRID = 16


class OracleConfig(Value):
    _fields = ("domain_size", "attribute_limit", "mode", "samples", "seed")
    domain_size: int
    attribute_limit: int
    mode: str
    samples: int
    seed: int

    def __init__(
        self,
        domain_size: int = 2,
        attribute_limit: int = 4,
        mode: str = EXHAUSTIVE,
        samples: int = 1000,
        seed: int = 0,
    ) -> None:
        _set(self, "domain_size", domain_size)
        _set(self, "attribute_limit", attribute_limit)
        _set(self, "mode", mode)
        _set(self, "samples", samples)
        _set(self, "seed", seed)
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ConfigError(f"mode must be {EXHAUSTIVE!r} or {RANDOM!r}, got {self.mode!r}")
        if self.domain_size not in range(2, GRID_SPACE_DOMAIN + 1):
            raise ConfigError(
                f"domain_size must be 2 or {GRID_SPACE_DOMAIN}, got {self.domain_size}"
            )
        if not 1 <= self.attribute_limit <= GRID_SPACE_ATTRIBUTES:
            raise ConfigError(
                f"attribute_limit must be between 1 and {GRID_SPACE_ATTRIBUTES}, "
                f"got {self.attribute_limit}"
            )
        if self.mode == EXHAUSTIVE and self.domain_size**self.attribute_limit > _MAX_GRID:
            raise ConfigError(
                f"exhaustive mode over {self.attribute_limit} attributes and "
                f"{self.domain_size} values exceeds the 2^{_MAX_GRID}-team limit"
            )
        if self.samples < 0:
            raise ConfigError("samples must be non-negative")


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


def random_team(
    attributes: Sequence[str], domain_values: Sequence[str], row_budget: int, seed: int
) -> Team:
    """A reproducible pseudo-random team: the same seed always yields the
    same team, with at most ``row_budget`` rows."""
    import random  # deferred: exhaustive mode draws no team

    if row_budget < 0:
        raise ValueError("row_budget must be non-negative")
    rng = random.Random(seed)
    schema = Schema(tuple(attributes))
    count = rng.randint(0, row_budget)
    if count and attributes and not domain_values:
        raise ValueError("domain_values must be non-empty to draw rows")
    rows = {tuple(rng.choice(domain_values) for _ in attributes) for _ in range(count)}
    return Team(schema, frozenset(rows))


class _Lattice:
    """Satisfaction bitmaps over the teams of one full grid, computed from
    its rows.

    The rows are the grid's in sorted order, which for one-digit tokens is
    ``itertools.product`` order.  Team i selects row j iff bit j of i is
    set, so a bitmap has one bit per team (2^g bits for g rows) and the
    lowest refuting index is also the canonical first refuter.  No team is
    built to fill a bitmap:

    * ``R_j``, the teams containing row j, is the periodic pattern of 2^j
      clear bits then 2^j set bits: 2^(j-3) zero bytes then as many
      ``0xff`` bytes, or for j < 3 one byte, ``0xaa``, ``0xcc`` or ``0xf0``.
    * A team satisfies ``x Yk y`` iff every published-key group of grid
      rows shows 0 or at least k distinct protected values among the rows
      it selects.  Per group, the OR of the ``R_j`` of the rows carrying
      one protected value is the set of teams showing that value; an
      at-least-t counter over those masks, t = 1..k, gives the teams
      showing at least k of them, and the group's mask is
      ``not (>= 1) or (>= k)``.
    * The atom's mask is the AND over groups; k = 1 gives every team.

    Masks are keyed by the atom's form over the sorted attributes
    (``query._Query``), clamped by the grid (``_Grid.clamp``), so keys
    over one shape are finite: 3^arity sides times g + 1 multiplicities.
    """

    def __init__(self, grid: _Grid):
        self.grid = grid
        self.rows = sorted(grid.rows)
        self.count = 1 << len(self.rows)
        self.every_team = (1 << self.count) - 1
        self._containing = [self._teams_containing(j) for j in range(len(self.rows))]
        self._masks: dict[_Form, int] = {}

    def _teams_containing(self, row: int) -> int:
        """``R_row`` from its period as bytes, least significant first; the
        mask trims the one byte of a lattice of fewer than 8 teams."""
        half = 1 << row >> 3  # bytes in half a period, 0 below row 3
        period = bytes(half) + b"\xff" * half if half else b"\xaa\xcc\xf0"[row : row + 1]
        repeats = max(self.count >> 3, 1) // len(period)
        return int.from_bytes(period * repeats, "little") & self.every_team

    def mask(self, form: _Form) -> int:
        """The teams satisfying an atom of ``form`` over the grid's
        attribute positions."""
        form = self.grid.clamp(form)
        cached = self._masks.get(form)
        if cached is None:
            cached = self._masks[form] = self._build(*form)
        return cached

    def _build(self, published_mask: int, protected_mask: int, k: int) -> int:
        published = [i for i in range(published_mask.bit_length()) if published_mask >> i & 1]
        protected = [i for i in range(protected_mask.bit_length()) if protected_mask >> i & 1]
        groups: dict[tuple[str, ...], dict[tuple[str, ...], int]] = defaultdict(dict)
        for row, containing in zip(self.rows, self._containing):
            values = groups[tuple(row[i] for i in published)]
            value = tuple(row[i] for i in protected)
            values[value] = values.get(value, 0) | containing
        mask = self.every_team
        for values in groups.values():
            at_least = [self.every_team] + [0] * k  # at_least[t]: teams showing >= t values
            for showing in values.values():
                for t in range(k, 0, -1):
                    at_least[t] |= at_least[t - 1] & showing
            mask &= ~at_least[1] | at_least[k]
        return mask

    def team(self, attributes: tuple[str, ...], index: int) -> Team:
        """Team ``index`` of the lattice, with ``attributes`` as its schema."""
        rows = frozenset(row for j, row in enumerate(self.rows) if index >> j & 1)
        return self.grid.team(attributes, rows)


def semantic_entails(sigma: AtomSet, goal: Atom, cfg: OracleConfig) -> OracleResult:
    """Search for a team satisfying the hypotheses but not the goal."""
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

    if cfg.mode == EXHAUSTIVE:  # the config keeps the grid within _MAX_GRID rows
        grid = _grid(len(attrs), cfg.domain_size)
        lattice = grid.lattice
        if lattice is None:
            lattice = grid.lattice = _Lattice(grid)
        sigma_mask = lattice.every_team
        for _, form in query.hyps:
            sigma_mask &= lattice.mask(form)
        refuting = sigma_mask & ~lattice.mask(query.goal_form)
        if refuting:
            index = (refuting & -refuting).bit_length() - 1
            return OracleResult(OracleStatus.REFUTED, lattice.team(attrs, index), lattice.count)
        largest = max((a.k for a in (*sigma.atoms, goal)), default=2)
        if largest > 2 and cfg.domain_size < largest + 1:
            return OracleResult(OracleStatus.UNKNOWN, None, lattice.count)
        return OracleResult(OracleStatus.ENTAILED, None, lattice.count)

    import random

    domain = tuple(str(i) for i in range(cfg.domain_size))
    rng = random.Random(cfg.seed)
    budget = min(16, len(domain) ** len(attrs)) if attrs else 1
    for checked in range(1, cfg.samples + 1):
        team = random_team(attrs, domain, budget, rng.randrange(2**32))
        if _refutes(team, sigma, goal):
            return OracleResult(OracleStatus.REFUTED, team, checked)
    return OracleResult(OracleStatus.UNKNOWN, None, cfg.samples)
