"""Brute-force semantic entailment and reproducible random teams.

``semantic_entails`` decides entailment the slow, trustworthy way: it
first tries the explicit countermodel constructions, whose builders
verify their output, and returns the first one built as the refuter
(they are complete refuters on their fragments, which matters because
some non-entailed claims have no refuter over a two-valued domain);
otherwise it checks every team over a small value domain or samples
some.

Exhaustive mode builds no team to check them: per atom it computes one
bitmap, one bit per team over the grid of assignments, straight from
the grid rows (``_GridCache``), and the lowest set bit of the refuting
bitmap names the one team it builds, the refuter.

Exhaustive mode answers ENTAILED or REFUTED; random mode answers
REFUTED or UNKNOWN, never ENTAILED.  For instances mentioning
multiplicities above 2 the enumeration domain may be too small to host
a refuter, so exhaustive mode reports UNKNOWN instead of ENTAILED
unless the domain exceeds the largest multiplicity mentioned.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .atoms import Atom, satisfies
from .countermodel import candidate_teams
from .errors import ConfigError
from .inference import AtomSet, universe
from .team import Schema, Team

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

# The full team lattice over a grid of g assignments has 2^g members;
# exhaustive mode is limited to lattices of at most 2^16 teams.
_MAX_GRID = 16


@dataclass(frozen=True)
class OracleConfig:
    domain_size: int = 2
    attribute_limit: int = 4
    mode: str = EXHAUSTIVE
    samples: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ConfigError(f"mode must be {EXHAUSTIVE!r} or {RANDOM!r}, got {self.mode!r}")
        if self.domain_size not in (2, 3):
            raise ConfigError(f"domain_size must be 2 or 3, got {self.domain_size}")
        if not 1 <= self.attribute_limit <= 4:
            raise ConfigError(f"attribute_limit must be between 1 and 4, got {self.attribute_limit}")
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


@dataclass(frozen=True)
class OracleResult:
    status: OracleStatus
    refuter: Team | None = None
    teams_checked: int = 0


def random_team(
    attributes: Sequence[str], domain_values: Sequence[str], row_budget: int, seed: int
) -> Team:
    """A reproducible pseudo-random team: the same seed always yields the
    same team, with at most ``row_budget`` rows."""
    if row_budget < 0:
        raise ValueError("row_budget must be non-negative")
    rng = random.Random(seed)
    schema = Schema(tuple(attributes))
    count = rng.randint(0, row_budget)
    if count and attributes and not domain_values:
        raise ValueError("domain_values must be non-empty to draw rows")
    rows = {tuple(rng.choice(domain_values) for _ in attributes) for _ in range(count)}
    return Team(schema, frozenset(rows))


class _GridCache:
    """Satisfaction bitmaps for one grid shape, computed from the grid rows.

    The grid holds every assignment of ``domain`` values to ``arity``
    sorted attribute positions, in ``itertools.product`` order.  Team i
    selects grid row j iff bit j of i is set, so a bitmap has one bit per
    team (2^g bits for g rows) and the lowest refuting index is also the
    canonical first refuter.  No team is built to fill a bitmap:

    * ``R_j``, the teams containing row j, is the periodic pattern of 2^j
      clear bits then 2^j set bits.
    * A team satisfies ``x Yk y`` iff every published-key group of grid
      rows shows 0 or at least k distinct protected values among the rows
      it selects.  Per group, the OR of the ``R_j`` of the rows carrying
      one protected value is the set of teams showing that value; an
      at-least-t counter over those masks, t = 1..k, gives the teams
      showing at least k of them, and the group's mask is
      ``not (>= 1) or (>= k)``.
    * The atom's mask is the AND over groups; k = 1 gives every team.

    Masks are keyed by positional normal form: the published and the
    protected index sets (shared positions cancel from the protected
    side) and k clamped to g + 1, since no group shows more than g values.
    Keys over one shape are therefore finite: 3^arity sides times g + 1
    multiplicities.
    """

    def __init__(self, arity: int, domain: tuple[str, ...]):
        self.grid = list(itertools.product(domain, repeat=arity))
        self.count = 1 << len(self.grid)
        self.every_team = (1 << self.count) - 1
        self._containing = [self._teams_containing(j) for j in range(len(self.grid))]
        self._masks: dict[tuple[frozenset[int], frozenset[int], int], int] = {}

    def _teams_containing(self, row: int) -> int:
        """``R_row``: one period, 2^row clear bits then 2^row set bits,
        times the integer with bit 0 of every period set."""
        half = 1 << row
        period = (1 << 2 * half) - 1
        return (((1 << half) - 1) << half) * (self.every_team // period)

    def mask(self, atom: Atom, attributes: Sequence[str]) -> int:
        """The teams satisfying ``atom``, whose attributes sit at their
        positions in ``attributes``."""
        published = frozenset(attributes.index(a) for a in atom.published)
        protected = frozenset(attributes.index(a) for a in atom.protected) - published
        key = (published, protected, min(atom.k, len(self.grid) + 1))
        cached = self._masks.get(key)
        if cached is None:
            cached = self._masks[key] = self._build(*key)
        return cached

    def _build(self, published: frozenset[int], protected: frozenset[int], k: int) -> int:
        groups: dict[tuple[str, ...], dict[tuple[str, ...], int]] = defaultdict(dict)
        for row, containing in zip(self.grid, self._containing):
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
        """Team ``index`` over this grid, with ``attributes`` (``arity``
        names) as its schema."""
        rows = (row for j, row in enumerate(self.grid) if index >> j & 1)
        return Team._trusted(Schema(attributes), frozenset(rows))


_grid_caches: dict[tuple[int, tuple[str, ...]], _GridCache] = {}


def _cache_for(arity: int, domain: tuple[str, ...]) -> _GridCache:
    key = (arity, domain)
    if key not in _grid_caches:
        _grid_caches[key] = _GridCache(arity, domain)
    return _grid_caches[key]


def _refutes(team: Team, sigma: AtomSet, goal: Atom) -> bool:
    return all(satisfies(team, hyp) for hyp in sigma.atoms) and not satisfies(team, goal)


def semantic_entails(sigma: AtomSet, goal: Atom, cfg: OracleConfig) -> OracleResult:
    """Search for a team satisfying the hypotheses but not the goal."""
    attrs = tuple(sorted(universe(sigma, goal)))
    if len(attrs) > cfg.attribute_limit:
        raise ConfigError(
            f"instance mentions {len(attrs)} attributes but the configured limit is "
            f"{cfg.attribute_limit}"
        )
    candidate = next(candidate_teams(sigma, goal), None)
    if candidate is not None:  # verified by its builder: it refutes
        return OracleResult(OracleStatus.REFUTED, candidate[1], 1)
    domain = tuple(str(i) for i in range(cfg.domain_size))

    if cfg.mode == EXHAUSTIVE:  # the config keeps the grid within _MAX_GRID rows
        cache = _cache_for(len(attrs), domain)
        sigma_mask = cache.every_team
        for hyp in sigma.atoms:
            sigma_mask &= cache.mask(hyp, attrs)
        refuting = sigma_mask & ~cache.mask(goal, attrs)
        if refuting:
            index = (refuting & -refuting).bit_length() - 1
            return OracleResult(OracleStatus.REFUTED, cache.team(attrs, index), cache.count)
        largest = max((a.k for a in (*sigma.atoms, goal)), default=2)
        if largest > 2 and cfg.domain_size < largest + 1:
            return OracleResult(OracleStatus.UNKNOWN, None, cache.count)
        return OracleResult(OracleStatus.ENTAILED, None, cache.count)

    rng = random.Random(cfg.seed)
    budget = min(16, len(domain) ** len(attrs)) if attrs else 1
    for checked in range(1, cfg.samples + 1):
        team = random_team(attrs, domain, budget, rng.randrange(2**32))
        if _refutes(team, sigma, goal):
            return OracleResult(OracleStatus.REFUTED, team, checked)
    return OracleResult(OracleStatus.UNKNOWN, None, cfg.samples)
