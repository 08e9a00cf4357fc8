"""Brute-force semantic entailment and reproducible random teams.

``semantic_entails`` decides entailment the slow, trustworthy way: it
first tests the explicit countermodel constructions as candidate
refuters (they are complete refuters on their fragments, which matters
because some non-entailed claims have no refuter over a two-valued
domain), then enumerates or samples teams over a small value domain.

Exhaustive mode answers ENTAILED or REFUTED; random mode answers
REFUTED or UNKNOWN, never ENTAILED.  For instances mentioning
multiplicities above 2 the enumeration domain may be too small to host
a refuter, so exhaustive mode reports UNKNOWN instead of ENTAILED
unless the domain exceeds the largest multiplicity mentioned.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .atoms import Atom, satisfies
from .countermodel import candidate_teams
from .errors import ConfigError
from .inference import AtomSet, NormalAtom, normalize, universe
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
    """Satisfaction bitmaps for every team over one assignment grid.

    Team i is the subset of grid rows selected by the bits of i, so the
    lowest refuting index is also the canonical first refuter.  Bitmaps
    are keyed by normal form: satisfaction is insensitive to attribute
    order, duplicates, and published/protected overlap.
    """

    def __init__(self, attributes: tuple[str, ...], domain: tuple[str, ...]):
        self.schema = Schema(attributes)
        self.grid = [
            tuple(cells) for cells in itertools.product(domain, repeat=len(attributes))
        ]
        self.count = 1 << len(self.grid)
        self.teams = [
            Team(self.schema, frozenset(itertools.compress(self.grid, _bits(i, len(self.grid)))))
            for i in range(self.count)
        ]
        self._masks: dict[NormalAtom, int] = {}

    def mask(self, atom: Atom) -> int:
        key = normalize(atom)
        cached = self._masks.get(key)
        if cached is None:
            cached = 0
            for i, team in enumerate(self.teams):
                if satisfies(team, atom):
                    cached |= 1 << i
            self._masks[key] = cached
        return cached


def _bits(value: int, width: int) -> list[bool]:
    return [bool(value >> j & 1) for j in range(width)]


_grid_caches: dict[tuple[tuple[str, ...], tuple[str, ...]], _GridCache] = {}


def _cache_for(attributes: tuple[str, ...], domain: tuple[str, ...]) -> _GridCache:
    key = (attributes, domain)
    if key not in _grid_caches:
        _grid_caches[key] = _GridCache(attributes, domain)
    return _grid_caches[key]


def _refutes(team: Team, sigma: AtomSet, goal: Atom) -> bool:
    return all(satisfies(team, hyp) for hyp in sigma.atoms) and not satisfies(team, goal)


def semantic_entails(sigma: AtomSet, goal: Atom, cfg: OracleConfig) -> OracleResult:
    """Search for a team satisfying the hypotheses but not the goal."""
    attrs = tuple(sorted(universe(sigma, goal)))
    checked = 0
    for _, team in candidate_teams(sigma, goal):
        checked += 1
        if _refutes(team, sigma, goal):
            return OracleResult(OracleStatus.REFUTED, team, checked)

    if len(attrs) > cfg.attribute_limit:
        raise ConfigError(
            f"instance mentions {len(attrs)} attributes but the configured limit is "
            f"{cfg.attribute_limit}"
        )
    domain = tuple(str(i) for i in range(cfg.domain_size))

    if cfg.mode == EXHAUSTIVE:
        if len(domain) ** len(attrs) > _MAX_GRID:
            raise ConfigError(
                f"exhaustive mode over {len(attrs)} attributes and {len(domain)} values "
                f"exceeds the 2^{_MAX_GRID}-team limit"
            )
        cache = _cache_for(attrs, domain)
        every_team = (1 << cache.count) - 1
        sigma_mask = every_team
        for hyp in sigma.atoms:
            sigma_mask &= cache.mask(hyp)
        refuting = sigma_mask & ~cache.mask(goal) & every_team
        checked += cache.count
        if refuting:
            index = (refuting & -refuting).bit_length() - 1
            return OracleResult(OracleStatus.REFUTED, cache.teams[index], checked)
        largest = max((a.k for a in (*sigma.atoms, goal)), default=2)
        if largest > 2 and cfg.domain_size < largest + 1:
            return OracleResult(OracleStatus.UNKNOWN, None, checked)
        return OracleResult(OracleStatus.ENTAILED, None, checked)

    rng = random.Random(cfg.seed)
    budget = min(16, len(domain) ** len(attrs)) if attrs else 1
    for _ in range(cfg.samples):
        team = random_team(attrs, domain, budget, rng.randrange(2**32))
        checked += 1
        if _refutes(team, sigma, goal):
            return OracleResult(OracleStatus.REFUTED, team, checked)
    return OracleResult(OracleStatus.UNKNOWN, None, checked)
