"""The oracle's former exhaustive search, kept as a test reference: a
satisfaction bitmap over all 2^g teams of a full grid of g rows, one bit
per team.  It decides the same questions as the oracle's fixpoint search
by a different route, so the two are cross-tested for equality.
"""

from __future__ import annotations

from collections import defaultdict

from anonatom.countermodel import _candidates, _Grid, _grid
from anonatom.oracle import OracleConfig, OracleResult, OracleStatus
from anonatom.query import AtomSet, _Form, _Query
from anonatom.team import Team


class Lattice:
    """Satisfaction bitmaps over the teams of one full grid, computed from
    its rows.

    The rows are the grid's in sorted order, which for one-digit tokens is
    ``itertools.product`` order.  Team i selects row j iff bit j of i is
    set, so a bitmap has one bit per team (2^g bits for g rows) and the
    lowest refuting index is the lowest-index refuter.  No team is built
    to fill a bitmap:

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
    (``query._Query``), with k clamped to the grid's rows + 1, as
    ``_Grid.holds`` clamps it.
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
        if form[2] > self.grid.most:
            form = (form[0], form[1], self.grid.most)
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


_lattices: dict[tuple[int, int], Lattice] = {}


def lattice_entails(sigma: AtomSet, goal, cfg: OracleConfig) -> OracleResult:
    """``semantic_entails`` by the bitmaps: the candidates
    first, then the lowest-index refuting team over the full grid, and
    ENTAILED or UNKNOWN by the oracle's rule otherwise."""
    query = _Query(sigma, goal)
    attrs = query.attrs
    candidate = next(_candidates(query), None)
    if candidate is not None:
        return OracleResult(OracleStatus.REFUTED, candidate[1], 1)
    shape = (len(attrs), cfg.domain_size)
    lattice = _lattices.get(shape)
    if lattice is None:
        lattice = _lattices[shape] = Lattice(_grid(*shape))
    sigma_mask = lattice.every_team
    for _, form in query.hyps:
        sigma_mask &= lattice.mask(form)
    refuting = sigma_mask & ~lattice.mask(query.goal_form)
    if refuting:
        index = (refuting & -refuting).bit_length() - 1
        return OracleResult(OracleStatus.REFUTED, lattice.team(attrs, index), lattice.count)
    if max((a.k for a in (*sigma.atoms, goal)), default=2) > 2:
        return OracleResult(OracleStatus.UNKNOWN, None, lattice.count)
    return OracleResult(OracleStatus.ENTAILED, None, lattice.count)
