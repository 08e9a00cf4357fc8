"""Explicit refuting teams for non-derivable entailment claims.

Three constructions are used, all over decimal string tokens "0", "1",
... so that only equality matters:

* ``ternary grid`` (plain fragment): over domain {0,1,2}, keep every
  assignment with a nonzero published coordinate or an all-zero
  protected tuple.  The all-zero row then has no partner differing on
  the protected side, so the goal fails, while every non-subsuming
  hypothesis keeps its witnesses.
* ``truncated grid`` (simple k-atoms): over domain {0..D-1}, keep every
  assignment with a nonzero published coordinate or a protected value
  below k-1.  The all-zero published group then shows at most k-1
  protected values.  D starts at goal multiplicity + the largest
  hypothesis multiplicity and grows until verification passes; a finite
  hypothesis set always admits a finite refuter even though unbounded
  multiplicity demands would not.
* ``full grid`` (goals whose protected side cancels away): such goals
  hold only on the empty team, so any nonempty team satisfying the
  hypotheses refutes them; the full grid over a domain at least as large
  as every hypothesis multiplicity does.

Builders verify their own output with the checkers and raise
``VerificationError`` instead of returning an unverified report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .atoms import Atom, satisfies
from .errors import FragmentError, ResourceError, VerificationError
from .inference import AtomSet, _inconsistent_member, _subsuming, normalize, universe
from .team import Schema, Team

CONSTRUCTION_TERNARY = "ternary-grid"
CONSTRUCTION_TRUNCATED = "truncated-grid"
CONSTRUCTION_FULL = "full-grid"
CONSTRUCTION_WITNESS = "explicit-witness"


@dataclass(frozen=True)
class CountermodelReport:
    """A team refuting ``failed_goal`` while satisfying every hypothesis,
    together with the bookkeeping that was machine-checked at build time."""

    team: Team
    satisfied_hypotheses: tuple[tuple[Atom, bool], ...]
    failed_goal: Atom
    domain_size: int
    construction: str


def verify_countermodel(report: CountermodelReport, sigma: AtomSet, goal: Atom) -> bool:
    """Re-run the checkers: every hypothesis holds and the goal fails."""
    team = report.team
    return all(satisfies(team, hyp) for hyp in sigma.atoms) and not satisfies(team, goal)


def _report(
    team: Team, sigma: AtomSet, goal: Atom, domain_size: int, construction: str
) -> CountermodelReport | None:
    """The report for ``team`` if it satisfies ``sigma`` and fails ``goal``."""
    status = tuple((hyp, True) for hyp in sigma.atoms)
    report = CountermodelReport(team, status, goal, domain_size, construction)
    return report if verify_countermodel(report, sigma, goal) else None


def _checked_report(
    team: Team, sigma: AtomSet, goal: Atom, domain_size: int, construction: str
) -> CountermodelReport:
    report = _report(team, sigma, goal, domain_size, construction)
    if report is None:
        raise VerificationError(
            f"{construction} construction failed verification for goal {goal} "
            f"(is the goal actually derivable from the hypotheses?)"
        )
    return report


def _grid_team(
    attrs: Iterable[str],
    domain_size: int,
    published: Iterable[str] = (),
    protected: Iterable[str] = (),
    bound: int = 0,
) -> Team:
    """All assignments over ``attrs`` x {0..domain_size-1} with a nonzero
    ``published`` value or every ``protected`` value at most ``bound``.

    ``published`` and ``protected`` are disjoint; with no protected
    attributes every assignment is kept.  The rows come from products of
    per-attribute value choices, with no test per assignment: the full
    grid, less its all-zero published slice, plus the part of that slice
    whose protected values are all at most ``bound``.
    """
    names = tuple(sorted(attrs))
    tokens = tuple(str(v) for v in range(domain_size))

    def grid(choices: dict[str, tuple[str, ...]]) -> set[tuple[str, ...]]:
        return set(itertools.product(*(choices.get(a, tokens) for a in names)))

    zero = dict.fromkeys(published, tokens[:1])
    low = dict.fromkeys(protected, tokens[: bound + 1])
    rows = grid({}) - grid(zero) | grid({**zero, **low})
    return Team._trusted(Schema(names), frozenset(rows))


def ternary_team_size(attribute_count: int, published: int, protected: int) -> int:
    """Closed form for the ternary grid's row count with disjoint sides:
    3^|W| minus the rows with an all-zero published tuple and a not-all-zero
    protected tuple."""
    free = attribute_count - published - protected
    return 3**attribute_count - (3**free) * (3**protected - 1)


def build_anonymity_countermodel(
    sigma: AtomSet, goal: Atom, *, max_attributes: int = 12
) -> CountermodelReport:
    """Ternary-grid refuter for a non-derivable plain-fragment goal.

    Requires a goal whose protected side survives normalization; goals
    that cancel to an empty protected side need ``build_full_grid_countermodel``.
    """
    if goal.k != 2 or any(a.k != 2 for a in sigma.atoms):
        raise FragmentError("the ternary construction covers multiplicity-2 atoms only")
    g = normalize(goal)
    if not g.protected:
        raise ValueError(
            "goal protects nothing after cancellation; use build_full_grid_countermodel"
        )
    attrs = universe(sigma, goal)
    if len(attrs) > max_attributes:
        raise ResourceError(
            f"{len(attrs)} attributes would enumerate 3^{len(attrs)} assignments; "
            f"cap is {max_attributes} (try a smaller instance)"
        )

    team = _grid_team(attrs, 3, g.published, g.protected)
    return _checked_report(team, sigma, goal, 3, CONSTRUCTION_TERNARY)


def build_k_anonymity_countermodel(
    sigma: AtomSet,
    goal: Atom,
    *,
    max_domain: int = 64,
    max_rows: int = 2_000_000,
) -> CountermodelReport:
    """Truncated-grid refuter for a non-derivable simple k-atom goal.

    The domain starts at max(3, goal.k + largest hypothesis multiplicity)
    and grows until verification passes; the report records the domain
    size used.
    """
    for atom in (*sigma.atoms, goal):
        if not atom.is_simple:
            raise FragmentError(f"{atom} is not simple; the truncated grid needs |protected| = 1")
    if goal.k < 2:
        raise ValueError("multiplicity-1 goals hold everywhere; nothing to refute")
    g = normalize(goal)
    if not g.protected:
        raise ValueError(
            "goal protects nothing after cancellation; use build_full_grid_countermodel"
        )
    # guard the documented precondition (a non-derivable instance): when the
    # goal follows from the hypotheses no truncation can ever verify
    bad = _inconsistent_member(sigma)
    if bad is not None:
        raise ValueError(
            f"hypotheses are inconsistent ({bad} holds on the empty team only); "
            "every goal is derivable, nothing to refute"
        )
    hyp = _subsuming(sigma, goal)
    if hyp is not None:
        raise ValueError(f"{hyp} subsumes the goal; the entailment holds, nothing to refute")
    attrs = universe(sigma, goal)
    max_mult = max((a.k for a in sigma.atoms), default=1)
    domain = max(3, goal.k + max(1, max_mult))
    while domain <= max_domain:
        if domain ** len(attrs) > max_rows:
            raise ResourceError(
                f"domain {domain} over {len(attrs)} attributes exceeds {max_rows} rows"
            )
        team = _grid_team(attrs, domain, g.published, g.protected, goal.k - 2)
        report = _report(team, sigma, goal, domain, CONSTRUCTION_TRUNCATED)
        if report is not None:
            return report
        domain += 1
    raise ResourceError(
        f"no refuting truncation found up to domain size {max_domain} for goal {goal}"
    )


def build_full_grid_countermodel(
    sigma: AtomSet, goal: Atom, *, max_rows: int = 2_000_000
) -> CountermodelReport:
    """Full-grid refuter for goals that hold on the empty team only
    (protected side empty after cancellation, k >= 2)."""
    g = normalize(goal)
    if g.protected or g.k < 2:
        raise ValueError("the full grid refutes empty-protected goals with k >= 2 only")
    attrs = universe(sigma, goal)
    domain = max(2, max((a.k for a in sigma.atoms), default=2))
    if domain ** len(attrs) > max_rows:
        raise ResourceError(
            f"domain {domain} over {len(attrs)} attributes exceeds {max_rows} rows"
        )
    team = _grid_team(attrs, domain)
    return _checked_report(team, sigma, goal, domain, CONSTRUCTION_FULL)


def witness_report(team: Team, sigma: AtomSet, goal: Atom) -> CountermodelReport:
    """Wrap an explicitly supplied team as a verified countermodel."""
    distinct_values = {v for row in team.rows for v in row}
    return _checked_report(team, sigma, goal, len(distinct_values), CONSTRUCTION_WITNESS)


def candidate_teams(sigma: AtomSet, goal: Atom) -> Iterator[tuple[str, Team]]:
    """Refuters from the constructions that apply, each verified by its builder.

    The constructions are complete refuters on their fragments, so an
    oracle that tries them before enumerating never misses a refutation;
    small-domain enumeration alone can (some non-entailed plain-fragment
    claims have no two-valued countermodel at all).
    """
    g = normalize(goal)
    if not g.protected and g.k >= 2:
        try:
            yield CONSTRUCTION_FULL, build_full_grid_countermodel(sigma, goal).team
        except (ResourceError, VerificationError):
            pass
        return
    if goal.k == 2 and all(a.k == 2 for a in sigma.atoms):
        try:
            yield CONSTRUCTION_TERNARY, build_anonymity_countermodel(sigma, goal).team
        except (ResourceError, VerificationError, ValueError):
            pass
    if goal.k >= 2 and goal.is_simple and all(a.is_simple for a in sigma.atoms):
        try:
            yield CONSTRUCTION_TRUNCATED, build_k_anonymity_countermodel(sigma, goal).team
        except (ResourceError, VerificationError, ValueError):
            pass
