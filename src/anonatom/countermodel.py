"""Explicit refuting teams for non-derivable entailment claims.

Two constructions are used, both over decimal string tokens "0", "1",
... so that only equality matters:

* ``truncated grid`` (plain fragment and simple k-atoms): over domain
  {0..D-1}, keep every assignment with a nonzero published coordinate or
  every protected value below k-1.  The all-zero published group then
  shows at most k-1 protected values, so the goal fails.  A group of a
  grid over D values shows at most D values of one protected attribute,
  so a simple hypothesis of multiplicity m > D fails there: D starts at
  max(3, the largest hypothesis multiplicity), the smallest domain that
  can refute, and grows until the grid refutes.  At D = 3 and k = 2 this
  is the ternary grid (a nonzero published coordinate or an all-zero
  protected tuple), and the report says ``ternary-grid``.
* ``full grid`` (goals whose protected side cancels away): such goals
  hold only on the empty team, so any nonempty team satisfying the
  hypotheses refutes them; the full grid over a domain at least as large
  as every hypothesis multiplicity does.

``_refuter`` picks one of the two; the engines and the oracle call it.
Each construction checks its grid with the checkers and returns None
when it does not refute; the truncated grid consults consistency and
subsumption only before it grows past its first domain.  The public
builders and the engines raise ``VerificationError`` then instead of
returning an unverified report.  The public builders put ``(sigma,
goal)`` in normal form (``query._Query``) and check its fragment; the
engines and the oracle pass the form they hold straight to the
constructions.  The size caps are the module constants below, checked
before any row is built.

A grid depends only on its shape: the number of attributes, the domain
size, the goal's published and protected masks over the sorted attribute
names, and the truncation bound (at most D-1).  Grids inside the
oracle's grid space (at most ``GRID_SPACE_ATTRIBUTES`` attributes over
at most ``GRID_SPACE_DOMAIN`` values, so at most 81 rows) are built once
per shape and kept, with a memo of ``satisfies`` verdicts on them keyed
by the atom's form, k clamped to the grid's rows + 1, so the engines and
the oracle build each small grid once and check each atom shape on it
once.  The oracle keeps the group masks of its search over a full grid
on that grid's entry (``_Grid.groups``), so this is the one process-wide
grid cache.  It is bounded by that grid space: a few hundred shapes,
each with verdicts for at most 3^4 atom sides times 82 multiplicities,
and group masks for at most 3^4 atom sides.  Larger grids are built and
checked on every call.  Each team still carries the instance's own
attribute names, and ``verify_countermodel`` always runs the checkers on
the team itself.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ._value import Value, _set
from .atoms import Atom, satisfies
from .errors import FragmentError, ResourceError, VerificationError
from .query import AtomSet, _Form, _inconsistent_member, _Query, _subsuming
from .team import Row, Schema, Team

CONSTRUCTION_TERNARY = "ternary-grid"
CONSTRUCTION_TRUNCATED = "truncated-grid"
CONSTRUCTION_FULL = "full-grid"

# The oracle's grid space, the bounds of ``OracleConfig``: at most this many
# attributes over at most this many values.  Only grids inside it are cached.
GRID_SPACE_ATTRIBUTES = 4
GRID_SPACE_DOMAIN = 3

MAX_ATTRIBUTES = 12  # of a truncated grid, which has at least 3^n assignments
MAX_DOMAIN = 64  # the truncated grid's largest domain
MAX_ROWS = 2_000_000  # assignments of a truncated or full grid


class CountermodelReport(Value):
    """A team refuting ``failed_goal`` while satisfying every hypothesis,
    together with the bookkeeping that was machine-checked at build time."""

    _fields = ("team", "satisfied_hypotheses", "failed_goal", "domain_size", "construction")
    team: Team
    satisfied_hypotheses: tuple[tuple[Atom, bool], ...]
    failed_goal: Atom
    domain_size: int
    construction: str

    def __init__(
        self,
        team: Team,
        satisfied_hypotheses: tuple[tuple[Atom, bool], ...],
        failed_goal: Atom,
        domain_size: int,
        construction: str,
    ) -> None:
        _set(self, "team", team)
        _set(self, "satisfied_hypotheses", satisfied_hypotheses)
        _set(self, "failed_goal", failed_goal)
        _set(self, "domain_size", domain_size)
        _set(self, "construction", construction)


def verify_countermodel(report: CountermodelReport, sigma: AtomSet, goal: Atom) -> bool:
    """Re-run the checkers: every hypothesis holds and the goal fails."""
    return _refutes(report.team, sigma, goal)


def _refutes(team: Team, sigma: AtomSet, goal: Atom) -> bool:
    return all(satisfies(team, hyp) for hyp in sigma.atoms) and not satisfies(team, goal)


def _report(
    grid: _Grid, query: _Query, domain_size: int, construction: str
) -> CountermodelReport | None:
    """The report for ``grid`` as a team over the query's attributes if it
    satisfies the query's hypotheses and fails its goal, as the grid's memo
    of ``satisfies`` tells."""
    team, goal = grid.team(query.attrs), query.goal
    satisfied = all(grid.holds(team, hyp, form) for hyp, form in query.hyps)
    if not satisfied or grid.holds(team, goal, query.goal_form):
        return None
    status = tuple((hyp, True) for hyp in query.sigma.atoms)
    return CountermodelReport(team, status, goal, domain_size, construction)


def _verified(
    report: CountermodelReport | None, query: _Query, construction: str
) -> CountermodelReport:
    """``report``, or VerificationError when ``construction`` did not refute."""
    if report is None:
        raise VerificationError(
            f"{construction} construction failed verification for goal {query.goal} "
            f"(is the goal actually derivable from the hypotheses?)"
        )
    return report


class _Grid:
    """The rows of one grid shape, over tokens and sorted attribute positions,
    with the ``satisfies`` verdict of each atom form checked on them.

    ``groups`` is free for the oracle's group masks over the rows of a
    full grid, one entry per atom side it searches; it stays None until
    the oracle searches this grid."""

    def __init__(self, rows: frozenset[Row]):
        self.rows = rows
        self.most = len(rows) + 1  # no group of these rows shows more values
        self.schema: Schema | None = None  # the last caller's, already validated
        self.groups: dict | None = None
        self._verdicts: dict[_Form, bool] = {}

    def team(self, names: tuple[str, ...], rows: frozenset[Row] | None = None) -> Team:
        """The grid, or its subteam ``rows``, as a team over ``names``;
        SchemaError if a name is invalid."""
        schema = self.schema
        if schema is None or schema.attributes != names:
            schema = self.schema = Schema(names)
        return Team._trusted(schema, self.rows if rows is None else rows)

    def holds(self, team: Team, atom: Atom, form: _Form) -> bool:
        """``satisfies(team, atom)`` for a ``team`` over this grid's rows,
        checked once per ``form`` of ``atom`` over the team's attributes,
        with k clamped to rows + 1: an atom of the clamped form holds on the
        same teams over these rows."""
        if form[2] > self.most:
            form = (form[0], form[1], self.most)
        verdict = self._verdicts.get(form)
        if verdict is None:
            verdict = self._verdicts[form] = satisfies(team, atom)
        return verdict


_grids: dict[tuple, _Grid] = {}


def _grid_rows(
    arity: int, domain_size: int, published: int, protected: int, bound: int
) -> frozenset[Row]:
    """All assignments of {0..domain_size-1} to ``arity`` positions with a
    nonzero value at a ``published`` position or every value at a
    ``protected`` position at most ``bound`` (both position bitmasks).

    The rows come from products of per-position value choices, with no
    test per assignment: the full grid, less its all-zero published slice,
    plus the part of that slice whose protected values are all at most
    ``bound``.
    """
    tokens = tuple(str(v) for v in range(domain_size))

    def grid(choices: dict[int, tuple[str, ...]]) -> set[Row]:
        return set(itertools.product(*(choices.get(i, tokens) for i in range(arity))))

    zero = {i: tokens[:1] for i in range(arity) if published >> i & 1}
    low = {i: tokens[: bound + 1] for i in range(arity) if protected >> i & 1}
    return frozenset(grid({}) - grid(zero) | grid({**zero, **low}))


def _grid(
    n: int, domain_size: int, published: int = 0, protected: int = 0, bound: int = 0
) -> _Grid:
    """The grid of ``_grid_rows`` over ``n`` sorted attribute positions x
    {0..domain_size-1}; ResourceError past ``MAX_ROWS`` assignments.

    ``published`` and ``protected`` are disjoint position masks; with no
    protected positions every assignment is kept (the full grid).  Grids
    inside the oracle's grid space come from the shape cache.
    """
    if domain_size**n > MAX_ROWS:
        raise ResourceError(f"domain {domain_size} over {n} attributes exceeds {MAX_ROWS} rows")
    # a bound past domain_size - 1 keeps the same rows, so it shares their key
    key = (n, domain_size, published, protected, min(bound, domain_size - 1))
    grid = _grids.get(key)
    if grid is None:
        grid = _Grid(_grid_rows(*key))
        if n <= GRID_SPACE_ATTRIBUTES and domain_size <= GRID_SPACE_DOMAIN:
            _grids[key] = grid
    return grid


def _refutable(query: _Query) -> None:
    """ValueError unless the goal has k >= 2 and protects something after cancellation."""
    if query.goal.k < 2:
        raise ValueError("multiplicity-1 goals hold everywhere; nothing to refute")
    if not query.goal_form[1]:
        raise ValueError(
            "goal protects nothing after cancellation; use build_full_grid_countermodel"
        )


def build_anonymity_countermodel(sigma: AtomSet, goal: Atom) -> CountermodelReport:
    """Ternary-grid refuter for a non-derivable plain-fragment goal: the
    truncated grid at D = 3, which always refutes one.

    Requires a goal whose protected side survives normalization; goals
    that cancel to an empty protected side need ``build_full_grid_countermodel``.
    """
    query = _Query(sigma, goal)
    if not query.plain:
        raise FragmentError("the ternary construction covers multiplicities up to 2 only")
    _refutable(query)
    return _verified(_truncated(query), query, CONSTRUCTION_TERNARY)


def build_k_anonymity_countermodel(sigma: AtomSet, goal: Atom) -> CountermodelReport:
    """Truncated-grid refuter for a non-derivable simple k-atom goal.

    The domain starts at max(3, largest hypothesis multiplicity), the
    smallest that can refute, and grows until the grid refutes; the report
    records the domain size used, and says ``ternary-grid`` for the grid
    at D = 3 of a k = 2 goal.
    """
    query = _Query(sigma, goal)
    if not query.simple:
        raise FragmentError("an atom is not simple; the truncated grid needs |protected| = 1")
    _refutable(query)
    # guard the documented precondition (a non-derivable instance): when the
    # goal follows from the hypotheses no grid refutes it
    bad = _inconsistent_member(query.hyps)
    if bad is not None:
        raise ValueError(
            f"hypotheses are inconsistent ({bad} holds on the empty team only); "
            "every goal is derivable, nothing to refute"
        )
    hyp = _subsuming(query.hyps, query.goal_form)
    if hyp is not None:
        raise ValueError(f"{hyp} subsumes the goal; the entailment holds, nothing to refute")
    return _verified(_truncated(query), query, CONSTRUCTION_TRUNCATED)


def _refuter(query: _Query) -> CountermodelReport | None:
    """The full grid if the goal protects nothing after cancellation, else
    the truncated grid (for plain-fragment or simple instances)."""
    return (_truncated if query.goal_form[1] else _full_grid)(query)


def _truncated(query: _Query) -> CountermodelReport | None:
    """The truncated grid over the smallest refuting domain up to
    ``MAX_DOMAIN``; None if the first does not refute and the instance is
    inconsistent or subsumed, so that none can."""
    n = len(query.attrs)
    if n > MAX_ATTRIBUTES:
        raise ResourceError(
            f"{n} attributes would enumerate 3^{n} assignments; "
            f"cap is {MAX_ATTRIBUTES} (try a smaller instance)"
        )
    published, protected, k = query.goal_form
    start = max([3, *[form[2] for _, form in query.hyps]])
    for domain in range(start, MAX_DOMAIN + 1):
        grid = _grid(n, domain, published, protected, k - 2)
        construction = CONSTRUCTION_TERNARY if domain == 3 and k == 2 else CONSTRUCTION_TRUNCATED
        report = _report(grid, query, domain, construction)
        if report is not None:
            return report
        if domain == start and (
            _inconsistent_member(query.hyps) is not None
            or _subsuming(query.hyps, query.goal_form) is not None
        ):
            return None
    raise ResourceError(
        f"no refuting truncation found up to domain size {MAX_DOMAIN} for goal {query.goal}"
    )


def build_full_grid_countermodel(sigma: AtomSet, goal: Atom) -> CountermodelReport:
    """Full-grid refuter for goals that hold on the empty team only
    (protected side empty after cancellation, k >= 2)."""
    query = _Query(sigma, goal)
    _, protected, k = query.goal_form
    if protected or k < 2:
        raise ValueError("the full grid refutes empty-protected goals with k >= 2 only")
    return _verified(_full_grid(query), query, CONSTRUCTION_FULL)


def _full_grid(query: _Query) -> CountermodelReport | None:
    domain = max(2, max((form[2] for _, form in query.hyps), default=2))
    grid = _grid(len(query.attrs), domain)
    return _report(grid, query, domain, CONSTRUCTION_FULL)


def candidate_teams(sigma: AtomSet, goal: Atom) -> Iterator[tuple[str, Team]]:
    """At most one ``(construction, team)``: the verified refuter of
    ``_refuter``, if the goal has k >= 2, the instance is plain or simple
    (``_Query.plain``, ``_Query.simple``) or its goal protects nothing
    after cancellation, and a grid within ``MAX_ROWS`` refutes.

    The constructions are complete refuters on their fragments, so an
    oracle that tries them before enumerating never misses a refutation;
    small-domain enumeration alone can (some non-entailed plain-fragment
    claims have no two-valued countermodel at all).
    """
    return _candidates(_Query(sigma, goal))


def _candidates(query: _Query) -> Iterator[tuple[str, Team]]:
    _, protected, k = query.goal_form
    if k < 2 or protected and not (query.plain or query.simple):
        return
    try:
        report = _refuter(query)
    except ResourceError:
        return
    if report is not None:
        yield report.construction, report.team
