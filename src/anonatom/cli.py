"""Command surface: ``check``, ``audit``, ``entail``, and ``oracle``.

Each invocation writes one structured JSON report, on one line, to
standard output (or a human-readable rendering with ``--pretty``) and
exits with the stable status contract: 0 holds/derivable/entailed,
1 fails/refuted, 2 usage or input error, 3 unknown.  ``main`` builds the
report's header and prints every report, error records included.

Each command imports the modules it runs when it runs, so that a process
loads only what its command needs: ``audit`` no entailment module,
``--version`` none of the checkers.

A report that cannot be written (standard output closed, a closed pipe, a
full disk) exits 2 with one line on standard error.  ``console_main``, the
command-line entry, ends the process without the interpreter's teardown:
freeing every module and object took 5-7 ms of a ~57 ms ``oracle`` run, 12 %
of an instrumented one, against 0.38 ms of search.  mypy's
``util.hard_exit`` makes the same trade.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .errors import AnonatomError, ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .atoms import Atom

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3

# Exit codes by ``Verdict`` and by ``OracleStatus``, both string enums.
_VERDICT_EXIT = {"derivable": EXIT_HOLDS, "not-derivable": EXIT_FAILS, "unknown": EXIT_UNKNOWN}
_STATUS_EXIT = {"entailed": EXIT_HOLDS, "refuted": EXIT_FAILS, "unknown": EXIT_UNKNOWN}

# What a command returns to ``main``: the exit code, the report's fields
# after the header ``main`` adds, and the ``--pretty`` lines.
_Report = tuple[int, dict, list[str]]


def _split_names(raw: str) -> tuple[str, ...]:
    return tuple(part for part in (p.strip() for p in raw.split(",")) if part)


def _team_summary(path: str, loaded) -> dict:
    return {
        "path": path,
        "attributes": list(loaded.team.schema.attributes),
        "rows": len(loaded.team),
        "duplicate_rows": loaded.duplicate_rows,
    }


def _atom_text(atom: Atom) -> str | None:
    from .syntax import format_atom

    try:
        return format_atom(atom)
    except ValueError:
        return None


def _derivation_document(derivation) -> dict:
    """``Derivation.to_dict`` with each node's conclusion also as text."""
    from .inference import _atom_to_dict

    doc = {
        "rule": derivation.rule.value,
        "conclusion": _atom_to_dict(derivation.conclusion),
        "premises": [_derivation_document(premise) for premise in derivation.premises],
    }
    text = _atom_text(derivation.conclusion)
    if text is not None:
        doc["text"] = text
    return doc


def _derivation_pretty(derivation, indent: int = 0) -> list[str]:
    atom = derivation.conclusion
    text = _atom_text(atom) or repr(atom)
    lines = ["  " * indent + f"[{derivation.rule.value}] {text}"]
    for premise in derivation.premises:
        lines.extend(_derivation_pretty(premise, indent + 1))
    return lines


def _countermodel_document(report, csv_path: str | None) -> dict:
    doc = {
        "construction": report.construction,
        "domain_size": report.domain_size,
        "rows": len(report.team),
        "attributes": list(report.team.schema.attributes),
        "failed_goal": _atom_text(report.failed_goal),
    }
    if csv_path is not None:
        doc["csv_path"] = csv_path
    if len(report.team) <= 100:
        doc["team"] = [list(row) for row in report.team.sorted_rows()]
    return doc


def _cmd_check(args) -> _Report:
    from .teamio import read_team_csv

    # a malformed query fails before the table is read
    if args.atom is not None:
        from .syntax import parse_atom

        atom = parse_atom(args.atom)
    else:
        from .teamlogic import parse_formula

        formula = parse_formula(args.formula)
    loaded = read_team_csv(args.team)
    team = loaded.team
    if loaded.duplicate_rows:
        print(f"warning: collapsed {loaded.duplicate_rows} duplicate row(s)", file=sys.stderr)
    document: dict = {"team": _team_summary(args.team, loaded)}
    pretty = [f"team: {args.team} ({len(team)} rows)"]
    if args.atom is not None:
        from .atoms import _picker, group_distinct_counts

        counts = group_distinct_counts(team, atom.published, atom.protected)
        failing = [key for key, (_, distinct) in counts.items() if distinct < atom.k]
        verdict = not failing
        document["query"] = {"kind": "atom", "text": args.atom.strip()}
        document["verdict"] = verdict
        evidence = None
        if failing:
            key = min(failing)
            pick = key[0] if len(key) == 1 else key  # as _picker gives it
            picks = map(_picker(team, atom.published), team.rows)
            rows = itertools.compress(team.rows, map(pick.__eq__, picks))
            evidence = {
                "published_key": list(key),
                "distinct_protected": counts[key][1],
                "required": atom.k,
                "rows": [list(row) for row in sorted(rows)],
            }
        document["evidence"] = evidence
        pretty.append(f"atom: {args.atom.strip()}")
        pretty.append(f"verdict: {'holds' if verdict else 'fails'}")
        if evidence:
            pretty.append(
                f"first failing group {tuple(evidence['published_key'])}: "
                f"{evidence['distinct_protected']} distinct protected tuple(s), "
                f"needs {evidence['required']}"
            )
    else:
        from .teamlogic import _quantifies, evaluate

        domain = None  # only an ``exists`` reads the domain
        if args.domain is not None:  # "" and "," both give the empty domain
            domain = _split_names(args.domain)
        elif _quantifies(formula):
            domain = tuple(sorted(set(itertools.chain.from_iterable(team.rows))))
        verdict = evaluate(team, () if domain is None else domain, formula)
        document["query"] = {"kind": "formula", "text": args.formula.strip()}
        document["domain"] = None if domain is None else list(domain)
        document["verdict"] = verdict
        document["evidence"] = None
        pretty.append(f"formula: {args.formula.strip()}")
        pretty.append(f"verdict: {'holds' if verdict else 'fails'}")
    return EXIT_HOLDS if verdict else EXIT_FAILS, document, pretty


def _cmd_audit(args) -> _Report:
    from .atoms import UNBOUNDED, group_distinct_counts
    from .teamio import read_team_csv

    if args.min_k is not None and args.min_k < 1:
        raise ConfigError(f"--min-k must be at least 1, got {args.min_k}")
    loaded = read_team_csv(args.team)
    team = loaded.team
    publish = _split_names(args.publish)
    protect = _split_names(args.protect)
    if not protect:
        raise ConfigError("--protect needs at least one attribute")
    counts = group_distinct_counts(team, publish, protect)
    degree = min((distinct for _, distinct in counts.values()), default=UNBOUNDED)
    groups = []
    for key in sorted(counts):  # keys alone sort faster than (key, counts) items
        size, distinct = counts[key]
        groups.append({"key": list(key), "rows": size, "distinct_protected": distinct})
    unbounded = degree == UNBOUNDED
    document = {
        "team": _team_summary(args.team, loaded),
        "publish": list(publish),
        "protect": list(protect),
        "degree": "unbounded" if unbounded else degree,
        "groups": groups,
    }
    pretty = [
        f"team: {args.team} ({len(team)} rows)",
        f"publish: {', '.join(publish) if publish else '(nothing)'}",
        f"protect: {', '.join(protect)}",
        f"anonymity degree: {'unbounded' if unbounded else degree}",
    ]
    if args.pretty:
        pretty += (
            f"  group {tuple(group['key'])}: {group['rows']} row(s), "
            f"{group['distinct_protected']} distinct protected tuple(s)"
            for group in groups
        )
    status = EXIT_HOLDS
    if args.min_k is not None:
        meets = degree >= args.min_k
        document["min_k"] = args.min_k
        document["meets_min_k"] = meets
        pretty.append(f"meets k >= {args.min_k}: {'yes' if meets else 'no'}")
        if not meets:
            status = EXIT_FAILS
    return status, document, pretty


def _cmd_entail(args) -> _Report:
    from . import inference
    from .query import _Query
    from .syntax import format_atom, load_sigma_file, parse_atom

    sigma = load_sigma_file(args.sigma)
    goal = parse_atom(args.goal)
    query = _Query(sigma, goal)  # the first engine whose fragment holds the instance
    if query.plain:
        mode, engine = "upsilon", inference.entails_anonymity
    elif query.simple:
        mode, engine = "k-simple", inference.entails_k_simple
    else:
        mode, engine = "k-saturate", inference.entails_k_saturate
    result = engine(sigma, goal)
    document = {
        "mode": mode,
        "sigma": [format_atom(a) for a in sigma.atoms],
        "goal": args.goal.strip(),
        "verdict": result.verdict.value,
    }
    pretty = [f"goal: {args.goal.strip()}", f"verdict: {result.verdict.value}"]
    if result.verdict is inference.Verdict.DERIVABLE:
        document["derivation"] = _derivation_document(result.derivation)
        pretty.append("derivation:")
        pretty.extend(_derivation_pretty(result.derivation, indent=1))
    elif result.verdict is inference.Verdict.NOT_DERIVABLE:
        csv_path = None
        if args.countermodel_out:
            from .teamio import write_team_csv

            write_team_csv(result.countermodel.team, args.countermodel_out)
            csv_path = args.countermodel_out
        document["countermodel"] = _countermodel_document(result.countermodel, csv_path)
        pretty.append(
            f"countermodel: {len(result.countermodel.team)} rows "
            f"({result.countermodel.construction}, domain size {result.countermodel.domain_size})"
        )
        if csv_path:
            pretty.append(f"countermodel written to {csv_path}")
    else:
        document["saturated_atoms"] = closed = len(result.saturated or ())
        pretty.append(f"saturation closed over {closed} atoms without reaching the goal")
    return _VERDICT_EXIT[result.verdict.value], document, pretty


def _cmd_oracle(args) -> _Report:
    from .oracle import OracleConfig, semantic_entails
    from .syntax import format_atom, load_sigma_file, parse_atom

    sigma = load_sigma_file(args.sigma)
    goal = parse_atom(args.goal)
    cfg = OracleConfig(domain_size=args.domain_size, attribute_limit=args.attrs)
    result = semantic_entails(sigma, goal, cfg)
    document = {
        "sigma": [format_atom(a) for a in sigma.atoms],
        "goal": args.goal.strip(),
        "status": result.status.value,
        "teams_checked": result.teams_checked,
    }
    pretty = [f"goal: {args.goal.strip()}", f"status: {result.status.value}"]
    if result.refuter is not None:
        document["refuter"] = {
            "attributes": list(result.refuter.schema.attributes),
            "rows": [list(r) for r in result.refuter.sorted_rows()],
        }
        pretty.append(f"refuting team has {len(result.refuter)} row(s)")
        if args.refuter_out:
            from .teamio import write_team_csv

            write_team_csv(result.refuter, args.refuter_out)
            document["refuter"]["csv_path"] = args.refuter_out
            pretty.append(f"refuter written to {args.refuter_out}")
    return _STATUS_EXIT[result.status.value], document, pretty


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage and exiting, so that
    they reach ``main``'s JSON error record like every other input error."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="anonatom",
        description="Model-check anonymity atoms over CSV teams, audit anonymity "
        "degrees, and decide implication between anonymity atoms.",
    )
    parser.add_argument("--version", action="version", version=f"anonatom {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)  # the options of every command
    report.add_argument("--pretty", action="store_true", help="human-readable output")
    command = functools.partial(commands.add_parser, parents=[report])

    check = command("check", help="evaluate one atom or formula on a CSV team")
    check.add_argument("--team", required=True, help="CSV file with a header row")
    what = check.add_mutually_exclusive_group(required=True)
    what.add_argument("--atom", help="atom text, e.g. 'hometown salary Y surname'")
    what.add_argument("--formula", help="formula text, e.g. 'pub = \"private\" -> anon(2 ; d ; a)'")
    check.add_argument("--domain", help="comma-separated quantifier domain (default: team values)")
    check.set_defaults(func=_cmd_check)

    audit = command("audit", help="largest k keeping protected attributes k-anonymous")
    audit.add_argument("--team", required=True)
    audit.add_argument("--publish", required=True, help="comma-separated published attributes")
    audit.add_argument("--protect", required=True, help="comma-separated protected attributes")
    audit.add_argument("--min-k", type=int, default=None, help="exit 1 when the degree is below K")
    audit.set_defaults(func=_cmd_audit)

    entail = command("entail", help="decide whether hypotheses entail a goal atom",
                     description="The instance picks the engine, reported as the mode: upsilon "
                     "if every k is at most 2, else k-simple if every atom of k above 1 "
                     "protects one attribute, else k-saturate (sound, may answer unknown).")
    entail.add_argument("--sigma", required=True, help="hypothesis file, one atom per line")
    entail.add_argument("--goal", required=True, help="goal atom text")
    entail.add_argument("--countermodel-out", help="write the refuting team as CSV")
    entail.set_defaults(func=_cmd_entail)

    oracle = command("oracle", help="brute-force semantic entailment over small domains")
    oracle.add_argument("--sigma", required=True)
    oracle.add_argument("--goal", required=True)
    oracle.add_argument("--attrs", type=int, default=4,
                        help="attribute limit (at most 4); n attributes give a grid of D^n rows")
    oracle.add_argument("--domain-size", type=int, default=2,
                        help="D, 2 or 3; the search decides all 2^rows teams in at most "
                        "2^16 fixpoints, or descends past that")
    oracle.add_argument("--refuter-out", help="write the refuting team as CSV")
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    header = {"tool": "anonatom", "version": __version__}
    collecting = gc.isenabled()
    report = None  # None after --help or --version, which argparse prints
    try:
        args = build_parser().parse_args(argv)
        # a command's per-row objects form no cycles and live until it
        # returns, so the cyclic collector's passes would free nothing
        gc.disable()
        code, fields, pretty = args.func(args)
        if args.pretty:
            report = "\n".join(pretty)
        else:  # with indent, json falls back to pure Python
            report = json.dumps({**header, "command": args.command, **fields})
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else EXIT_ERROR
    except (AnonatomError, OSError, ValueError, argparse.ArgumentError) as exc:
        code = EXIT_ERROR
        report = json.dumps({**header, "error": {"kind": type(exc).__name__, "message": str(exc)}})
    finally:
        if collecting:
            gc.enable()
    return _write_report(report, code)


def _write_report(report: str | None, code: int) -> int:
    """Print ``report`` and flush standard output; return ``code``, or 2
    after one line on standard error when the report cannot be written."""
    try:
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("standard output is closed")
        if report is not None:
            print(report)
        sys.stdout.flush()
    except (OSError, ValueError) as exc:
        with contextlib.suppress(OSError, ValueError):
            print(f"anonatom: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


def _observed() -> bool:
    """Whether a tracer or profiler is set: a debugger, coverage or cProfile
    (which from Python 3.12 registers through ``sys.monitoring``)."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))


def console_main() -> None:
    """Run ``main`` and end the process with its exit code, without the
    interpreter's teardown.

    This is the entry of ``python -m anonatom`` and of the ``anonatom``
    script.  It runs the registered exit handlers, flushes standard output
    and standard error, and calls ``os._exit``: all that is skipped is
    freeing every module and object, 5-7 ms of a ~57 ms ``oracle`` process,
    as mypy's ``util.hard_exit`` does.  Under a tracer or profiler it raises
    ``SystemExit`` instead, so that they see a normal exit.
    """
    code = main()
    observed = _observed()
    if not observed:
        atexit._run_exitfuncs()  # the interpreter runs them before its final flush
    try:
        sys.stdout.flush()
    except (AttributeError, OSError, ValueError):
        # main's own flush failed first (it has said so and returned 2), or
        # an exit handler wrote to the dead stream.  What is left in the
        # buffer goes to the null device, so that the interpreter's final
        # flush after SystemExit cannot fail again.
        code = EXIT_ERROR
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    with contextlib.suppress(AttributeError, OSError, ValueError):
        sys.stderr.flush()
    if observed:
        raise SystemExit(code)
    os._exit(code)
