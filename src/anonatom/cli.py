"""Command surface: ``check``, ``audit``, ``entail``, and ``oracle``.

Each invocation writes one structured JSON report, on one line, to
standard output (or a human-readable rendering with ``--pretty``) and
exits with the stable status contract: 0 holds/derivable/entailed,
1 fails/refuted, 2 usage or input error, 3 unknown.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import __version__
from .atoms import UNBOUNDED, Atom, _extractor, group_distinct_counts
from .errors import AnonatomError, ConfigError
from .inference import (
    Verdict,
    entails_anonymity,
    entails_k_simple,
    entails_k_saturate,
)
from .oracle import OracleConfig, OracleStatus, semantic_entails
from .syntax import format_atom, parse_atom, parse_formula
from .teamio import load_sigma_file, read_team_csv, write_team_csv
from .teamlogic import evaluate

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3

_ENTAIL_MODES = {
    "upsilon": entails_anonymity,
    "anonymity": entails_anonymity,
    "k-simple": entails_k_simple,
    "k-saturate": entails_k_saturate,
}


def _split_names(raw: str) -> tuple[str, ...]:
    return tuple(part for part in (p.strip() for p in raw.split(",")) if part)


def _team_summary(path: str, loaded) -> dict:
    return {
        "path": path,
        "attributes": list(loaded.team.schema.attributes),
        "rows": len(loaded.team),
        "duplicate_rows": loaded.duplicate_rows,
    }


def _emit(args, document: dict, pretty_lines: list[str]) -> None:
    if getattr(args, "pretty", False):
        print("\n".join(pretty_lines))
    else:
        print(json.dumps(document))  # with indent, json falls back to pure Python


def _atom_text(atom: Atom) -> str | None:
    try:
        return format_atom(atom)
    except ValueError:
        return None


def _derivation_document(derivation) -> dict:
    doc = derivation.to_dict()

    def attach_text(node: dict) -> None:
        conclusion = node["conclusion"]
        atom = Atom(tuple(conclusion["published"]), tuple(conclusion["protected"]), conclusion["k"])
        text = _atom_text(atom)
        if text is not None:
            node["text"] = text
        for premise in node["premises"]:
            attach_text(premise)

    attach_text(doc)
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


def _cmd_check(args) -> int:
    loaded = read_team_csv(args.team)
    team = loaded.team
    if loaded.duplicate_rows:
        print(f"warning: collapsed {loaded.duplicate_rows} duplicate row(s)", file=sys.stderr)
    document: dict = {
        "tool": "anonatom",
        "version": __version__,
        "command": "check",
        "team": _team_summary(args.team, loaded),
    }
    pretty = [f"team: {args.team} ({len(team)} rows)"]
    if args.atom is not None:
        atom = parse_atom(args.atom)
        counts = group_distinct_counts(team, atom.published, atom.protected)
        failing = [key for key, (_, distinct) in counts.items() if distinct < atom.k]
        verdict = not failing
        document["query"] = {"kind": "atom", "text": args.atom.strip()}
        document["verdict"] = verdict
        evidence = None
        if failing:
            key = min(failing)
            published = _extractor(team, atom.published)
            evidence = {
                "published_key": list(key),
                "distinct_protected": counts[key][1],
                "required": atom.k,
                "rows": [list(row) for row in sorted(r for r in team.rows if published(r) == key)],
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
        formula = parse_formula(args.formula)
        domain = _split_names(args.domain) if args.domain else tuple(
            sorted({value for row in team.rows for value in row})
        )
        verdict = evaluate(team, domain, formula)
        document["query"] = {"kind": "formula", "text": args.formula.strip()}
        document["domain"] = list(domain)
        document["verdict"] = verdict
        document["evidence"] = None
        pretty.append(f"formula: {args.formula.strip()}")
        pretty.append(f"verdict: {'holds' if verdict else 'fails'}")
    _emit(args, document, pretty)
    return EXIT_HOLDS if verdict else EXIT_FAILS


def _cmd_audit(args) -> int:
    loaded = read_team_csv(args.team)
    team = loaded.team
    publish = _split_names(args.publish)
    protect = _split_names(args.protect)
    if not protect:
        raise ConfigError("--protect needs at least one attribute")
    counts = group_distinct_counts(team, publish, protect)
    degree = min((distinct for _, distinct in counts.values()), default=UNBOUNDED)
    groups = [
        {"key": list(key), "rows": size, "distinct_protected": distinct}
        for key, (size, distinct) in sorted(counts.items())
    ]
    unbounded = degree == UNBOUNDED
    document = {
        "tool": "anonatom",
        "version": __version__,
        "command": "audit",
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
    for group in groups:
        pretty.append(
            f"  group {tuple(group['key'])}: {group['rows']} row(s), "
            f"{group['distinct_protected']} distinct protected tuple(s)"
        )
    status = EXIT_HOLDS
    if args.min_k is not None:
        meets = degree >= args.min_k
        document["min_k"] = args.min_k
        document["meets_min_k"] = meets
        pretty.append(f"meets k >= {args.min_k}: {'yes' if meets else 'no'}")
        if not meets:
            status = EXIT_FAILS
    _emit(args, document, pretty)
    return status


def _cmd_entail(args) -> int:
    sigma = load_sigma_file(args.sigma)
    goal = parse_atom(args.goal)
    result = _ENTAIL_MODES[args.mode](sigma, goal)
    document = {
        "tool": "anonatom",
        "version": __version__,
        "command": "entail",
        "mode": args.mode,
        "sigma": [format_atom(a) for a in sigma.atoms],
        "goal": args.goal.strip(),
        "verdict": result.verdict.value,
    }
    pretty = [f"goal: {args.goal.strip()}", f"verdict: {result.verdict.value}"]
    if result.verdict is Verdict.DERIVABLE:
        document["derivation"] = _derivation_document(result.derivation)
        pretty.append("derivation:")
        pretty.extend(_derivation_pretty(result.derivation, indent=1))
        _emit(args, document, pretty)
        return EXIT_HOLDS
    if result.verdict is Verdict.NOT_DERIVABLE:
        csv_path = None
        if args.countermodel_out:
            write_team_csv(result.countermodel.team, args.countermodel_out)
            csv_path = args.countermodel_out
        document["countermodel"] = _countermodel_document(result.countermodel, csv_path)
        pretty.append(
            f"countermodel: {len(result.countermodel.team)} rows "
            f"({result.countermodel.construction}, domain size {result.countermodel.domain_size})"
        )
        if csv_path:
            pretty.append(f"countermodel written to {csv_path}")
        _emit(args, document, pretty)
        return EXIT_FAILS
    document["saturated_atoms"] = len(result.saturated or ())
    pretty.append(f"saturation closed over {len(result.saturated or ())} atoms without reaching the goal")
    _emit(args, document, pretty)
    return EXIT_UNKNOWN


def _cmd_oracle(args) -> int:
    sigma = load_sigma_file(args.sigma)
    goal = parse_atom(args.goal)
    cfg = OracleConfig(
        domain_size=args.domain_size,
        attribute_limit=args.attrs,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
    )
    result = semantic_entails(sigma, goal, cfg)
    document = {
        "tool": "anonatom",
        "version": __version__,
        "command": "oracle",
        "mode": args.mode,
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
            write_team_csv(result.refuter, args.refuter_out)
            document["refuter"]["csv_path"] = args.refuter_out
            pretty.append(f"refuter written to {args.refuter_out}")
    _emit(args, document, pretty)
    if result.status is OracleStatus.ENTAILED:
        return EXIT_HOLDS
    if result.status is OracleStatus.REFUTED:
        return EXIT_FAILS
    return EXIT_UNKNOWN


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

    check = commands.add_parser("check", help="evaluate one atom or formula on a CSV team")
    check.add_argument("--team", required=True, help="CSV file with a header row")
    what = check.add_mutually_exclusive_group(required=True)
    what.add_argument("--atom", help="atom text, e.g. 'hometown salary Y surname'")
    what.add_argument("--formula", help="formula text, e.g. 'pub = \"private\" -> anon(2 ; d ; a)'")
    check.add_argument("--domain", help="comma-separated quantifier domain (default: team values)")
    check.add_argument("--pretty", action="store_true", help="human-readable output")
    check.set_defaults(func=_cmd_check)

    audit = commands.add_parser("audit", help="largest k keeping protected attributes k-anonymous")
    audit.add_argument("--team", required=True)
    audit.add_argument("--publish", required=True, help="comma-separated published attributes")
    audit.add_argument("--protect", required=True, help="comma-separated protected attributes")
    audit.add_argument("--min-k", type=int, default=None, help="exit 1 when the degree is below K")
    audit.add_argument("--pretty", action="store_true")
    audit.set_defaults(func=_cmd_audit)

    entail = commands.add_parser("entail", help="decide whether hypotheses entail a goal atom")
    entail.add_argument("--sigma", required=True, help="hypothesis file, one atom per line")
    entail.add_argument("--goal", required=True, help="goal atom text")
    entail.add_argument(
        "--mode",
        choices=sorted(_ENTAIL_MODES),
        default="upsilon",
        help="fragment: plain anonymity atoms, simple k-atoms, or sound saturation",
    )
    entail.add_argument("--countermodel-out", help="write the refuting team as CSV")
    entail.add_argument("--pretty", action="store_true")
    entail.set_defaults(func=_cmd_entail)

    oracle = commands.add_parser("oracle", help="brute-force semantic entailment over small domains")
    oracle.add_argument("--sigma", required=True)
    oracle.add_argument("--goal", required=True)
    oracle.add_argument("--attrs", type=int, default=4, help="attribute limit (at most 4)")
    oracle.add_argument("--domain-size", type=int, default=2, choices=(2, 3))
    oracle.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    oracle.add_argument("--samples", type=int, default=1000)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--refuter-out", help="write the refuting team as CSV")
    oracle.add_argument("--pretty", action="store_true")
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exit_:  # --help or --version, already printed
        code = exit_.code
        return code if isinstance(code, int) else EXIT_ERROR
    except (AnonatomError, OSError, ValueError, argparse.ArgumentError) as exc:
        record = {
            "tool": "anonatom",
            "version": __version__,
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(record))
        return EXIT_ERROR


def console_main() -> None:
    raise SystemExit(main())
