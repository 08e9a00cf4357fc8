"""Anonymity atoms over teams: checkers, entailment, countermodels, audit.

``import anonatom`` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a command that uses only the
CSV reader and the checkers never loads the entailment engines.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "UNBOUNDED", "Atom", "DependenceAtom", "InclusionAtom", "IndependenceAtom",
        "anonymity_degree", "check_anonymity", "check_dependence", "check_inclusion",
        "check_independence", "check_k_anonymity", "group_distinct_counts", "satisfies",
    ), "atoms"),
    **dict.fromkeys((
        "CountermodelReport", "build_anonymity_countermodel", "build_full_grid_countermodel",
        "build_k_anonymity_countermodel", "verify_countermodel",
    ), "countermodel"),
    **dict.fromkeys((
        "AnonatomError", "ArityError", "ConfigError", "DomainError", "FragmentError",
        "ParseError", "ResourceError", "SchemaError", "VerificationError",
    ), "errors"),
    **dict.fromkeys((
        "Derivation", "Entailment", "Rule", "Verdict", "entails_anonymity", "entails_k_simple",
        "entails_k_saturate", "is_inconsistent", "verify_derivation",
    ), "inference"),
    **dict.fromkeys((
        "OracleConfig", "OracleResult", "OracleStatus", "semantic_entails",
    ), "oracle"),
    **dict.fromkeys((
        "format_atom", "format_sigma", "load_sigma_file", "parse_atom", "parse_sigma",
    ), "syntax"),
    **dict.fromkeys(("AtomSet", "NormalAtom", "normalize"), "query"),
    **dict.fromkeys(("Schema", "Team", "group_by"), "team"),
    **dict.fromkeys(("LoadedTeam", "read_team_csv", "write_team_csv"), "teamio"),
    **dict.fromkeys((
        "AndNode", "AtomNode", "ExistsNode", "Formula", "ImplNode", "LiteralNode", "evaluate",
        "extend", "format_formula", "parse_formula", "subteam",
    ), "teamlogic"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the relative import statement's own call, which ``-X importtime`` logs
    # (``importlib.import_module`` bypasses it)
    value = globals()[name] = getattr(__import__(module, globals(), None, (name,), 1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
