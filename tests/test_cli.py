import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anonatom
from anonatom import (
    AtomSet,
    Derivation,
    parse_atom,
    read_team_csv,
    verify_derivation,
)
from anonatom.cli import main

CENSUS_CSV = (
    "surname,hometown,salary\n"
    'Balbuk,Watarru,"70,000"\n'
    'Barambah,Amata,"90,000"\n'
    'Jones,Finke,"100,000"\n'
    'Smith,Watarru,"70,000"\n'
    'Williams,Amata,"90,000"\n'
    'Yunipingu,Finke,"100,000"\n'
)


@pytest.fixture
def census_csv(tmp_path):
    path = tmp_path / "census.csv"
    path.write_text(CENSUS_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def chain_sigma(tmp_path):
    path = tmp_path / "sigma.txt"
    path.write_text("x Y y\ny Y z\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCheck:
    def test_holding_atom_exits_zero(self, capsys, census_csv):
        code, doc = run_json(
            capsys, "check", "--team", census_csv, "--atom", "hometown salary Y surname"
        )
        assert code == 0
        assert doc["verdict"] is True
        assert doc["team"]["rows"] == 6

    def test_failing_atom_exits_one_with_evidence(self, capsys, census_csv):
        code, doc = run_json(capsys, "check", "--team", census_csv, "--atom", "surname Y hometown")
        assert code == 1
        assert doc["verdict"] is False
        assert doc["evidence"] == {
            "published_key": ["Balbuk"],
            "distinct_protected": 1,
            "required": 2,
            "rows": [["Balbuk", "Watarru", "70,000"]],
        }

    def test_evidence_is_the_smallest_failing_group_in_sorted_order(self, capsys, census_csv):
        code, doc = run_json(capsys, "check", "--team", census_csv, "--atom", "hometown Y salary")
        assert code == 1
        assert doc["evidence"] == {
            "published_key": ["Amata"],
            "distinct_protected": 1,
            "required": 2,
            "rows": [["Barambah", "Amata", "90,000"], ["Williams", "Amata", "90,000"]],
        }

    def test_unknown_attribute_exits_two(self, capsys, census_csv):
        code, doc = run_json(capsys, "check", "--team", census_csv, "--atom", "age Y surname")
        assert code == 2
        assert doc["error"]["kind"] == "SchemaError"

    def test_formula(self, capsys, census_csv):
        code, doc = run_json(
            capsys,
            "check",
            "--team",
            census_csv,
            "--formula",
            'hometown = "Watarru" -> anon(2 ; salary ; surname)',
        )
        assert code == 0 and doc["verdict"] is True

    def test_formula_with_domain(self, capsys, census_csv):
        code, doc = run_json(
            capsys,
            "check",
            "--team",
            census_csv,
            "--formula",
            "exists v (anon(2 ; hometown v ; surname))",
            "--domain",
            "0,1",
        )
        assert code == 0
        assert doc["domain"] == ["0", "1"]

    @pytest.mark.parametrize("domain", ["", ","])
    def test_explicitly_empty_domain(self, capsys, census_csv, domain):
        # an empty --domain is the empty domain, not the team's values
        argv = ["check", "--team", census_csv, "--domain", domain, "--formula"]
        code, doc = run_json(capsys, *argv, "anon(2 ; hometown ; surname)")
        assert code == 0 and doc["domain"] == []
        code, doc = run_json(capsys, *argv, "exists v (anon(2 ; hometown v ; surname))")
        assert code == 2
        assert doc["error"] == {
            "kind": "DomainError", "message": "existential quantification over an empty domain",
        }

    @pytest.mark.parametrize("formula, domain", [
        ('x = "a" & anon(2 ; x ; y)', None),
        ("exists v (anon(1 ; v ; y))", ["a", "b", "c", "d"]),
        ('x = "a" -> (anon(1 ; x ; y) & exists v (anon(1 ; v ; y)))', ["a", "b", "c", "d"]),
    ])
    def test_team_values_are_the_domain_of_a_quantified_formula(
        self, capsys, tmp_path, formula, domain
    ):
        # without --domain, the team's values are collected only for an exists
        path = tmp_path / "two.csv"
        path.write_text("x,y\na,b\nc,d\n", encoding="utf-8")
        code, doc = run_json(capsys, "check", "--team", str(path), "--formula", formula)
        assert code in (0, 1) and doc["domain"] == domain

    def test_empty_team_holds_everything(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n", encoding="utf-8")
        code, doc = run_json(capsys, "check", "--team", str(path), "--atom", "x Y5 y")
        assert code == 0 and doc["verdict"] is True

    def test_atom_and_formula_conflict(self, capsys, census_csv):
        code = main(
            ["check", "--team", census_csv, "--atom", "x Y y", "--formula", 'a = "0"']
        )
        assert code == 2

    @pytest.mark.parametrize(
        "formula",
        [
            'dep(surname ; salary ")"',
            'surname = "x" "&" salary = "y"',
            '"(" surname = "1" )',
            'surname = "x" "->" dep(surname ; salary)',
            'anon(2 ; surname ";" salary )',
            "anon(\u00b2 ; surname ; salary)",
        ],
    )
    def test_quoted_punctuation_and_non_ascii_digits_are_parse_errors(
        self, capsys, census_csv, formula
    ):
        code, doc = run_json(capsys, "check", "--team", census_csv, "--formula", formula)
        assert code == 2
        assert doc["error"]["kind"] == "ParseError"

    def test_deeply_nested_formula_is_a_parse_error(self, capsys, census_csv):
        formula = "(" * 5000 + 'surname = "Jones"' + ")" * 5000
        code, doc = run_json(capsys, "check", "--team", census_csv, "--formula", formula)
        assert code == 2
        assert doc["error"]["kind"] == "ParseError"
        assert "nested" in doc["error"]["message"]

    def test_pretty(self, capsys, census_csv):
        code, out = run(
            capsys, "check", "--team", census_csv, "--atom", "surname Y hometown", "--pretty"
        )
        assert code == 1
        assert "verdict: fails" in out


class TestAudit:
    def test_census_degree(self, capsys, census_csv):
        code, doc = run_json(
            capsys, "audit", "--team", census_csv, "--publish", "hometown,salary",
            "--protect", "surname",
        )
        assert code == 0
        assert doc["degree"] == 2
        assert len(doc["groups"]) == 3
        assert all(g["distinct_protected"] == 2 for g in doc["groups"])

    def test_min_k_gate(self, capsys, census_csv):
        code, doc = run_json(
            capsys, "audit", "--team", census_csv, "--publish", "hometown,salary",
            "--protect", "surname", "--min-k", "3",
        )
        assert code == 1
        assert doc["meets_min_k"] is False

    @pytest.mark.parametrize("min_k", ["0", "-3"])
    def test_min_k_below_one_is_a_config_error(self, capsys, census_csv, min_k):
        code, doc = run_json(
            capsys, "audit", "--team", census_csv, "--publish", "hometown,salary",
            "--protect", "surname", "--min-k", min_k,
        )
        assert code == 2
        assert doc["error"]["kind"] == "ConfigError"
        assert "--min-k" in doc["error"]["message"]

    def test_empty_team_unbounded(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n", encoding="utf-8")
        code, doc = run_json(
            capsys, "audit", "--team", str(path), "--publish", "a", "--protect", "b",
            "--min-k", "1000",
        )
        assert code == 0
        assert doc["degree"] == "unbounded"

    def test_one_published_attribute(self, capsys, census_csv):
        code, doc = run_json(
            capsys, "audit", "--team", census_csv, "--publish", "hometown", "--protect", "salary"
        )
        assert code == 0
        assert doc["degree"] == 1
        assert doc["groups"] == [
            {"key": ["Amata"], "rows": 2, "distinct_protected": 1},
            {"key": ["Finke"], "rows": 2, "distinct_protected": 1},
            {"key": ["Watarru"], "rows": 2, "distinct_protected": 1},
        ]

    def test_nothing_published(self, capsys, census_csv):
        code, doc = run_json(
            capsys, "audit", "--team", census_csv, "--publish", "", "--protect", "hometown"
        )
        assert code == 0
        assert doc["degree"] == 3
        assert doc["groups"] == [{"key": [], "rows": 6, "distinct_protected": 3}]

    def test_oversized_csv_field_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n0," + "x" * 200_000 + "\n", encoding="utf-8")
        code = main(["audit", "--team", str(path), "--publish", "a", "--protect", "b"])
        captured = capsys.readouterr()
        assert code == 2
        record = json.loads(captured.out)
        assert record["error"]["kind"] == "ParseError"
        assert captured.out.strip().count("\n") == 0
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, expected_code, expected", [
        (["--publish", "hometown,salary", "--protect", "surname", "--min-k", "3"], 1, [
            "publish: hometown, salary",
            "protect: surname",
            "anonymity degree: 2",
            "  group ('Amata', '90,000'): 2 row(s), 2 distinct protected tuple(s)",
            "  group ('Finke', '100,000'): 2 row(s), 2 distinct protected tuple(s)",
            "  group ('Watarru', '70,000'): 2 row(s), 2 distinct protected tuple(s)",
            "meets k >= 3: no",
        ]),
        (["--publish", "", "--protect", "hometown"], 0, [
            "publish: (nothing)",
            "protect: hometown",
            "anonymity degree: 3",
            "  group (): 6 row(s), 3 distinct protected tuple(s)",
        ]),
    ])
    def test_pretty(self, capsys, census_csv, argv, expected_code, expected):
        code, out = run(capsys, "audit", "--team", census_csv, *argv, "--pretty")
        assert code == expected_code
        assert out == "\n".join([f"team: {census_csv} (6 rows)", *expected]) + "\n"

    def test_protect_required_nonempty(self, capsys, census_csv):
        code, doc = run_json(
            capsys, "audit", "--team", census_csv, "--publish", "hometown", "--protect", ""
        )
        assert code == 2


class TestEntail:
    def test_not_derivable_with_countermodel_round_trip(self, capsys, tmp_path, chain_sigma):
        out_csv = tmp_path / "cm.csv"
        code, doc = run_json(
            capsys, "entail", "--sigma", chain_sigma, "--goal", "x Y z",
            "--countermodel-out", str(out_csv),
        )
        assert code == 1
        assert doc["verdict"] == "not-derivable"
        assert doc["countermodel"]["csv_path"] == str(out_csv)

        # goal fails on the emitted CSV, every hypothesis holds
        code, _ = run_json(capsys, "check", "--team", str(out_csv), "--atom", "x Y z")
        assert code == 1
        for member in ("x Y y", "y Y z"):
            code, _ = run_json(capsys, "check", "--team", str(out_csv), "--atom", member)
            assert code == 0

    def test_derivable_derivation_reverifies_after_round_trip(self, capsys, tmp_path):
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("x y Y z\n", encoding="utf-8")
        code, doc = run_json(
            capsys, "entail", "--sigma", str(sigma_path), "--goal", "x Y z u"
        )
        assert code == 0
        tree = Derivation.from_dict(doc["derivation"])
        sigma = AtomSet.of(parse_atom("x y Y z"))
        assert verify_derivation(tree, sigma)

    def test_k_simple_mode(self, capsys, tmp_path):
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("x Y5 y\n", encoding="utf-8")
        code, doc = run_json(capsys, "entail", "--sigma", str(sigma_path), "--goal", "x Y3 y")
        assert (code, doc["mode"]) == (0, "k-simple")

    def test_k_simple_goal_past_the_largest_domain_is_refuted(self, capsys, tmp_path):
        # no hypothesis asks for more than 3 values, so the 3 x 3 grid refutes
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("", encoding="utf-8")
        code, doc = run_json(capsys, "entail", "--sigma", str(sigma_path), "--goal", "x Y64 y")
        assert (code, doc["mode"]) == (1, "k-simple")
        assert doc["countermodel"]["rows"] == 9 and doc["countermodel"]["domain_size"] == 3

    def test_saturate_unknown_exits_three(self, capsys, tmp_path):
        # k = 3 over two protected attributes: neither plain nor simple
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("", encoding="utf-8")
        code, doc = run_json(capsys, "entail", "--sigma", str(sigma_path), "--goal", "x Y3 y z")
        assert (code, doc["mode"]) == (3, "k-saturate")
        assert doc["verdict"] == "unknown"

    def test_simple_instance_runs_the_k_simple_engine(self, capsys, tmp_path):
        # a k = 3 hypothesis leaves the plain fragment; its one protected
        # attribute keeps the instance simple
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("x Y3 y\n", encoding="utf-8")
        code, doc = run_json(capsys, "entail", "--sigma", str(sigma_path), "--goal", "x Y y")
        assert (code, doc["mode"], doc["verdict"]) == (0, "k-simple", "derivable")

    @pytest.mark.parametrize("lines, mode", [
        ("x Y1 y z", "upsilon"),
        ("x Y3 y\nx Y1 y z", "k-simple"),
        ("x Y3 y z\nx Y1 y", "k-saturate"),
    ])
    def test_multiplicity_one_atoms_leave_the_fragment_as_it_is(self, capsys, tmp_path, lines, mode):
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text(lines + "\n", encoding="utf-8")
        for goal in ("x Y y", "x Y1 y z"):
            code, doc = run_json(capsys, "entail", "--sigma", str(sigma_path), "--goal", goal)
            assert code != 2 and doc["mode"] == mode, (goal, doc)

    def test_multiplicity_too_long_for_int_is_a_parse_error(self, capsys, tmp_path):
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("x Y y\nx Y" + "9" * 5000 + " y\n", encoding="utf-8")
        code, doc = run_json(capsys, "entail", "--sigma", str(sigma_path), "--goal", "x Y y")
        assert code == 2
        assert doc["error"] == {
            "kind": "ParseError",
            "message": "multiplicity has too many digits (5000) (line 2)",
        }

    def test_missing_sigma_file(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "entail", "--sigma", str(tmp_path / "nope.txt"), "--goal", "x Y y"
        )
        assert code == 2
        assert "error" in doc

    def test_pretty_derivation(self, capsys, tmp_path):
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("x y Y z y\n", encoding="utf-8")
        code, out = run(
            capsys, "entail", "--sigma", str(sigma_path), "--goal", "x y Y z", "--pretty"
        )
        assert code == 0
        assert "[A3]" in out or "[A2]" in out


class TestOracle:
    def test_refuted(self, capsys, tmp_path, chain_sigma):
        refuter = tmp_path / "refuter.csv"
        code, doc = run_json(
            capsys, "oracle", "--sigma", chain_sigma, "--goal", "x Y z",
            "--attrs", "3", "--domain-size", "2", "--refuter-out", str(refuter),
        )
        assert code == 1
        assert doc["status"] == "refuted"
        team = read_team_csv(str(refuter)).team
        assert len(team) >= 1

    def test_entailed(self, capsys, tmp_path):
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("x y Y z\n", encoding="utf-8")
        code, doc = run_json(
            capsys, "oracle", "--sigma", str(sigma_path), "--goal", "x Y z u", "--attrs", "4"
        )
        assert code == 0
        assert doc["status"] == "entailed"
        assert doc["teams_checked"] == 65536

    def test_config_error(self, capsys, chain_sigma):
        # OracleConfig states both bounds; the parser leaves them to it
        for option, value in (("--attrs", "5"), ("--domain-size", "4")):
            code, doc = run_json(
                capsys, "oracle", "--sigma", chain_sigma, "--goal", "x Y z", option, value,
            )
            assert code == 2
            assert doc["error"]["kind"] == "ConfigError"

    def test_a_multiplicity_one_hypothesis_does_not_flip_the_status(self, capsys, tmp_path):
        # b Y c a needs three values to fail; a Y1 b c holds on every team and
        # leaves the instance plain, so the ternary candidate still refutes it
        sigma_path = tmp_path / "s.txt"
        for lines in ("a Y c\nc Y b\n", "a Y c\nc Y b\na Y1 b c\n"):
            sigma_path.write_text(lines, encoding="utf-8")
            for domain in ("2", "3"):
                code, doc = run_json(
                    capsys, "oracle", "--sigma", str(sigma_path), "--goal", "b Y c a",
                    "--attrs", "3", "--domain-size", domain,
                )
                assert (code, doc["status"]) == (1, "refuted"), (lines, domain)

    def test_a_candidate_past_the_row_cap(self, capsys, tmp_path):
        # the truncated grid of a Y40 b would start at 40^4 rows, past MAX_ROWS:
        # the oracle searches without a candidate, and k-simple refuses
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("a Y40 b\n", encoding="utf-8")
        code, doc = run_json(capsys, "oracle", "--sigma", str(sigma_path), "--goal", "c Y41 d")
        assert (code, doc["status"], doc["teams_checked"]) == (3, "unknown", 65536)
        code, doc = run_json(capsys, "entail", "--sigma", str(sigma_path), "--goal", "c Y41 d")
        assert code == 2
        assert doc["error"] == {
            "kind": "ResourceError", "message": "domain 40 over 4 attributes exceeds 2000000 rows",
        }

    def test_three_values_over_four_attributes(self, capsys, tmp_path):
        # 81 rows, 2^81 teams: a plain goal is decided, a k = 3 goal stays
        # unknown, since no small-model bound covers its multiplicity
        sigma_path = tmp_path / "s.txt"
        for line, goal, code, status in (
            ("x y Y z u", "x Y z u", 0, "entailed"), ("x y Y3 z u", "x Y3 z u", 3, "unknown"),
        ):
            sigma_path.write_text(line + "\n", encoding="utf-8")
            assert run_json(
                capsys, "oracle", "--sigma", str(sigma_path), "--goal", goal, "--domain-size", "3"
            ) == (code, _report("oracle", sigma=[line], goal=goal,
                                status=status, teams_checked=2**81))

    def test_fixpoint_budget(self, capsys, monkeypatch, tmp_path):
        # S would hold 6 of the 27 bcd tuples: C(26, 5) fixpoints, past 2^16.
        # No team refutes (bcd shows at least the 7 bc tuples), and the
        # descent stops at a minimal S showing 7, so it cannot tell
        from anonatom import oracle

        callers = []
        largest = oracle._largest

        def counted(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return largest(*args)

        monkeypatch.setattr(oracle, "_largest", counted)
        sigma_path = tmp_path / "s.txt"
        sigma_path.write_text("a Y7 b c\n", encoding="utf-8")
        code, doc = run_json(
            capsys, "oracle", "--sigma", str(sigma_path), "--goal", "a Y7 b c d",
            "--attrs", "4", "--domain-size", "3",
        )
        assert code == 2
        assert doc["error"] == {"kind": "ResourceError", "message": (
            "the goal needs C(26, 5) fixpoints over 81 rows; cap is 65536"
        )}
        assert set(callers) == {"_descent"} and len(callers) <= 2 * 27 + 1

    def test_past_the_cap_the_descent_refutes(self, capsys, tmp_path):
        # C(26, 12) fixpoints, past 2^16; with no hypothesis the descent
        # drops bcd tuples until the a = 0 group shows 13
        sigma_path = tmp_path / "empty.txt"
        sigma_path.write_text("", encoding="utf-8")
        code, doc = run_json(
            capsys, "oracle", "--sigma", str(sigma_path), "--goal", "a Y14 b c d",
            "--attrs", "4", "--domain-size", "3",
        )
        assert (code, doc["status"], doc["teams_checked"]) == (1, "refuted", 2**81)
        refuter = anonatom.Team.of(doc["refuter"]["attributes"], map(tuple, doc["refuter"]["rows"]))
        assert not anonatom.satisfies(refuter, parse_atom("a Y14 b c d"))


class TestErrorRecords:
    def test_error_record_is_single_line_json(self, capsys):
        code = main(["check", "--team", "/nonexistent.csv", "--atom", "x Y y"])
        out = capsys.readouterr().out
        assert code == 2
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"]["kind"] in ("FileNotFoundError", "OSError")

    @pytest.mark.parametrize("query", [["--atom", "hometown surname"], ["--formula", "dep(a"]])
    def test_malformed_query_fails_before_the_team_is_read(self, capsys, tmp_path, query):
        missing = str(tmp_path / "missing.csv")
        code, doc = run_json(capsys, "check", "--team", missing, *query)
        assert code == 2
        assert doc["error"]["kind"] == "ParseError"

    def test_version_flag(self, capsys):
        code = main(["--version"])
        assert code == 0
        assert "anonatom" in capsys.readouterr().out

    def test_help_flag(self, capsys):
        assert main(["check", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: anonatom check")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--team", "t.csv", "--formula", "->"],
            ["check", "--team", "t.csv"],
            ["check", "--team", "t.csv", "--atom", "x Y y", "--bogus"],
            ["oracle", "--sigma", "s.txt", "--goal", "x Y y", "--attrs", "five"],
            [],
            ["oracle", "--sigma", "s.txt", "--goal", "x Y y", "--mode", "random"],
            ["entail", "--sigma", "s.txt", "--goal", "x Y y", "--mode", "upsilon"],
        ],
    )
    def test_usage_error_is_a_json_record(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "ArgumentError"
        assert captured.err == ""


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["audit", "--team", "{team}", "--publish", "hometown", "--protect", "surname"], 0),
        (["audit", "--team", "{team}", "--publish", "hometown", "--protect", "age"], 2),
        (["--version"], 0),
    ],
)
def test_main_leaves_the_collector_as_it_found_it(
    capsys, monkeypatch, census_csv, enabled, argv, expected_code
):
    """The cyclic collector is paused while a command runs, and restored
    to its earlier state after a report, an error record or an exit."""
    from anonatom import teamio

    read = teamio.read_team_csv
    during = []
    monkeypatch.setattr(
        teamio, "read_team_csv", lambda path: during.append(gc.isenabled()) or read(path)
    )
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main([arg.format(team=census_csv) for arg in argv]) == expected_code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()
    assert during == ([False] if argv[0] == "audit" else [])


def test_saturation_output_does_not_depend_on_hash_seed(tmp_path):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("b Y c e\nd Y3 c\ne Y3 b a\n", encoding="utf-8")
    # neither plain nor simple, so entail saturates
    argv = [sys.executable, "-m", "anonatom", "entail", "--sigma", str(sigma),
            "--goal", "d Y3 a c e"]
    src = str(Path(anonatom.__file__).resolve().parent.parent)
    outputs = set()
    for seed in "0123":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["mode"] == "k-saturate"


@pytest.mark.parametrize("argv", [
    ["-c", "from anonatom import *"],
    ["-m", "anonatom", "check", "--team", "census.csv", "--atom", "hometown salary Y surname"],
])
def test_reference_checkers_are_not_loaded(tmp_path, argv):
    # -X importtime lists every module the interpreter imports on stderr
    (tmp_path / "census.csv").write_text(CENSUS_CSV, encoding="utf-8")
    src = str(Path(anonatom.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "anonatom.atoms" in imported
    assert "anonatom.reference" not in imported


# The package modules each command loads, and of the standard library
# ``random``, ``dataclasses`` and ``csv``.  ``-S`` skips the site hooks, which
# on some installations load ``random`` before the program starts.
_TRACKED_STDLIB = {"random", "dataclasses", "csv"}
_LOADED_BY_EVERY_COMMAND = {"anonatom", "anonatom.cli", "anonatom.errors"}
_MODEL = _LOADED_BY_EVERY_COMMAND | {"anonatom._value", "anonatom.team", "anonatom.atoms"}
_TABLE = _MODEL | {"anonatom.teamio", "csv"}
_HYPOTHESES = _MODEL | {"anonatom.syntax", "anonatom.query", "anonatom.countermodel"}
_ORACLE = ["oracle", "--sigma", "sigma.txt", "--goal", "x Y y", "--attrs", "3"]


@pytest.mark.parametrize("argv, expected", [
    (["--version"], _LOADED_BY_EVERY_COMMAND),
    (["audit", "--team", "census.csv", "--publish", "hometown", "--protect", "surname"], _TABLE),
    (["check", "--team", "census.csv", "--atom", "hometown salary Y surname"],
     _TABLE | {"anonatom.syntax"}),
    (["check", "--team", "census.csv", "--formula", "anon(2 ; hometown ; surname)"],
     _TABLE | {"anonatom.teamlogic"}),
    (["entail", "--sigma", "sigma.txt", "--goal", "x Y z"], _HYPOTHESES | {"anonatom.inference"}),
    (_ORACLE, _HYPOTHESES | {"anonatom.oracle"}),
], ids=["version", "audit", "check-atom", "check-formula", "entail", "oracle"])
def test_each_command_loads_only_its_modules(tmp_path, argv, expected):
    (tmp_path / "census.csv").write_text(CENSUS_CSV, encoding="utf-8")
    (tmp_path / "sigma.txt").write_text("x Y y\ny Y z\n", encoding="utf-8")
    src = str(Path(anonatom.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "anonatom", *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 2, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    loaded = {name for name in imported if name.partition(".")[0] == "anonatom"}
    assert loaded | (imported & _TRACKED_STDLIB) == expected


# Text that is well-formed, malformed or nonsense for the atom and formula
# grammars, with odd multiplicities and stray characters.  At most a handful
# of attribute names keeps every instance small.
_NOISE = st.lists(
    st.one_of(
        st.sampled_from(
            ("a", "b", "Y", "Y0", "(", ")", "&", "->", ";", "=", "!=", '"1"', '"', "\\", "#",
             "exists", "dep", "anon", "2", "\n")
        ),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=5,
).map(" ".join)
_NAMES = st.lists(st.sampled_from("abcd"), min_size=1, max_size=3).map(" ".join)
_ATOM = st.builds(
    "{} {} {}".format, _NAMES, st.sampled_from(("Y", "Y1", "Y3", "Y99999999999999999999")), _NAMES
)
_FORMULA = st.recursive(
    st.one_of(
        st.builds(
            '{} {} "{}"'.format,
            st.sampled_from("abd"),
            st.sampled_from(("=", "!=")),
            st.sampled_from("01"),
        ),
        st.builds("anon({} ; {} ; {})".format, st.sampled_from("123"), _NAMES, _NAMES),
        st.builds("dep({} ; {})".format, _NAMES, _NAMES),
    ),
    lambda inner: st.one_of(
        st.builds("({}) & ({})".format, inner, inner),
        st.builds('a = "0" -> {}'.format, inner),
        st.builds("exists e ({})".format, inner),
    ),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "team.csv").write_text("a,b,c,d\n0,1,0,1\n1,1,0,0\n", encoding="utf-8")
    return directory


@settings(max_examples=200, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(
        [
            ("entail",),
            ("oracle", "--attrs=4"),
            ("check", "--atom"),
            ("check", "--formula"),
        ]
    ),
    sigma=st.lists(st.one_of(_ATOM, _ATOM, _NOISE), max_size=2).map("\n".join),
    text=st.one_of(_ATOM, _FORMULA, _NOISE),
)
def test_exit_code_contract_holds_for_any_text(fuzz_dir, command, sigma, text):
    sigma_path = fuzz_dir / "sigma.txt"
    sigma_path.write_text(sigma, encoding="utf-8")
    name, *options = command
    if name == "check":
        argv = [name, f"--team={fuzz_dir / 'team.csv'}", *options, text]
    else:
        argv = [name, f"--sigma={sigma_path}", "--goal", text, *options]
    _assert_contract(argv)


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an escaping exception is the traceback the contract forbids
    assert code in (0, 1, 2, 3)
    assert out.getvalue().count("\n") == 1 and out.getvalue().endswith("\n")  # one line
    json.loads(out.getvalue())  # exactly one JSON document, nothing around it
    assert "Traceback" not in err.getvalue()


# CSV bytes that are well-formed, ragged, blank, badly quoted, or not UTF-8,
# under a header that may be missing, duplicated or malformed.
_CSV_BYTES = st.lists(
    st.one_of(
        st.sampled_from(
            (b"a", b"b", b"a,b", b"a,a", b"b,a", b",", b"0", b"1", b"0,1", b'"', b'""', b'"0,1"',
             b"\x00", b"\r", b"\n", b"\r\n", b"\n\n", b" ", b"\xff", b"\xc3", b"\xef\xbb\xbf", b"Y")
        ),
        st.binary(max_size=3),
    ),
    max_size=12,
).map(b"".join)


@settings(max_examples=200, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=_CSV_BYTES,
    query=st.sampled_from(
        [
            ["audit", "--publish", "a", "--protect", "b", "--min-k", "2"],
            ["check", "--atom", "a Y b"],
            ["check", "--formula", 'a = "0" -> dep(a ; b)'],
        ]
    ),
)
def test_exit_code_contract_holds_for_any_csv(fuzz_dir, data, query):
    team_path = fuzz_dir / "fuzz.csv"
    team_path.write_bytes(data)
    _assert_contract([query[0], "--team", str(team_path), *query[1:]])


def _report(kind, **fields):
    return {"tool": "anonatom", "version": "0.1.0", "command": kind, **fields}


def _census_summary(path):
    return {"path": path, "attributes": ["surname", "hometown", "salary"], "rows": 6,
            "duplicate_rows": 0}


def _node(rule, published, protected, text, premises=()):
    return {"rule": rule, "conclusion": {"published": published, "protected": protected, "k": 2},
            "premises": list(premises), "text": text}


_XY_REFUTER = [["0", "0"], ["0", "1"], ["0", "2"], ["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]
_XY3_REFUTER = [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"], ["1", "2"], ["2", "0"], ["2", "1"],
                ["2", "2"]]


def test_reports_are_one_line_of_unchanged_json(capsys, tmp_path, census_csv):
    """Each command's report is one line; the documents are pinned field
    for field, in key order."""
    derivable, one, empty = tmp_path / "derivable.txt", tmp_path / "one.txt", tmp_path / "empty.txt"
    derivable.write_text("x y Y z\n", encoding="utf-8")
    one.write_text("x Y y\n", encoding="utf-8")
    empty.write_text("", encoding="utf-8")
    census = _census_summary(census_csv)
    formula = 'hometown = "Watarru" -> anon(2 ; salary ; surname)'
    cases = [
        (["check", "--team", census_csv, "--atom", "surname Y hometown"], 1, _report(
            "check", team=census, query={"kind": "atom", "text": "surname Y hometown"},
            verdict=False, evidence={"published_key": ["Balbuk"], "distinct_protected": 1,
                                     "required": 2, "rows": [["Balbuk", "Watarru", "70,000"]]},
        )),
        (["check", "--team", census_csv, "--formula", formula], 0, _report(
            "check", team=census, query={"kind": "formula", "text": formula},
            domain=None,
            verdict=True, evidence=None,
        )),
        (["audit", "--team", census_csv, "--publish", "hometown", "--protect", "salary",
          "--min-k", "2"], 1, _report(
            "audit", team=census, publish=["hometown"], protect=["salary"], degree=1,
            groups=[{"key": [town], "rows": 2, "distinct_protected": 1}
                    for town in ("Amata", "Finke", "Watarru")],
            min_k=2, meets_min_k=False,
        )),
        (["entail", "--sigma", str(derivable), "--goal", "x Y z u"], 0, _report(
            "entail", mode="upsilon", sigma=["x y Y z"], goal="x Y z u", verdict="derivable",
            derivation=_node("A2", ["x"], ["z", "u"], "x Y z u",
                             [_node("hyp", ["x", "y"], ["z"], "x y Y z")]),
        )),
        (["entail", "--sigma", str(one), "--goal", "y Y x"], 1, _report(
            "entail", mode="upsilon", sigma=["x Y y"], goal="y Y x", verdict="not-derivable",
            countermodel={"construction": "ternary-grid", "domain_size": 3, "rows": 7,
                          "attributes": ["x", "y"], "failed_goal": "y Y x", "team": _XY_REFUTER},
        )),
        (["entail", "--sigma", str(one), "--goal", "x Y3 y"], 1, _report(
            "entail", mode="k-simple", sigma=["x Y y"], goal="x Y3 y", verdict="not-derivable",
            countermodel={"construction": "truncated-grid", "domain_size": 3, "rows": 8,
                          "attributes": ["x", "y"], "failed_goal": "x Y3 y", "team": _XY3_REFUTER},
        )),
        (["entail", "--sigma", str(empty), "--goal", "x Y3 y z"], 3,
         _report("entail", mode="k-saturate", sigma=[], goal="x Y3 y z", verdict="unknown",
                 saturated_atoms=0)),
        (["entail", "--sigma", str(one), "--goal", "a Y3 b c"], 3,
         _report("entail", mode="k-saturate", sigma=["x Y y"], goal="a Y3 b c", verdict="unknown",
                 saturated_atoms=24)),
        (["oracle", "--sigma", str(one), "--goal", "y Y x", "--attrs", "2"], 1, _report(
            "oracle", sigma=["x Y y"], goal="y Y x", status="refuted",
            teams_checked=1, refuter={"attributes": ["x", "y"], "rows": _XY_REFUTER},
        )),
        (["oracle", "--sigma", str(derivable), "--goal", "x Y z", "--attrs", "3"], 0, _report(
            "oracle", sigma=["x y Y z"], goal="x Y z", status="entailed",
            teams_checked=256,
        )),
    ]
    for argv, expected_code, expected in cases:
        code, out = run(capsys, *argv)
        assert code == expected_code, argv
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        document = json.loads(out)
        assert document == expected, argv
        assert list(document) == list(expected), argv


def test_pretty_entail_and_oracle_reports(capsys, tmp_path, chain_sigma):
    """The ``--pretty`` text of each entail and oracle outcome, line for line."""
    derivable = tmp_path / "derivable.txt"
    derivable.write_text("x y Y z\n", encoding="utf-8")
    countermodel, refuter = tmp_path / "cm.csv", tmp_path / "refuter.csv"
    cases = [
        (["entail", "--sigma", chain_sigma, "--goal", "x Y z",
          "--countermodel-out", str(countermodel)], 1, [
            "goal: x Y z",
            "verdict: not-derivable",
            "countermodel: 21 rows (ternary-grid, domain size 3)",
            f"countermodel written to {countermodel}",
        ]),
        (["entail", "--sigma", chain_sigma, "--goal", "y Y3 x z"], 3, [
            "goal: y Y3 x z",
            "verdict: unknown",
            "saturation closed over 10 atoms without reaching the goal",
        ]),
        (["oracle", "--sigma", chain_sigma, "--goal", "x Y z", "--attrs", "3",
          "--refuter-out", str(refuter)], 1, [
            "goal: x Y z",
            "status: refuted",
            "refuting team has 21 row(s)",
            f"refuter written to {refuter}",
        ]),
        (["oracle", "--sigma", str(derivable), "--goal", "x Y z", "--attrs", "3"], 0, [
            "goal: x Y z",
            "status: entailed",
        ]),
    ]
    for argv, expected_code, expected in cases:
        code, out = run(capsys, *argv, "--pretty")
        assert code == expected_code, argv
        assert out == "\n".join(expected) + "\n", argv
    assert read_team_csv(str(countermodel)).team == read_team_csv(str(refuter)).team


def test_byte_order_mark_is_not_part_of_the_first_name(capsys, tmp_path):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("\ufeffx Y y\n", encoding="utf-8")
    for command in ("entail", "oracle"):
        code, doc = run_json(capsys, command, "--sigma", str(sigma), "--goal", "x Y y")
        assert code == 0, doc
        assert doc["sigma"] == ["x Y y"]


def test_csv_with_a_byte_order_mark_audits(capsys, tmp_path, census_csv):
    team = tmp_path / "bom.csv"
    team.write_text("\ufeff" + CENSUS_CSV, encoding="utf-8")
    argv = ["--publish", "hometown,salary", "--protect", "surname"]
    code, doc = run_json(capsys, "audit", "--team", str(team), *argv)
    assert code == 0, doc
    _, plain = run_json(capsys, "audit", "--team", census_csv, *argv)
    assert doc["team"]["attributes"] == plain["team"]["attributes"] == ["surname", "hometown", "salary"]
    assert doc["degree"] == plain["degree"] == 2


# ``console_main`` ends the process with ``os._exit``, so what it must
# still do (flush, run the exit handlers, keep the exit code, fall back to a
# normal exit under a profiler) is checked in real processes.  The child's
# environment drops PYTHONUNBUFFERED, so that its standard output is
# block-buffered as in a shell or a pipe, where a missing flush loses text.
_SRC = str(Path(anonatom.__file__).resolve().parent.parent)
_VERSION = f"anonatom {anonatom.__version__}\n"


def _child_env():
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _child(*argv, prefix=(), **kwargs):
    """Run ``python [prefix] -m anonatom argv`` with block-buffered output."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *prefix, "-m", "anonatom", *argv], env=_child_env(),
        stderr=subprocess.PIPE, text=True, timeout=60, **kwargs,
    )


@pytest.fixture
def wide_csv(tmp_path):
    """A team whose audit report has one group per row, over 64 KB."""
    path = tmp_path / "wide.csv"
    rows = "".join(f"{i},{i % 7},{i % 3}\n" for i in range(3000))
    path.write_text("id,town,salary\n" + rows, encoding="utf-8")
    return str(path)


class TestProcessExit:
    @pytest.mark.parametrize("argv", [["--version"], ["check", "--help"]])
    def test_version_and_help_text_arrive(self, capsys, argv):
        done = _child(*argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout == run(capsys, *argv)[1]
        assert done.stdout.startswith((_VERSION, "usage: anonatom check"))

    def test_a_large_report_arrives_whole(self, capsys, wide_csv):
        argv = ["audit", "--team", wide_csv, "--publish", "id", "--protect", "salary"]
        done = _child(*argv)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout) > 65536
        assert done.stdout == run(capsys, *argv)[1]

    @pytest.mark.parametrize("sigma, goal, expected", [
        ("x y Y z\n", "x Y z u", 0),
        ("x Y y\ny Y z\n", "x Y z", 1),
        ("x Y y\n", "x y", 2),
        ("", "x Y3 y z", 3),
    ])
    def test_exit_codes_pass_through(self, capsys, tmp_path, sigma, goal, expected):
        path = tmp_path / "sigma.txt"
        path.write_text(sigma, encoding="utf-8")
        argv = ["entail", "--sigma", str(path), "--goal", goal]
        done = _child(*argv)
        assert (done.returncode, done.stderr) == (expected, "")
        assert (done.returncode, done.stdout) == run(capsys, *argv)

    def test_the_duplicate_row_warning_arrives(self, tmp_path):
        team = tmp_path / "team.csv"
        team.write_text("x,y\n0,1\n0,1\n0,2\n", encoding="utf-8")
        done = _child("check", "--team", str(team), "--atom", "x Y y")
        assert done.returncode == 0
        assert done.stderr == "warning: collapsed 1 duplicate row(s)\n"
        assert json.loads(done.stdout)["team"]["duplicate_rows"] == 1

    @pytest.mark.parametrize("command, option", [
        ("entail", "--countermodel-out"), ("oracle", "--refuter-out"),
    ])
    def test_written_teams_are_complete(self, capsys, tmp_path, chain_sigma, command, option):
        argv = [command, "--sigma", chain_sigma, "--goal", "x Y z"]
        inside, outside = tmp_path / "inside.csv", tmp_path / "outside.csv"
        assert main([*argv, option, str(inside)]) == 1
        capsys.readouterr()
        done = _child(*argv, option, str(outside))
        assert done.returncode == 1, done.stderr
        assert outside.read_bytes() == inside.read_bytes()
        assert len(read_team_csv(str(outside)).team) >= 1

    def test_exit_handlers_run_and_their_output_arrives(self):
        script = ("import atexit, sys; atexit.register(print, 'handler ran'); "
                  "sys.argv[1:] = ['--version']; "
                  "from anonatom.cli import console_main; console_main()")
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == _VERSION + "handler ran\n"

    def test_a_profiler_sees_a_normal_exit(self):
        done = _child("--version", prefix=("-m", "cProfile"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(_VERSION)
        assert "function calls" in done.stdout  # the profiler's table


def _closed_pipe():
    """The write end of a pipe whose reader has closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


# Each way standard output can be dead: the child's stdout argument, or
# None for a process started with fd 1 closed (``>&-``).
_DEAD_STDOUT = {
    "dev-full": lambda: open("/dev/full", "w"),
    "closed-pipe": _closed_pipe,
    "closed": lambda: None,
}


def _run_dead(kind, command):
    """Run ``command`` with the dead standard output ``kind``."""
    if kind == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    sink = _DEAD_STDOUT[kind]()
    try:
        if sink is None:
            command = ["/bin/sh", "-c", 'exec "$0" "$@" >&-', *command]
        return subprocess.run(
            command, stdout=sink, stderr=subprocess.PIPE, env=_child_env(), text=True, timeout=60,
        )
    finally:
        if isinstance(sink, int):
            os.close(sink)
        elif sink is not None:
            sink.close()


_CANNOT_WRITE = "anonatom: cannot write the report: "


# With fd 1 closed, argparse prints the version to standard error instead.
@pytest.mark.parametrize("report, kind", [
    (report, kind) for report in ("entail", "audit", "version") for kind in _DEAD_STDOUT
    if (report, kind) != ("version", "closed")
])
def test_a_report_that_cannot_be_written_exits_two(chain_sigma, wide_csv, report, kind):
    """A closed or full standard output is an error (2), with one line on
    standard error and no traceback, whether the report fails as it is
    written (the large audit) or as it is flushed."""
    argv = {
        "entail": ["entail", "--sigma", chain_sigma, "--goal", "x y Y z"],
        "audit": ["audit", "--team", wide_csv, "--publish", "id", "--protect", "salary"],
        "version": ["--version"],
    }[report]
    done = _run_dead(kind, [sys.executable, "-m", "anonatom", *argv])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(_CANNOT_WRITE)
    assert done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("kind", list(_DEAD_STDOUT))
def test_under_a_tracer_a_dead_stdout_still_exits_two(chain_sigma, kind):
    """With a tracer set, ``console_main`` raises SystemExit; the
    interpreter's final flush must not fail again (exit 120)."""
    script = ("import sys; sys.settrace(lambda *args: None); "
              f"sys.argv[1:] = ['entail', '--sigma', {chain_sigma!r}, '--goal', 'x y Y z']; "
              "from anonatom.cli import console_main; console_main()")
    done = _run_dead(kind, [sys.executable, "-c", script])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(_CANNOT_WRITE)
    assert done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("stdout", [None, "closed"])
def test_main_returns_two_when_it_cannot_write(capsys, monkeypatch, chain_sigma, stdout):
    if stdout == "closed":
        stdout = io.StringIO()
        stdout.close()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["entail", "--sigma", chain_sigma, "--goal", "x y Y z"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(_CANNOT_WRITE) and err.count("\n") == 1
