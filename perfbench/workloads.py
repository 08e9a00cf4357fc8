"""The four benchmark workloads.

Each workload builds its inputs in ``__init__`` (the set-up that ``setup_s``
times), among them ``ops``, the round of operations that every run repeats
unchanged.  ``run`` is the timed operation
and makes only the calls a user of the program would make; ``check``
compares its output with the reference checker; ``probe`` runs in traced
runs only, after the operation, and times the layer calls that the
operation makes internally, on the same inputs.
"""

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import gen
import reference as ref
from spans import NullTracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
SAT_FAULT = (
    "_Saturation.offer in src/anonatom/inference.py caps a hypothesis's multiplicity at "
    "the goal's k, and _Saturation.rebuild labels that step A1 or A3, which must keep k"
)


class Incorrect(Exception):
    """An output disagrees with the reference computation."""


class Failed(Exception):
    """The program could not complete the operation correctly (a fault it has)."""


def _expect(condition, message):
    if not condition:
        raise Incorrect(message)


def run_child(argv):
    """Run ``python -m anonatom argv``; return its exit code, standard output
    and peak resident set in KiB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(WORK / "child.err", "w+b") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "anonatom", *argv], stdout=subprocess.PIPE, stderr=err, env=env
        )
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss


def run_probe(spec):
    """Run ``probe_parts`` on ``spec`` in a fresh interpreter (so caches are
    cold) and return what its tracer recorded."""
    path = WORK / "probe.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--probe", str(path)],
        stdout=subprocess.PIPE, check=True,
    )
    return json.loads(done.stdout.decode().splitlines()[-1])


def _cli_main(argv):
    from anonatom.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def probe_parts(tracer, spec):
    """Body of a probe process: the in-process layer calls of one CLI
    operation, and/or ``cli.main`` on its arguments."""
    for part in spec["parts"]:
        if part == "cli":
            tracer.call("cli.main", _cli_main, spec["argv"])
        elif spec["workload"] == "audit-csv":
            _audit_layers(tracer, spec)
        else:
            _oracle_layers(tracer, spec)


def _tree_size(derivation):
    return 1 + sum(_tree_size(p) for p in derivation.premises)


class _Cli:
    """Shared by the two workloads whose operations are CLI processes.

    ``probe_groups`` lists the probe processes each operation gets, by the
    parts each one runs."""

    def __init__(self):
        self.rss_kb = 0
        WORK.mkdir(exist_ok=True)
        run_child(["--version"])  # warm-up: byte-compiles the package

    def run(self, op, tracer):
        return tracer.call("cli.process", run_child, op["argv"])

    def peak_rss_mb(self):
        return self.rss_kb / 1024

    def _document(self, op, out, code):
        self.rss_kb = max(self.rss_kb, out[2])
        _expect(out[0] == code, f"{op['argv'][0]} exited {out[0]}, expected {code}: {op['argv']}")
        return json.loads(out[1])

    def probe(self, op, tracer, out):
        child_ns = tracer.durations("cli.process")[-1]
        for group in self.probe_groups:
            exported = run_probe({**op, "workload": self.name, "parts": group})
            tracer.merge(exported)
            for name, start, end, _, _ in exported["spans"]:
                if name == "cli.main":
                    tracer.sample("cli.process_overhead_ms", (child_ns - (end - start)) / 1e6)
        tracer.count("cli.report_bytes", len(out[1]))


# --- audit-csv ------------------------------------------------------------

# (command, published, protected, k): an audit of 300 groups, a failing
# --min-k audit of about 31,000 groups, a failing atom (the evidence scan) and
# a guarded formula.  k is --min-k for audits.
AUDIT_CYCLE = (
    ("audit", ("hometown",), ("surname",), None),
    ("audit", ("hometown", "sex", "age"), ("diagnosis",), 2),
    ("atom", ("hometown", "salary"), ("surname",), 2),
    ("formula", ("hometown",), ("surname",), 3),
)
GUARD = ("sex", "F")


class AuditCsv(_Cli):
    name = "audit-csv"
    probe_groups = [["layers", "cli"]]

    def __init__(self, seed, quick):
        self.rows, self.duplicates = (2_000, 50) if quick else (100_000, 2_500)
        self.records = gen.census_rows(seed, self.rows, self.duplicates)
        super().__init__()
        self.path = str(WORK / "census.csv")
        gen.write_csv(self.path, gen.CENSUS_ATTRS, self.records)
        self.ops = [self._op(i, *spec) for i, spec in enumerate(AUDIT_CYCLE)]
        self.distinct = None
        self.expected = {}

    def _op(self, index, command, pub, prot, k):
        if command == "audit":
            argv = ["audit", "--team", self.path, "--publish", ",".join(pub), "--protect", ",".join(prot)]
            argv += ["--min-k", str(k)] if k else []
        elif command == "atom":
            argv = ["check", "--team", self.path, "--atom", gen.atom_text((pub, prot, k))]
        else:
            body = f"anon({k} ; {' '.join(pub)} ; {' '.join(prot)})"
            argv = ["check", "--team", self.path, "--formula", f'{GUARD[0]} = "{GUARD[1]}" -> {body}']
        return {"index": index, "command": command, "pub": pub, "prot": prot, "k": k, "argv": argv,
                "path": self.path}

    def _reference(self, op):
        """Expected counts, computed once per operation from the generated rows."""
        if op["index"] not in self.expected:
            if self.distinct is None:
                self.distinct = sorted(set(self.records))
            rows = self.distinct
            if op["command"] == "formula":
                at = gen.CENSUS_ATTRS.index(GUARD[0])
                rows = [r for r in rows if r[at] == GUARD[1]]
            counts = ref.group_counts(gen.CENSUS_ATTRS, rows, op["pub"], op["prot"])
            self.expected[op["index"]] = rows, counts
        return self.expected[op["index"]]

    def check(self, op, out):
        rows, counts = self._reference(op)
        k = op["k"]
        degree = min((d for _, d in counts.values()), default=None)
        holds = degree is None or k is None or degree >= k
        doc = self._document(op, out, 0 if holds else 1)
        _expect(doc["team"]["rows"] == self.rows and doc["team"]["duplicate_rows"] == self.duplicates,
                f"team summary {doc['team']} disagrees with the generator")
        if op["command"] == "audit":
            _expect(doc["degree"] == degree, f"degree {doc['degree']}, reference {degree}: {op['argv']}")
            got = [[g["key"], g["rows"], g["distinct_protected"]] for g in doc["groups"]]
            _expect(got == [[list(key), n, d] for key, (n, d) in sorted(counts.items())],
                    f"group counts disagree with the reference: {op['argv']}")
            _expect(k is None or doc["meets_min_k"] == holds, f"meets_min_k wrong: {op['argv']}")
            return
        _expect(doc["verdict"] == holds, f"verdict {doc['verdict']}, reference {holds}: {op['argv']}")
        evidence = None
        if op["command"] == "atom" and not holds:
            key = min(key for key, (_, d) in counts.items() if d < k)
            idx = [gen.CENSUS_ATTRS.index(a) for a in op["pub"]]
            evidence = {
                "published_key": list(key),
                "distinct_protected": counts[key][1],
                "required": k,
                "rows": [list(r) for r in rows if tuple(r[i] for i in idx) == key],
            }
        _expect(doc["evidence"] == evidence, f"evidence disagrees with the reference: {op['argv']}")


def _audit_layers(tracer, spec):
    from anonatom import (Team, anonymity_degree, check_k_anonymity, evaluate, group_by,
                          group_distinct_counts, parse_atom, parse_formula, read_team_csv)

    loaded = tracer.call("teamio.read_team_csv", read_team_csv, spec["path"])
    tracer.count("teamio.rows_parsed", len(loaded.team) + loaded.duplicate_rows)
    tracer.count("teamio.duplicate_rows", loaded.duplicate_rows)
    del loaded
    with open(spec["path"], newline="", encoding="utf-8") as handle:
        header, *records = list(csv.reader(handle))
    team = tracer.call("team.construct", Team.of, header, records)
    del records
    pub, prot, k = spec["pub"], spec["prot"], spec["k"] or 2
    tracer.call("team.sorted_rows", team.sorted_rows)
    tracer.call("team.group_by", group_by, team, pub)
    tracer.call("atoms.anonymity_degree", anonymity_degree, team, pub, prot)
    counts = tracer.call("atoms.group_distinct_counts", group_distinct_counts, team, pub, prot)
    tracer.count("atoms.groups", len(counts))
    tracer.call("atoms.check_k_anonymity", check_k_anonymity, team, pub, prot, k)
    if spec["command"] == "atom":
        tracer.call("syntax.parse", parse_atom, spec["argv"][-1])
    elif spec["command"] == "formula":
        formula = tracer.call("syntax.parse", parse_formula, spec["argv"][-1])
        domain = tuple(sorted({value for row in team.rows for value in row}))
        tracer.call("teamlogic.evaluate", evaluate, team, domain, formula)


# --- oracle-cold ----------------------------------------------------------

class OracleCold(_Cli):
    name = "oracle-cold"
    probe_groups = [["cli"], ["layers"]]  # apart, so that each finds the grid cache cold

    def __init__(self, seed, quick):
        self.attrs = 3 if quick else 4
        rng = random.Random(seed)
        super().__init__()
        hyps, goal, _ = gen.oracle_entailed(rng, self.attrs)
        sigma = WORK / "sigma.txt"
        sigma.write_text("".join(gen.atom_text(h) + "\n" for h in hyps), encoding="utf-8")
        argv = ["oracle", "--sigma", str(sigma), "--goal", gen.atom_text(goal),
                "--attrs", str(self.attrs), "--domain-size", "2"]
        self.ops = [{"hyps": hyps, "goal": goal, "argv": argv, "attrs": self.attrs}]

    def check(self, op, out):
        _expect(ref.follows(op["hyps"], op["goal"]), f"instance not subsumed: {op['argv']}")
        doc = self._document(op, out, 0)
        _expect(doc["status"] == "entailed", f"oracle says {doc['status']}: {op['argv']}")
        _expect(doc["teams_checked"] == 2 ** 2 ** self.attrs,
                f"{doc['teams_checked']} teams checked: a candidate ended the search early")


def _oracle_layers(tracer, spec):
    import resource

    from anonatom import OracleConfig, parse_atom, parse_sigma, semantic_entails
    from anonatom.countermodel import candidate_teams

    text = "".join(gen.atom_text(h) + "\n" for h in spec["hyps"])
    sigma = tracer.call("syntax.parse", parse_sigma, text)
    goal = tracer.call("syntax.parse", parse_atom, gen.atom_text(spec["goal"]))
    tracer.call("countermodel.candidate_teams", lambda: list(candidate_teams(sigma, goal)))
    cfg = OracleConfig(domain_size=2, attribute_limit=spec["attrs"])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = tracer.call("oracle.cold", semantic_entails, sigma, goal, cfg)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer.sample("oracle.cold_rss_mb", (after - before) / 1024)
    tracer.count("oracle.teams_checked", result.teams_checked)


# --- in-process workloads -------------------------------------------------

def _to_atom(atom):
    from anonatom import Atom

    return Atom(*atom)


def _in_process_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class EntailSweep:
    """A seeded subset of the plain-fragment sweep at three attributes."""

    name = "entail-sweep"

    def __init__(self, seed, quick):
        from anonatom import AtomSet, OracleConfig, semantic_entails

        sigmas, shapes = gen.plain_sweep()
        self.sigmas = [(hyps, AtomSet.of(*map(_to_atom, hyps))) for hyps in sigmas]
        self.goals = [(goal, _to_atom(goal)) for goal in shapes]
        self.ops = random.Random(seed).sample(range(len(sigmas) * len(shapes)), 200 if quick else 1000)
        self.cfg = OracleConfig(domain_size=2, attribute_limit=3)
        for _, goal in self.goals:  # warm-up: the oracle's grid and every bitmap
            semantic_entails(AtomSet.of(), goal, self.cfg)

    def _instance(self, op):
        return self.sigmas[op // len(self.goals)], self.goals[op % len(self.goals)]

    def run(self, op, tracer):
        from anonatom import entails_anonymity, semantic_entails, verify_countermodel, verify_derivation

        (_, sigma), (_, goal) = self._instance(op)
        result = tracer.call("inference.entails_anonymity", entails_anonymity, sigma, goal)
        if result.derivable:
            ok = tracer.call("inference.verify_derivation", verify_derivation, result.derivation, sigma)
        else:
            ok = tracer.call("countermodel.verify_countermodel", verify_countermodel,
                             result.countermodel, sigma, goal)
        return result, ok, tracer.call("oracle.warm", semantic_entails, sigma, goal, self.cfg)

    def check(self, op, out):
        from anonatom import OracleStatus

        (hyps, _), (goal, _) = self._instance(op)
        result, ok, oracle = out
        want = ref.follows(hyps, goal)
        _expect(result.derivable == want == (oracle.status is OracleStatus.ENTAILED),
                f"{hyps} |- {goal}: engine {result.verdict.value}, oracle {oracle.status.value}, "
                f"subsumption {want}")
        for team in () if want else (result.countermodel.team, oracle.refuter):
            _expect(ref.refutes(team.schema.attributes, team.rows, hyps, goal),
                    f"{hyps} |- {goal}: a returned team does not refute")
        if not ok:
            raise Failed("entails_anonymity returned a certificate its own verifier rejects")

    def probe(self, op, tracer, out):
        from anonatom import build_anonymity_countermodel, parse_atom, satisfies
        from anonatom.countermodel import CONSTRUCTION_TERNARY, candidate_teams

        (hyps, sigma), (goal_t, goal) = self._instance(op)
        for atom in (*hyps, goal_t):
            if atom[0]:
                tracer.call("syntax.parse", parse_atom, gen.atom_text(atom))
        result = out[0]
        if result.derivable:
            tracer.count("inference.derivation_nodes", _tree_size(result.derivation))
        else:
            team = result.countermodel.team
            if result.countermodel.construction == CONSTRUCTION_TERNARY:
                tracer.call("countermodel.ternary", build_anonymity_countermodel, sigma, goal)
                tracer.count("countermodel.grid_rows", len(team))
            for atom in (*sigma.atoms, goal):
                tracer.call("atoms.satisfies_grid", satisfies, team, atom)
        tracer.call("countermodel.candidate_teams", lambda: list(candidate_teams(sigma, goal)))

    def peak_rss_mb(self):
        return _in_process_rss_mb()


# Seed-independent instances on which entails_k_saturate returns a tree that
# verify_derivation rejects (see SAT_FAULT); every round runs them.
SAT_FAULT_PROBES = (
    ([(("x",), ("y",), 3)], (("x",), ("y",), 2), ["x", "y"]),
    ([(("x",), ("x", "y"), 3)], (("x",), ("y",), 2), ["x", "y"]),
)


class EntailK:
    """General k-atom instances across the k = 1 seeding cliff for
    saturation, simple ones for the complete engine."""

    name = "entail-k"

    def __init__(self, seed, quick):
        from anonatom import AtomSet

        rng = random.Random(seed)
        # attributes -> instances.  Few of the costly 7 and 8 keep rounds short;
        # ten at 6, whose cost is tight, hold the median operation.
        sizes = {5: 1, 6: 1} if quick else {5: 6, 6: 10, 7: 3, 8: 3, 9: 4, 10: 6}
        drawn = [("saturate", *gen.general_instance(rng, n, i)) for n, count in sizes.items()
                 for i in range(count)]
        drawn += [("simple", *gen.simple_instance(rng, 3)) for _ in range(2 if quick else 6)]
        drawn += [("saturate", *probe) for probe in SAT_FAULT_PROBES]
        self.ops = [
            {"kind": kind, "hyps": hyps, "goal": goal,
             "sigma": AtomSet(tuple(map(_to_atom, hyps)), frozenset(names)), "atom": _to_atom(goal)}
            for kind, hyps, goal, names in drawn
        ]
        for op in self.ops[-3:]:  # warm-up: the deferred countermodel import and the probes
            self.run(op, NullTracer())

    def run(self, op, tracer):
        from anonatom import (Verdict, entails_k_saturate, entails_k_simple, verify_countermodel,
                              verify_derivation)

        sigma, goal = op["sigma"], op["atom"]
        if op["kind"] == "saturate":
            result = tracer.call("inference.entails_k_saturate", entails_k_saturate, sigma, goal)
        else:
            result = tracer.call("inference.entails_k_simple", entails_k_simple, sigma, goal)
        if result.verdict is Verdict.DERIVABLE:
            return result, tracer.call("inference.verify_derivation", verify_derivation,
                                       result.derivation, sigma)
        if result.verdict is Verdict.NOT_DERIVABLE:
            return result, tracer.call("countermodel.verify_countermodel", verify_countermodel,
                                       result.countermodel, sigma, goal)
        return result, True

    def check(self, op, out):
        from anonatom import Verdict, entails_k_saturate
        from anonatom.inference import explain_derivation

        result, ok = out
        want = ref.follows(op["hyps"], op["goal"])
        where = f"{op['hyps']} |- {op['goal']}"
        if op["kind"] == "simple":
            _expect(result.derivable == want, f"{where}: simple engine {result.verdict.value}, "
                                              f"subsumption {want}")
            if not want:
                team = result.countermodel.team
                _expect(ref.refutes(team.schema.attributes, team.rows, op["hyps"], op["goal"]),
                        f"{where}: countermodel does not refute")
                _expect(not entails_k_saturate(op["sigma"], op["atom"]).derivable,
                        f"{where}: saturation derives a goal the complete simple engine refutes")
        else:
            _expect(result.verdict is not Verdict.NOT_DERIVABLE, f"{where}: saturation said not-derivable")
            _expect(result.derivable or not want, f"{where}: saturation misses a subsumed goal")
        if not ok and result.derivable:
            raise Failed(f"entails_k_saturate returned a tree verify_derivation rejects "
                         f"({explain_derivation(result.derivation, op['sigma'])}); {SAT_FAULT}")
        if not ok:
            raise Failed(f"{where}: a certificate its own verifier rejects")

    def probe(self, op, tracer, out):
        from anonatom import Verdict, build_k_anonymity_countermodel, satisfies
        from anonatom.countermodel import CONSTRUCTION_TRUNCATED

        result = out[0]
        if op["kind"] == "saturate":
            tracer.count("inference.closure_atoms", len(result.saturated or ()))
        if result.derivable:
            tracer.count("inference.derivation_nodes", _tree_size(result.derivation))
        elif result.verdict is Verdict.NOT_DERIVABLE and result.countermodel.construction == CONSTRUCTION_TRUNCATED:
            report = tracer.call("countermodel.truncated", build_k_anonymity_countermodel,
                                 op["sigma"], op["atom"])
            tracer.count("countermodel.grid_rows", len(report.team))
            tracer.count("countermodel.domain_size", report.domain_size)
            for atom in (*op["sigma"].atoms, op["atom"]):
                tracer.call("atoms.satisfies_grid", satisfies, report.team, atom)

    def peak_rss_mb(self):
        return _in_process_rss_mb()


WORKLOADS = {w.name: w for w in (AuditCsv, EntailSweep, EntailK, OracleCold)}
