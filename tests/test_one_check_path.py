"""run and check share one check path: every check entry is built by
cli._gate, and both verbs print their verdict through cli._verdict. The
names they print are the ones the benchmark expects, and README's check
table lists every check with its default."""

import ast
import importlib.util
import json
import math
import pathlib
import re
import sys

import pytest

from dnevolve import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dnevolve"
STORED = ("stored_nodes", "stored_initial", "stored_energy", "stored_gap")

# Functions that may build a dict with a "passed" key: the one check-entry
# builder, and the admissibility audit's per-axiom rows {passed, detail},
# which no verb prints and which carry no value or threshold.
BUILDERS = {("cli", "_gate"), ("potentials", "AdmissibilityReport.to_dict")}


def passed_dicts(sources, allowed=BUILDERS):
    """(module, line, scope) of every dict display with a "passed" key, and
    every dict(...) call with a passed= keyword, in sources ({module:
    text}) outside the functions of allowed, (module, qualified name)
    pairs. scope is the dotted name of the enclosing functions and
    classes, "" at module level."""
    out = []

    def visit(mod, node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
            if (mod, ".".join(scope)) in allowed:
                return
        if isinstance(node, ast.Dict):
            hit = any(isinstance(k, ast.Constant) and k.value == "passed"
                      for k in node.keys)
        else:
            hit = (isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "dict"
                   and any(k.arg == "passed" for k in node.keywords))
        if hit:
            out.append((mod, node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(mod, child, scope)

    for mod, text in sources.items():
        visit(mod, ast.parse(text), ())
    return sorted(out)


def test_gate_builds_every_check_entry():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert passed_dicts(sources) == []
    # each allowed function still exists, so the allowance cannot go stale
    for mod, name in BUILDERS:
        assert passed_dicts(sources, allowed=BUILDERS - {(mod, name)}), name


def test_passed_dicts_sees_every_form():
    # the check entries as the verbs built them before _gate, and the forms
    # a new one might take
    cli_src = (
        "def read_trajectory_csv(path, plan, tau):\n"
        "    checks = [\n"
        "        {'name': 'stored_nodes', 'passed': bad == 0,\n"    # 3
        "         'value': float(bad), 'threshold': 0.0},\n"
        "    ]\n"
        "    return checks\n"
        "def _stored_gap_check(traj):\n"
        "    return {'name': 'stored_gap', 'passed': err <= TOL,\n"  # 8
        "            'value': err, 'threshold': TOL}\n"
        "def run_checks(traj, diag):\n"
        "    out = []\n"
        "    for (s, t) in diag['windows']:\n"
        "        out.append({'name': f'energy_identity[{s},{t}]',\n"  # 13
        "                    'passed': wdef >= wfloor,\n"
        "                    'value': wdef, 'threshold': wfloor})\n"
        "    return out\n"
        "def _gate(name, value, threshold, floor=False):\n"
        "    return {'name': name, 'passed': value <= threshold}\n"
        "def other():\n"
        "    return dict(name='x', passed=True)\n"                   # 20
        "class Report:\n"
        "    def to_dict(self):\n"
        "        return {'passed': True, 'detail': ''}\n"            # 23
        "SUMMARY = {'passed': True}\n")                              # 24
    assert passed_dicts({"cli": cli_src}) == [
        ("cli", 3, "read_trajectory_csv"), ("cli", 8, "_stored_gap_check"),
        ("cli", 13, "run_checks"), ("cli", 20, "other"),
        ("cli", 23, "Report.to_dict"), ("cli", 24, "")]


@pytest.mark.parametrize("value,threshold,floor,passed", [
    (1e-8, 1e-8, False, True),         # a budget passes at its threshold
    (0.99, 0.99, True, True),          # a floor passes at its threshold
    (-0.5, -0.5, True, True),
    (1.5e-8, 1e-8, False, False),
    (0.98, 0.99, True, False),
    (math.nan, 1e-8, False, False),    # NaN fails a budget
    (math.nan, 0.99, True, False),     # and a floor
    (0.0, math.nan, False, False),
    (0.0, math.nan, True, False),
])
def test_gate_boundaries(value, threshold, floor, passed):
    entry = cli._gate("x", value, threshold, floor=floor)
    assert list(entry) == ["name", "passed", "value", "threshold"]
    assert entry["name"] == "x" and entry["passed"] is passed
    assert entry["value"] is value and entry["threshold"] is threshold


# ---------------------------------------------------------------------------
# the printed names against the benchmark's and README's lists


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "certbench_workloads", ROOT / "certbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up while it is being defined
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


# certbench/rep.py reads a verdict line with this pattern
VERDICT = re.compile(r"^check (\S+): (PASS|FAIL)\b", re.MULTILINE)

# a horizon of one to four steps per rung
SHORT_T = {"pf-certify": 2.0 ** -5, "ac-ladder": 2.0 ** -5,
           "ac-pnorm": 2.0 ** -4}


@pytest.mark.parametrize("name", sorted(SHORT_T))
def test_printed_check_names_are_the_benchmarks(tmp_path, capsys, workloads,
                                                name):
    cfg, names = workloads.make_config(name, 0, str(tmp_path / "out"),
                                       T=SHORT_T[name])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    want = {"run": names, "check": [*STORED[:3], *names, STORED[3]]}
    for verb in ("run", "check"):
        code = cli.main([verb, str(path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert [n for n, _ in VERDICT.findall(out)] == want[verb]


def test_readme_check_table_is_the_check_defaults():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = text[text.index("| check | reported by | default |"):]
    rows = {}
    for line in lines.splitlines()[2:]:
        if not line.startswith("|"):
            break
        name, verbs, default = (c.strip() for c in line.split("|")[1:4])
        rows[name.strip("`")] = (verbs, default)
    want = {name: ("`run`, `check`", "on" if on else "off")
            for name, on in cli._CHECK_DEFAULTS.items()}
    want.update((name, ("`check`", "always")) for name in STORED)
    assert rows == want
