"""Config runner: schema rejection paths, output files, check gating, and
byte-stable reruns. Every test drives cli.main the way a shell would."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dnevolve.scheme as scheme
from dnevolve import cli, diagnostics, energy
from dnevolve.models import MODEL_NAMES

BASE = {
    "model": {"name": "QuadraticBenchmark", "params": {}},
    "u0": 0.0,
    "T": 0.5,
    "tau": 0.125,
    "output_dir": "out",
    "seed": 0,
}


def write_cfg(tmp_path, overrides=None, drop=(), name="cfg.json"):
    cfg = {k: v for k, v in BASE.items() if k not in drop}
    cfg["output_dir"] = str(tmp_path / "out")
    for k, v in (overrides or {}).items():
        cfg[k] = v
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# schema rejections (exit 2, field path on stderr)


@pytest.mark.parametrize("overrides,drop,field", [
    ({"tau": -0.1}, (), "tau"),
    ({"tau": 0.5}, (), "tau"),                          # tau_o boundary
    ({"tau_ladder": [0.125, 0.25]}, ("tau",), "tau_ladder[1]"),
    ({"tau_ladder": []}, ("tau",), "tau_ladder"),
    ({"tau_ladder": [0.125]}, (), "tau"),               # both tau forms
    ({}, ("tau",), "tau"),                              # neither tau form
    ({"model": {"name": "NoSuch", "params": {}}}, (), "model.name"),
    ({"model": {"name": "QuadraticBenchmark",
                "params": {"bogus": 1}}}, (), "model.params.bogus"),
    ({"model": {"name": "AbsoluteMarginal",
                "params": {"alpha": 0.1}}}, (), "model.params"),
    ({}, ("u0",), "u0"),
    ({"u0": [0.0, 0.0]}, (), "u0"),
    ({"u0": "zero"}, (), "u0"),
    ({"u0": 30.0}, (), "u0"),                           # outside domain box
    ({"T": -1.0}, (), "T"),
    ({"subdiff_mode": "fd"}, (), "subdiff_mode"),
    ({"subdiff_mode": "marginal"}, (), "subdiff_mode"),  # not for Quadratic
    ({"seed": -1}, (), "seed"),
    ({"seed": True}, (), "seed"),
    ({"surprise": 1}, (), "surprise"),
    ({"diagnostics": {"verbose": True}}, (), "diagnostics.verbose"),
    ({"diagnostics": {"eps_quad": 0.0}}, (), "diagnostics.eps_quad"),
    ({"diagnostics": {"windows": [[0.5, 0.25]]}}, (),
     "diagnostics.windows[0]"),
    ({"diagnostics": {"windows": [0.5]}}, (), "diagnostics.windows[0]"),
    ({"dissipation": {"kind": "cubic"}}, (), "dissipation.kind"),
    ({"dissipation": {"kind": "pnorm", "p": 0.5}}, (), "dissipation.p"),
    ({"output_dir": ""}, (), "output_dir"),
])
def test_rejected_configs(tmp_path, capsys, overrides, drop, field):
    path = write_cfg(tmp_path, overrides, drop)
    code, out, err = run_main(capsys, "run", path)
    assert code == 2
    assert f"config error at {field}:" in err


def test_non_object_params_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "model": {"name": "QuadraticBenchmark", "params": [1, 2]}})
    code, _, err = run_main(capsys, "run", path)
    assert code == 2
    assert "config error at model.params: expected an object" in err


def test_pnorm_with_p_one_exits_2(tmp_path, capsys):
    # p = 1 alone is not superlinear, so PNorm calls it inadmissible
    path = write_cfg(tmp_path, {"dissipation": {"kind": "pnorm", "p": 1}})
    code, _, err = run_main(capsys, "run", path)
    assert code == 2
    assert "config error at dissipation.p: must be > 1" in err


@pytest.mark.parametrize("overrides,drop,field", [
    # json.load accepts NaN; it must not reach as_state's ValueError
    ({"u0": float("nan")}, (), "u0"),
    ({"u0": [float("inf")]}, (), "u0[0]"),
    # a non-numeric or non-finite target point
    ({"model": {"name": "QuadraticBenchmark",
                "params": {"dim": 2, "a": [1, "x"]}}}, (), "model.params.a"),
    ({"model": {"name": "QuadraticBenchmark",
                "params": {"a": float("nan")}}}, (), "model.params.a"),
    ({"model": {"name": "StateWeightedToy",
                "params": {"a": [1.0, 2.0]}}}, (), "model.params.a"),
    # grids longer than MAX_STEPS, rejected before anything is allocated
    ({"T": 1e300, "tau": 0.25}, (), "tau"),
    ({"T": 1e300, "tau": 1e-300}, (), "tau"),
    ({"T": 1e300, "tau_ladder": [0.25, 0.125]}, ("tau",), "tau_ladder[0]"),
])
def test_malformed_values_exit_2(tmp_path, capsys, overrides, drop, field):
    path = write_cfg(tmp_path, overrides, drop)
    code, _, err = run_main(capsys, "run", path)
    assert code == 2
    assert f"config error at {field}:" in err


def test_step_cap_admits_the_longest_grid():
    cli._check_steps(1.0, 2.0 ** -20, "tau")
    with pytest.raises(cli.ConfigError):
        cli._check_steps(1.0, 2.0 ** -20 * (1.0 - 2.0 ** -52), "tau")


def test_conflicting_subdiff_mode(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "model": {"name": "AbsoluteMarginal",
                  "params": {"subdiff_kind": "clarke"}},
        "subdiff_mode": "marginal"})
    code, _, err = run_main(capsys, "run", path)
    assert code == 2
    assert "config error at subdiff_mode:" in err


def test_unreadable_and_invalid_json(tmp_path, capsys):
    code, _, err = run_main(capsys, "run", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read config" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_main(capsys, "run", str(bad))
    assert code == 2 and "invalid JSON" in err


# ---------------------------------------------------------------------------
# run verb


def test_run_writes_outputs_and_passes(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, out, err = run_main(capsys, "run", path)
    assert code == 0, err
    for name in ("minimality", "fenchel_young", "chain_rule",
                 "energy_identity"):
        assert f"check {name}: PASS" in out
    assert "run complete" in out

    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "n,t_n,U_0,xi_0,gap_n,energy_n"
    assert len(csv) == 1 + 4 + 1  # header + N+1 rows
    first = csv[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert float(first[2]) == 0.0   # u0
    assert float(first[3]) == 0.0   # xi_0 convention
    assert float(first[4]) == 0.0   # gap_0 convention

    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert payload["model"] == "QuadraticBenchmark"
    assert payload["parameters"]["offset"] == 1.0
    assert payload["tau"] == 0.125
    assert payload["seed"] == 0
    assert "energy offset 1.0" in out
    assert len(payload["per_step"]) == 4
    assert "refinement" not in payload
    assert all(c["passed"] for c in payload["checks"])


def test_reruns_are_byte_identical(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    csv1 = (tmp_path / "out" / "trajectory.csv").read_bytes()
    json1 = (tmp_path / "out" / "diagnostics.json").read_bytes()
    assert run_main(capsys, "run", path)[0] == 0
    assert (tmp_path / "out" / "trajectory.csv").read_bytes() == csv1
    assert (tmp_path / "out" / "diagnostics.json").read_bytes() == json1


def test_run_traveling_kink_columns(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "model": {"name": "AbsoluteMarginal", "params": {}}})
    code, out, _ = run_main(capsys, "run", path)
    assert code == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    us = [float(r.split(",")[2]) for r in rows]
    xis = [float(r.split(",")[3]) for r in rows]
    gaps = [float(r.split(",")[4]) for r in rows]
    for n in range(1, len(us)):
        assert us[n] - us[n - 1] == pytest.approx(-0.5 * 0.125, abs=1e-12)
        assert xis[n] == 0.5
        assert gaps[n] == 0.0


def test_run_with_windows_snaps_and_drops(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "diagnostics": {"windows": [[0.0, 0.25], [0.1, 0.3], [0.0, 2.0]]}})
    code, out, _ = run_main(capsys, "run", path)
    assert code == 0
    # only the node-aligned in-horizon window survives
    assert "energy_identity[0.0,0.25]: PASS" in out
    assert "[0.1" not in out and "2.0]" not in out
    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert len(payload["global"]["window_defects"]) == 1


def test_run_with_dissipation_override(tmp_path, capsys):
    path = write_cfg(tmp_path, {"dissipation": {"kind": "quadratic",
                                                "c": 2.0}})
    code, _, err = run_main(capsys, "run", path)
    assert code == 0, err


def test_run_with_step_inequality_enabled(tmp_path, capsys):
    # eps_quad sized for the O(tau^2) per-step defect at this coarse tau
    path = write_cfg(tmp_path, {
        "diagnostics": {"step_inequality": True, "eps_quad": 1e-3}})
    code, out, _ = run_main(capsys, "run", path)
    assert code == 0
    assert "check step_inequality: PASS" in out
    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert isinstance(payload["per_step"][0]["step_inequality_defect"], float)


def test_ladder_run_writes_refinement(tmp_path, capsys):
    path = write_cfg(tmp_path, {"tau_ladder": [0.125, 0.0625]}, drop=("tau",))
    code, _, err = run_main(capsys, "run", path)
    assert code == 0, err
    ref = (tmp_path / "out" / "refinement.csv").read_text().splitlines()
    assert ref[0].startswith("tau,N,status,energy_identity_defect")
    assert len(ref) == 3
    assert ref[1].split(",")[2] == "ok"
    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert len(payload["refinement"]) == 2
    # trajectory comes from the finest ladder row, bit for bit
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 8 + 1
    single = tmp_path / "single"
    single.mkdir()
    assert run_main(capsys, "run", write_cfg(single, {"tau": 0.0625}))[0] == 0
    assert ((single / "out" / "trajectory.csv").read_text().splitlines()
            == rows)


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scheme, "TRIAGE_ITERS", 1)
    monkeypatch.setattr(scheme, "MAX_REFINE_ITERS", 1)
    path = write_cfg(tmp_path, {
        "model": {"name": "AllenCahn1D", "params": {"N": 4, "rho": 0.0}},
        "u0": [0.1, 0.2, 0.2, 0.1],
        "tau": 0.125})
    code, _, err = run_main(capsys, "run", path)
    assert code == 3
    assert "solver failure" in err


def test_output_root_env_prefixes_relative_dirs(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setenv("DNEVOLVE_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = dict(BASE)
    cfg["output_dir"] = "nested/run1"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_main(capsys, "run", str(path))
    assert code == 0, err
    assert (tmp_path / "root" / "nested" / "run1" / "trajectory.csv").exists()


def test_run_and_check_import_no_scipy(tmp_path):
    # a fresh interpreter, since this one may have loaded scipy for tests
    path = write_cfg(tmp_path, {"dissipation": {"kind": "pnorm", "p": 1.5}})
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "\n".join([
        "import sys",
        "import dnevolve",
        "from dnevolve import cli",
        f"assert cli.main(['run', {path!r}]) == 0",
        f"assert cli.main(['check', {path!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# check verb


def test_check_round_trip(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    code, out, _ = run_main(capsys, "check", path)
    assert code == 0
    assert "check fenchel_young: PASS" in out
    assert "check stored_nodes: PASS" in out
    assert "check stored_energy: PASS" in out
    assert "check stored_gap: PASS" in out


@pytest.mark.parametrize("col,value,name", [
    (4, "5.0", "stored_gap"), (4, "nan", "stored_gap"),
    (5, "nan", "stored_energy")])
def test_check_compares_stored_columns(tmp_path, capsys, col, value, name):
    # columns n, t_n, U_0, xi_0, gap_n, energy_n; no check reads the stored
    # gaps and energies, so only the comparison with the recomputation can
    # catch a corrupted cell
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    _rewrite_cell(tmp_path / "out" / "trajectory.csv", 2, col, value)
    code, out, err = run_main(capsys, "check", path)
    assert code == 1
    assert f"check {name}: FAIL" in out
    assert f"failing checks: {name}\n" in err


def test_check_recomputes_stored_energy(tmp_path, capsys):
    # a lowered final energy keeps the chain-rule fraction and the identity
    # gate passing, so only the recomputed energy column can catch it
    path = write_cfg(tmp_path, {
        "model": {"name": "PhaseField1D", "params": {}}, "u0": 0.55,
        "T": 1.0, "tau": 2.0 ** -7})
    assert run_main(capsys, "run", path)[0] == 0
    csv_path = tmp_path / "out" / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    last = lines[-1].split(",")
    _rewrite_cell(csv_path, len(lines) - 1, len(last) - 1,
                  repr(float(last[-1]) - 0.5))
    code, out, err = run_main(capsys, "check", path)
    assert code == 1
    assert "check stored_energy: FAIL" in out
    assert "check chain_rule: PASS" in out
    assert "failing checks: stored_energy" in err


@pytest.mark.parametrize("col,value", [(0, "3"), (1, "0.3")])
def test_check_validates_node_columns(tmp_path, capsys, col, value):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    _rewrite_cell(tmp_path / "out" / "trajectory.csv", 2, col, value)
    code, out, err = run_main(capsys, "check", path)
    assert code == 1
    assert "check stored_nodes: FAIL (value=1," in out
    assert "failing checks: stored_nodes" in err


def test_check_requires_existing_trajectory(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code, _, err = run_main(capsys, "check", path)
    assert code == 2
    assert "config error at output_dir:" in err


def test_check_detects_corrupted_multiplier(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    csv_path = tmp_path / "out" / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[3] = repr(float(parts[3]) + 1.0)
    lines[3] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 1
    assert "check fenchel_young: FAIL" in out
    assert "failing checks: fenchel_young" in err


def test_check_rejects_malformed_trajectory(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    csv_path = tmp_path / "out" / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")  # drop last row
    code, _, err = run_main(capsys, "check", path)
    assert code == 2
    assert "config error at output_dir:" in err


def _rewrite_cell(csv_path, row, col, value):
    lines = csv_path.read_text().splitlines()
    parts = lines[row].split(",")
    parts[col] = value
    lines[row] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")


def test_check_rejects_out_of_domain_state(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    _rewrite_cell(tmp_path / "out" / "trajectory.csv", 3, 2, "99.0")
    code, _, err = run_main(capsys, "check", path)
    assert code == 2
    assert "config error at output_dir:" in err
    assert "domain" in err


def test_check_rejects_non_numeric_cell(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    _rewrite_cell(tmp_path / "out" / "trajectory.csv", 2, 3, "nope")
    code, _, err = run_main(capsys, "check", path)
    assert code == 2
    assert "config error at output_dir:" in err


def test_check_fails_on_foreign_multiplier(tmp_path, capsys):
    # a marginal model conditions P on the stored xi; a xi matching no
    # minimizer must read as a failed certification, not a traceback
    path = write_cfg(tmp_path, {
        "model": {"name": "AbsoluteMarginal", "params": {}}})
    assert run_main(capsys, "run", path)[0] == 0
    _rewrite_cell(tmp_path / "out" / "trajectory.csv", 3, 3, "0.123")
    code, out, err = run_main(capsys, "check", path)
    assert code == 1
    assert "check conditioning: FAIL" in out
    assert "failing checks: conditioning" in err


# ---------------------------------------------------------------------------
# informational verbs


def test_list_models(capsys):
    code, out, _ = run_main(capsys, "list-models")
    assert code == 0
    assert out.split() == list(MODEL_NAMES)


def test_describe_known_and_unknown(capsys):
    code, out, _ = run_main(capsys, "describe", "AbsoluteMarginal")
    assert code == 0
    assert "alpha > beta" in out
    code, _, err = run_main(capsys, "describe", "NoSuch")
    assert code == 2
    assert "config error at model.name:" in err


def test_trajectory_csv_parses_cleanly_with_numpy(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    data = np.genfromtxt(tmp_path / "out" / "trajectory.csv", delimiter=",",
                         names=True)
    assert data.shape == (5,)
    assert set(data.dtype.names) == {"n", "t_n", "U_0", "xi_0", "gap_n",
                                     "energy_n"}


# ---------------------------------------------------------------------------
# certify once: one certificate pass per trajectory, shared by its consumers


PF_CERTIFY = {
    "model": {"name": "PhaseField1D", "params": {}}, "u0": 0.55,
    "T": 2.0 ** -5, "tau": 2.0 ** -7,
    "diagnostics": {"step_inequality": True,
                    "windows": [[0.0, 2.0 ** -6], [2.0 ** -6, 2.0 ** -5]]},
}


def _count_calls(monkeypatch, counts, module, name, on_call=None):
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if on_call is not None:
            on_call(*args, **kwargs)
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_run_certifies_once(tmp_path, capsys, monkeypatch):
    counts, points = {}, set()

    def record(model, t, u, delta_M=None):
        points.add((float(t), np.asarray(u, dtype=float).tobytes()))

    _count_calls(monkeypatch, counts, diagnostics, "_per_step_terms")
    _count_calls(monkeypatch, counts, diagnostics, "step_inequality")
    _count_calls(monkeypatch, counts, diagnostics, "chain_rule_constant")
    _count_calls(monkeypatch, counts, energy, "argmin_set", record)
    _count_calls(monkeypatch, counts, energy, "_marginal_candidates")
    code, out, err = run_main(capsys, "run", write_cfg(tmp_path, PF_CERTIFY))
    assert code == 0, err
    assert "check energy_identity[0.015625,0.03125]: PASS" in out
    assert counts["_per_step_terms"] == 1
    assert counts["step_inequality"] == 1
    # PhaseField1D declares no c_chain: each call makes N + 1 energy calls
    assert counts["chain_rule_constant"] == 1
    assert counts["argmin_set"] > len(points)
    assert counts["_marginal_candidates"] == len(points)


def test_ladder_run_solves_each_rung_once(tmp_path, capsys, monkeypatch):
    counts = {}
    _count_calls(monkeypatch, counts, diagnostics, "solve")
    _count_calls(monkeypatch, counts, cli, "solve")
    path = write_cfg(tmp_path, {"tau_ladder": [0.125, 0.0625, 0.03125]},
                     drop=("tau",))
    assert run_main(capsys, "run", path)[0] == 0
    assert counts == {"solve": 3}


def test_run_report_equals_standalone_diagnostics(tmp_path, capsys):
    path = write_cfg(tmp_path, PF_CERTIFY)
    assert run_main(capsys, "run", path)[0] == 0
    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())

    # a fresh plan, so a fresh model with an empty argmin memo
    plan = cli.load_plan(path)
    traj = scheme.solve(plan.spec.energy, plan.psi, plan.u0,
                        scheme.TimeGrid(T=plan.T, tau=plan.ladder[-1]),
                        plan.opts)
    gaps = diagnostics.fenchel_young_profile(traj)
    chains = diagnostics.chain_rule_defects(traj)
    ineq = diagnostics.step_inequality(traj)
    for row in payload["per_step"]:
        n = row["n"]
        assert row["fenchel_young_gap"] == gaps[n]
        assert row["chain_rule_defect"] == chains[n]
        assert row["step_inequality_defect"] == ineq.max_defects[n]
    overall = payload["global"]
    assert (overall["energy_identity_defect"]
            == diagnostics.energy_identity_defect(traj))
    assert len(overall["window_defects"]) == 2
    for w in overall["window_defects"]:
        assert w["defect"] == diagnostics.energy_identity_defect(
            traj, w["s"], w["t"])
    for key, val in diagnostics.dissipation_integrals(traj).items():
        assert overall[key] == val
    assert overall["chain_rule_constant"] == \
        diagnostics.chain_rule_constant(traj)
    assert overall["eps_quad"] == diagnostics.resolve_eps_quad(traj)
