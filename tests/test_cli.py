"""Config runner: schema rejection paths, output files, check gating, and
byte-stable reruns. Every test drives cli.main the way a shell would."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import dnevolve.scheme as scheme
from dnevolve import _optim, cli, diagnostics, energy, models
from dnevolve.errors import ConditioningError, StepFailureError
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
    ({"dissipation": {"kind": "quadratic", "c": 0.0}}, (), "dissipation.c"),
    ({"dissipation": {"kind": "pnorm", "c": -1.0}}, (), "dissipation.c"),
    ({"dissipation": {"kind": "one_hom_plus_quad", "rho": -0.1}}, (),
     "dissipation.rho"),
    ({"dissipation": {"kind": "one_hom_plus_quad", "eps": 0.0}}, (),
     "dissipation.eps"),
    ({"diagnostics": {"chain_rule": 1}}, (), "diagnostics.chain_rule"),
    ({"diagnostics": {"windows": "all"}}, (), "diagnostics.windows"),
    ({"tau_ladder": [0.25, 0.0]}, ("tau",), "tau_ladder[1]"),
    ({"tau_ladder": [0.5, 0.25]}, ("tau",), "tau_ladder[0]"),  # tau_o
    ({"dissipation": {"kind": "pnorm", "p": 1e300}}, (), "dissipation.p"),
    # a parameter's own bound names its key
    ({"model": {"name": "AllenCahn1D", "params": {"q": 9}}}, (),
     "model.params.q"),
    ({"model": {"name": "AllenCahn1D", "params": {"N": 1}}}, (),
     "model.params.N"),
    ({"model": {"name": "QuadraticBenchmark", "params": {"dim": 17}}}, (),
     "model.params.dim"),
    ({"model": {"name": "AbsoluteMarginal", "params": {"t_cap": 9}}}, (),
     "model.params.t_cap"),
    ({"model": {"name": "StateWeightedToy",
                "params": {"omega_scale": 0.96}}}, (),
     "model.params.omega_scale"),
    ({"diagnostics": []}, (), "diagnostics"),
    ({"diagnostics": {"step_inequality": "yes"}}, (),
     "diagnostics.step_inequality"),
    ({"diagnostics": {"eps_quad": True}}, (), "diagnostics.eps_quad"),
    ({"diagnostics": {"windows": [[0.0, "x"]]}}, (),
     "diagnostics.windows[0][1]"),
])
def test_rejected_configs(tmp_path, capsys, overrides, drop, field):
    path = write_cfg(tmp_path, overrides, drop)
    code, out, err = run_main(capsys, "run", path)
    assert code == 2
    assert f"config error at {field}:" in err


@pytest.mark.parametrize("diag,message", [
    ({"chain_rule": 1},
     "diagnostics.chain_rule: expected a boolean, got 1"),
    ({"eps_quad": 0.0}, "diagnostics.eps_quad: must be > 0; got 0.0"),
])
def test_diagnostics_rejections_name_the_value(tmp_path, capsys, diag,
                                               message):
    # the diagnostics block is read by the parameter-row reader, whose
    # messages give the rejected value
    path = write_cfg(tmp_path, {"diagnostics": diag})
    for verb in ("run", "check"):
        code, out, err = run_main(capsys, verb, path)
        assert (code, out, err) == (2, "", f"config error at {message}\n")


def test_non_object_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([BASE]))
    code, _, err = run_main(capsys, "run", str(path))
    assert code == 2
    assert "config error at <config>: top-level config must be an object" \
        in err


def test_uncreatable_output_dir_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    path = write_cfg(tmp_path, {"output_dir": str(tmp_path / "file" / "out")})
    code, _, err = run_main(capsys, "run", path)
    assert code == 2
    assert "config error at output_dir: cannot create:" in err


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


@pytest.mark.parametrize("kind", ["", False, None, 0])
def test_malformed_subdiff_kind_is_rejected(tmp_path, capsys, kind):
    # models.build rejects these, so the config boundary must not swap in
    # the default mode for them
    path = write_cfg(tmp_path, {
        "model": {"name": "AbsoluteMarginal",
                  "params": {"subdiff_kind": kind}}})
    code, _, err = run_main(capsys, "run", path)
    assert code == 2
    assert "config error at model.params.subdiff_kind:" in err


def test_unreadable_and_invalid_json(tmp_path, capsys):
    code, _, err = run_main(capsys, "run", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read config" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_main(capsys, "run", str(bad))
    assert code == 2 and "invalid JSON" in err


@pytest.mark.parametrize("verb", ["run", "check"])
@pytest.mark.parametrize("data", [
    b'{"T": ' + b"1" * 5000 + b"}",   # beyond int's 4300-digit limit
    b"[" * 100000,                    # beyond the recursion limit
    b"\xff\xfe{}",                    # not UTF-8
], ids=["long-int", "deep-nesting", "not-utf8"])
def test_malformed_config_bytes_exit_2(tmp_path, capsys, verb, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, _, err = run_main(capsys, verb, str(bad))
    assert code == 2
    assert err.startswith("config error at <config>: invalid JSON: ")


@pytest.mark.parametrize("spoil", [
    lambda p: p.write_bytes(b"\xff\xfe" + p.read_bytes()),
    lambda p: (p.unlink(), p.mkdir()),
], ids=["not-utf8", "a-directory"])
def test_unreadable_trajectory_exits_2(tmp_path, capsys, spoil):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    spoil(tmp_path / "out" / "trajectory.csv")
    code, _, err = run_main(capsys, "check", path)
    assert code == 2
    assert "config error at output_dir: cannot read trajectory.csv" in err


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
        "tau": 0.0625,
        "diagnostics": {"windows": [[0.0, 0.25], [0.1, 0.3], [0.0, 2.0]]}})
    code, out, err = run_main(capsys, "run", path)
    assert code == 0
    # only the node-aligned in-horizon window survives
    assert "energy_identity[0.0,0.25]: PASS" in out
    assert "[0.1" not in out and "2.0]" not in out
    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert len(payload["global"]["window_defects"]) == 1
    # each dropped window gets one stderr line naming it
    dropped = err.splitlines()
    assert len(dropped) == 2
    assert dropped[0].startswith("window [0.1, 0.3] dropped: ")
    assert dropped[1].startswith("window [0.0, 2.0] dropped: ")


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


def test_ladder_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scheme, "TRIAGE_ITERS", 1)
    monkeypatch.setattr(scheme, "MAX_REFINE_ITERS", 1)
    path = write_cfg(tmp_path, {
        "model": {"name": "AllenCahn1D", "params": {"N": 4, "rho": 0.0}},
        "u0": [0.1, 0.2, 0.2, 0.1],
        "tau_ladder": [0.125, 0.0625]}, drop=("tau",))
    code, _, err = run_main(capsys, "run", path)
    assert code == 3
    assert "solver failure on ladder row tau=0.125: solve failed:" in err
    assert (tmp_path / "out" / "refinement.csv").exists()


# a PNorm scale so small that c^(1-q) leaves the float range (q = 3)
TINY_PNORM = {"kind": "pnorm", "c": 1e-300, "p": 1.5}


def test_tiny_pnorm_scale_runs_without_overflow(tmp_path, capsys):
    # the conjugate raised OverflowError out of run at every query, even at
    # xi = 0; it is 0 there, so the run goes through, and the jump to the
    # target in the first step fails the chain-rule check
    single = write_cfg(tmp_path, {"T": 0.25, "dissipation": TINY_PNORM})
    code, _, err = run_main(capsys, "run", single)
    assert code == 1
    assert err.strip() == "failing checks: chain_rule"
    ladder = write_cfg(tmp_path, {"T": 0.25, "dissipation": TINY_PNORM,
                                  "tau_ladder": [0.125, 0.0625]},
                       drop=("tau",), name="ladder.json")
    code, _, err = run_main(capsys, "run", ladder)
    assert code == 1
    assert err.strip() == "failing checks: chain_rule"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_pnorm_scale_checks_without_overflow(tmp_path, capsys):
    # a trajectory written under c = 1 has nonzero multipliers, whose
    # conjugate under the tiny scale is +inf: a failed check, not a crash;
    # the stored gaps are then infinitely off, where inf / inf gave nan
    written = write_cfg(tmp_path, {"T": 0.25, "dissipation": dict(
        TINY_PNORM, c=1.0)})
    assert run_main(capsys, "run", written)[0] == 0
    path = write_cfg(tmp_path, {"T": 0.25, "dissipation": TINY_PNORM})
    code, out, err = run_main(capsys, "check", path)
    assert code == 1
    assert "check fenchel_young: FAIL (value=inf" in out
    assert "check stored_gap: FAIL (value=inf" in out
    assert "fenchel_young" in err


def test_interpolant_solve_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a stalled interpolant solve escaped main as a StepFailureError
    # traceback, from run and from check; a real AllenCahn1D config hits
    # it after seconds of solving, so a stand-in stalls the interpolant
    # solves here: the 1-D row batch whose steps are shorter than tau
    real = scheme._solve_1d

    def stall(model, p, u_prev, t, tau, e_prev):
        if (tau < BASE["tau"]).any():
            raise StepFailureError("inner solver stalled")
        return real(model, p, u_prev, t, tau, e_prev)

    monkeypatch.setattr(scheme, "_solve_1d", stall)
    path = write_cfg(tmp_path, {"diagnostics": {"step_inequality": True}})
    for verb in ("run", "check"):
        code, _, err = run_main(capsys, verb, path)
        assert code == 3, err
        assert ("solver failure at step 1: interpolant solve at "
                "t=0.015625 failed: inner solver stalled") in err


def test_nan_witness_exits_3(tmp_path, capsys, monkeypatch):
    # NaN fails every comparison, so a `witness > WITNESS_TOL` abort let a
    # NaN witness through to the outputs, where it showed only as exit 1
    real = scheme.minimality_witness

    def nan_witness(*args, **kwargs):
        # a NaN in every row of the witness array
        e, w = real(*args, **kwargs)
        return e, w * float("nan")

    monkeypatch.setattr(scheme, "minimality_witness", nan_witness)
    code, _, err = run_main(capsys, "run", write_cfg(tmp_path))
    assert code == 3
    assert "minimality witness nan" in err


@pytest.mark.parametrize("patch", ["nan_gap", "all_gaps_inf"])
def test_non_finite_gap_exits_3(tmp_path, capsys, monkeypatch, patch):
    # solve stored a non-finite gap (and, with every candidate's gap
    # infinite, a NaN multiplier), so run exited 0 on outputs that its own
    # check rejects
    if patch == "nan_gap":
        real = scheme._select_multiplier

        def select(*args):
            xi, gap = real(*args)
            return xi, np.full_like(gap, np.nan)
        monkeypatch.setattr(scheme, "_select_multiplier", select)
        shown = "gap nan"
    else:
        # every candidate's gap, of the one row call over them, is inf
        monkeypatch.setattr(scheme.potentials, "fenchel_young_gap",
                            lambda p, v, xi: np.full(len(v), math.inf))
        shown = "gap inf"
    code, _, err = run_main(capsys, "run", write_cfg(tmp_path))
    assert code == 3
    assert shown in err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_p_one_and_a_half_noisy_start_solves(tmp_path, capsys):
    # this config stalled with exit 3 at step 13 (prox residual 7.4e-7
    # against 2.5e-10): the value test alone accepted steps whose decrease
    # was below float resolution, so backtracking never raised L
    rng = random.Random(1)
    u0 = [0.1 * math.sin(math.pi * (i + 0.5) / 32)
          + 0.01 * rng.uniform(-1.0, 1.0) for i in range(32)]
    path = write_cfg(tmp_path, {
        "model": {"name": "AllenCahn1D", "params": {"N": 32, "p": 1.5}},
        "u0": u0, "T": 0.25, "tau": 2.0 ** -6})
    code, _, err = run_main(capsys, "run", path)
    assert code == 0, err


def test_p_one_and_a_half_interpolant_solves(tmp_path, capsys):
    # the De Giorgi interpolant at t = tau/2 stalled with exit 3 at L = 4096
    # after 20480 iterations, although its Hessian there has eigenvalues
    # 3.0 to 36.2: the prox-grad step size could only shrink. Every solve
    # now converges; chain_rule and step_inequality fail on their own merits
    path = write_cfg(tmp_path, {
        "model": {"name": "AllenCahn1D",
                  "params": {"N": 4, "p": 1.5, "q": 4, "rho": 0}},
        "u0": [-0.8207801848836977, 0.4138031035087677, 0.7909721601955884,
               -0.8672351491452202],
        "T": 0.125, "tau": 2.0 ** -5,
        "diagnostics": {"step_inequality": True}})
    code, _, err = run_main(capsys, "run", path)
    assert code == 1, err
    assert "stalled" not in err
    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failed == ["chain_rule", "step_inequality"]


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
    assert "check stored_initial: PASS" in out
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


@pytest.mark.parametrize("col,edit", [
    (2, lambda x: x + 1e-6 * (1.0 + abs(x))),   # U_0, moved by 1e-6
    (3, lambda x: 1e-6),                         # xi_0
    (4, lambda x: 1e-13)])                       # gap_0, within stored_gap
def test_check_compares_row_zero_with_the_config(tmp_path, capsys, col,
                                                 edit):
    # row 0 is u0 with xi_0 = gap_0 = 0. With the energy_n and gap_n
    # columns rewritten to match the edit, as a writer that recomputes its
    # columns would, every other check passes these edits
    path = write_cfg(tmp_path, {"T": 0.125, "tau": 2.0 ** -6})
    assert run_main(capsys, "run", path)[0] == 0
    csv_path = tmp_path / "out" / "trajectory.csv"
    rows = [ln.split(",") for ln in csv_path.read_text().splitlines()]
    rows[1][col] = "%.17g" % edit(float(rows[1][col]))
    csv_path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    plan = cli.load_plan(path)
    traj, _ = cli.read_trajectory_csv(str(csv_path), plan, plan.ladder[-1])
    gap = diagnostics.fenchel_young_profile(traj)
    for n in range(traj.N + 1):
        rows[n + 1][-1] = "%.17g" % traj.energies[n]
        if n:
            rows[n + 1][-2] = "%.17g" % gap[n]
    csv_path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    code, out, err = run_main(capsys, "check", path)
    assert code == 1
    assert "check stored_initial: FAIL (value=1," in out
    assert err == "failing checks: stored_initial\n"


@pytest.mark.parametrize("overrides", [
    {},
    # a state-dependent potential: one witness call per frozen potential
    {"model": {"name": "StateWeightedToy", "params": {"dim": 2}},
     "u0": [0.3, -0.2]}])
def test_check_reads_energies_and_witnesses_as_rows(tmp_path, capsys,
                                                    monkeypatch, overrides):
    path = write_cfg(tmp_path, overrides)
    assert run_main(capsys, "run", path)[0] == 0
    calls = {"energy_value": [], "minimality_witness": []}
    for name in calls:
        def counted(model, *args, _real=getattr(cli, name), _name=name):
            calls[_name].append(len(args[-1]))
            return _real(model, *args)
        monkeypatch.setattr(cli, name, counted)
    plan = cli.load_plan(path)
    traj, _ = cli.read_trajectory_csv(str(tmp_path / "out" / "trajectory.csv"),
                                      plan, plan.ladder[-1])
    N = traj.N
    frozen = {traj.psi_at(n) for n in range(1, N + 1)}
    assert calls["energy_value"] == [2 * N + 1]
    assert len(calls["minimality_witness"]) == len(frozen)
    assert sum(calls["minimality_witness"]) == N
    # each as the loop over the steps computed it
    model, grid = plan.spec.energy, traj.grid
    want_e, want_w = [energy.energy_value(model, 0.0, traj.U[0])], [0.0]
    for n in range(1, N + 1):
        e, w = scheme.minimality_witness(
            model, traj.psi_at(n), grid.t(n), grid.tau, traj.U[n - 1],
            traj.U[n], energy.energy_value(model, grid.t(n), traj.U[n - 1]))
        want_e.append(e)
        want_w.append(w)
    assert ([float(x).hex() for x in traj.energies]
            == [float(x).hex() for x in want_e])
    assert ([float(x).hex() for x in traj.witnesses]
            == [float(x).hex() for x in want_w])


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


@pytest.mark.parametrize("row,edit", [
    (2, lambda c: c[:2] + ["nan"] + c[3:]),     # U_0
    (2, lambda c: c[:2] + ["inf"] + c[3:]),
    (2, lambda c: c[:3] + ["nan"] + c[4:]),     # xi_0
    (2, lambda c: c[:3] + ["-inf"] + c[4:]),
    (2, lambda c: c[:-1]),                      # a short row
    (2, lambda c: c + ["0.0"]),                 # an extra cell
    (0, lambda c: c + ["extra"]),               # an extra header cell
    (None, None),                               # an empty file
], ids=["U-nan", "U-inf", "xi-nan", "xi-inf", "short-row", "extra-cell",
        "extra-header", "empty"])
def test_check_rejects_malformed_row(tmp_path, capsys, row, edit):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    csv_path = tmp_path / "out" / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    if row is None:
        lines = []
    else:
        lines[row] = ",".join(edit(lines[row].split(",")))
    csv_path.write_text("".join(ln + "\n" for ln in lines))
    code, _, err = run_main(capsys, "check", path)
    assert code == 2
    assert "config error at output_dir:" in err


@pytest.mark.parametrize("header", ["a,b,c,d,e,f",
                                    "n,t_n,xi_0,U_0,gap_n,energy_n"],
                         ids=["garbage", "U-xi-swapped"])
def test_check_rejects_a_foreign_header(tmp_path, capsys, header):
    path = write_cfg(tmp_path)
    assert run_main(capsys, "run", path)[0] == 0
    csv_path = tmp_path / "out" / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,t_n,U_0,xi_0,gap_n,energy_n"
    csv_path.write_text("".join(ln + "\n" for ln in [header] + lines[1:]))
    code, out, err = run_main(capsys, "check", path)
    assert code == 2
    assert out == ""
    assert (f"config error at output_dir: trajectory.csv header is "
            f"{header!r}") in err


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


def test_describe_known_and_unknown(capsys, tmp_path):
    code, out, _ = run_main(capsys, "describe", "AbsoluteMarginal")
    assert code == 0
    assert "alpha > beta" in out
    code, _, err = run_main(capsys, "describe", "NoSuch")
    assert code == 2
    assert "config error at model.name:" in err
    # run names an unknown model with the same line
    assert err == ("config error at model.name: unknown model 'NoSuch'; "
                   "registered: " + ", ".join(MODEL_NAMES) + "\n")
    path = write_cfg(tmp_path, {"model": {"name": "NoSuch"}})
    assert run_main(capsys, "run", path) == (2, "", err)


@pytest.mark.parametrize("argv,reason", [
    ([], "no verb given"),
    (["bogus"], "unknown verb 'bogus'"),
    (["run"], "run takes 1 argument(s), got 0"),
    (["run", "a", "b"], "run takes 1 argument(s), got 2"),
    (["list-models", "x"], "list-models takes 0 argument(s), got 1"),
    (["--x"], "unknown verb '--x'")])
def test_usage_errors_exit_2(capsys, argv, reason):
    # argparse's exit status, now returned instead of raised
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"{cli.USAGE}\ndnevolve: error: {reason}\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage(capsys, flag):
    code, out, err = run_main(capsys, flag)
    assert code == 0
    assert out == cli.USAGE + "\n"
    assert err == ""


def test_cli_import_loads_no_argparse_or_numpy_random():
    # a fresh interpreter: this one has loaded both for pytest and the tests
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, dnevolve.cli; print(sorted(m for m in sys.modules "
            "if m in ('argparse', 'numpy.random')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    counts, points = {"argmin_rows": 0}, set()

    def record(model, t, U):
        # each row of an argmin query is one point asked
        counts["argmin_rows"] += len(t)
        for tb, ub in zip(t, U):
            points.add((float(tb), np.asarray(ub, dtype=float).tobytes()))

    _count_calls(monkeypatch, counts, diagnostics, "_per_step_terms")
    _count_calls(monkeypatch, counts, diagnostics, "step_inequality")
    _count_calls(monkeypatch, counts, diagnostics, "chain_rule_constant")
    _count_calls(monkeypatch, counts, energy, "_argmin_rows", record)
    # the candidates of one point, or of a batch of rows, count once per
    # point they evaluate
    orig = energy._marginal_candidates

    def candidates(model, t, u):
        counts["candidate_points"] = (counts.get("candidate_points", 0)
                                      + max(np.size(t), 1))
        return orig(model, t, u)
    monkeypatch.setattr(energy, "_marginal_candidates", candidates)
    code, out, err = run_main(capsys, "run", write_cfg(tmp_path, PF_CERTIFY))
    assert code == 0, err
    assert "check energy_identity[0.015625,0.03125]: PASS" in out
    assert counts["_per_step_terms"] == 1
    assert counts["step_inequality"] == 1
    # PhaseField1D declares no c_chain: each call makes N + 1 energy calls
    assert counts["chain_rule_constant"] == 1
    assert counts["argmin_rows"] > len(points)
    assert counts["candidate_points"] == len(points)


def test_phase_field_run_makes_no_golden_section_calls(tmp_path, capsys,
                                                       monkeypatch):
    # PhaseField1D's eta_candidates hook answers every argmin query, so the
    # grid-plus-golden route never runs; the safety pass still does
    counts = {}
    _count_calls(monkeypatch, counts, _optim, "golden_min_batched")
    _count_calls(monkeypatch, counts, energy, "_marginal_candidates")
    code, out, err = run_main(capsys, "run", write_cfg(tmp_path, PF_CERTIFY))
    assert code == 0, err
    assert "check step_inequality: PASS" in out
    assert counts.get("golden_min_batched", 0) == 0
    assert counts["_marginal_candidates"] > 0


def test_clarke_multiplier_without_conditioning_fails_run_and_check(
        tmp_path, capsys):
    # at AbsoluteMarginal's kink the Clarke candidate 0 is the r = 0
    # sample's conjugate-minimal multiplier, and P matches no minimizing
    # branch to it: run died with a ConditioningError traceback, while
    # check reported a failed certification
    path = write_cfg(tmp_path, {
        "model": {"name": "AbsoluteMarginal",
                  "params": {"subdiff_kind": "clarke"}},
        "u0": 0.0, "tau": 2.0 ** -5, "T": 0.25,
        "diagnostics": {"step_inequality": True}})
    for verb in ("run", "check"):
        code, out, err = run_main(capsys, verb, path)
        assert code == 1, err
        assert out.startswith("check conditioning: FAIL (xi = [0.0] matches "
                              "no minimizer of AbsoluteMarginal")
        assert err == "failing checks: conditioning\n"


def test_ladder_conditioning_failure_exits_1(tmp_path, capsys, monkeypatch):
    # the refinement study certifies every rung before the run's own
    # checks; a multiplier P cannot be conditioned on fails there as it
    # fails in the checks: exit 1 and one conditioning line
    def unconditioned(model, t, U, XI):
        raise ConditioningError("xi matches no minimizer")

    monkeypatch.setattr(diagnostics, "generalized_time_derivative",
                        unconditioned)
    path = write_cfg(tmp_path, {"tau_ladder": [0.125, 0.0625]}, drop=("tau",))
    code, out, err = run_main(capsys, "run", path)
    assert code == 1
    assert out == "check conditioning: FAIL (xi matches no minimizer)\n"
    assert err == "failing checks: conditioning\n"


def test_trajectory_csv_cells_are_the_per_cell_format(tmp_path):
    # a row is one join of "%.17g" over its Python floats; the reference
    # formats each cell with cli._fmt, and n with str
    spec = models.build("AllenCahn1D", {"N": 3})
    traj = scheme.solve(spec.energy, spec.dissipation, [0.1, 0.2, 0.1],
                        scheme.TimeGrid(T=2.0 ** -4, tau=2.0 ** -6))
    U = traj.U.copy()
    U[1] = (-0.0, 5e-324, -1e300)
    traj = dataclasses.replace(traj, U=U)
    path = tmp_path / "trajectory.csv"
    cli.write_trajectory_csv(str(path), traj)
    lines = path.read_text().splitlines()
    for n, line in enumerate(lines[1:]):
        cells = ([str(n), cli._fmt(traj.grid.t(n))]
                 + [cli._fmt(x) for x in traj.U[n]]
                 + [cli._fmt(x) for x in traj.xi[n]]
                 + [cli._fmt(traj.gaps[n]), cli._fmt(traj.energies[n])])
        assert line == ",".join(cells)
    assert lines[2].split(",")[2:5] == ["-0", "4.9406564584124654e-324",
                                        "-1.0000000000000001e+300"]


def test_ladder_run_solves_each_rung_once(tmp_path, capsys, monkeypatch):
    # the study solves its rungs in one lockstep call, and the run reuses
    # its finest rung instead of solving it again
    counts, rungs = {}, []

    def record(model, psi, u0, grids, opts):
        rungs.extend(g.tau for g in grids)

    _count_calls(monkeypatch, counts, diagnostics, "_solve_grids", record)
    _count_calls(monkeypatch, counts, cli, "solve")
    path = write_cfg(tmp_path, {"tau_ladder": [0.125, 0.0625, 0.03125]},
                     drop=("tau",))
    assert run_main(capsys, "run", path)[0] == 0
    assert counts == {"_solve_grids": 1}
    assert rungs == [0.125, 0.0625, 0.03125]


def test_ladder_run_certifies_each_rung_once(tmp_path, capsys, monkeypatch):
    # the run's checks and report reuse the finest rung's study pass
    counts = {}
    _count_calls(monkeypatch, counts, diagnostics, "_per_step_terms")
    path = write_cfg(tmp_path, {"tau_ladder": [0.125, 0.0625, 0.03125],
                                "diagnostics": {"windows": [[0.0, 0.25]]}},
                     drop=("tau",))
    assert run_main(capsys, "run", path)[0] == 0
    assert counts == {"_per_step_terms": 3}


def test_check_recomputes_the_solved_witnesses_bitwise(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "model": {"name": "AllenCahn1D", "params": {"N": 4, "p": 1.5}},
        "u0": [0.05, 0.1, 0.1, 0.05], "T": 2.0 ** -4, "tau": 2.0 ** -6})
    assert run_main(capsys, "run", path)[0] == 0
    plan = cli.load_plan(path)
    traj = scheme.solve(plan.spec.energy, plan.psi, plan.u0,
                        scheme.TimeGrid(T=plan.T, tau=plan.ladder[-1]),
                        plan.opts)
    loaded, _ = cli.read_trajectory_csv(
        str(tmp_path / "out" / "trajectory.csv"), plan, plan.ladder[-1])
    assert loaded.witnesses.tobytes() == traj.witnesses.tobytes()
    assert loaded.energies.tobytes() == traj.energies.tobytes()


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


def test_allen_cahn_report_equals_diagnostics_of_loaded_trajectory(
        tmp_path, capsys):
    # solve carries the prox-grad step size from step to step, but the
    # interpolant solves of step_inequality start at L = 1 under run and
    # check alike, so the defects recomputed from trajectory.csv are the
    # reported ones, bit for bit
    # (with these params, an interpolant solve started at the step's
    # carried L moves a defect in its last bit)
    N = 8
    path = write_cfg(tmp_path, {
        "model": {"name": "AllenCahn1D",
                  "params": {"N": N, "p": 1.5, "q": 4.0, "rho": 0.0}},
        "u0": [0.1 * math.sin(math.pi * (i + 0.5) / N) for i in range(N)],
        "T": 0.125, "tau": 2.0 ** -5,
        "diagnostics": {"step_inequality": True}})
    assert run_main(capsys, "run", path)[0] == 0
    payload = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    plan = cli.load_plan(path)
    loaded, _ = cli.read_trajectory_csv(
        str(tmp_path / "out" / "trajectory.csv"), plan, plan.ladder[-1])
    ineq = diagnostics.step_inequality(loaded)
    assert [row["n"] for row in payload["per_step"]] == [1, 2, 3, 4]
    for row in payload["per_step"]:
        assert row["step_inequality_defect"] == ineq.max_defects[row["n"]]
