"""Config-driven experiment runner.

Verbs: run <config.json>, check <config.json>, list-models, describe <name>.

The config dialect is JSON (frozen; see README):

    {
      "model": {"name": "QuadraticBenchmark", "params": {...}},
      "dissipation": {"kind": "quadratic", "c": 1.0},       # optional
      "u0": 0.0,                      # scalar or list matching model dim
      "T": 1.0,
      "tau": 0.0078125,               # xor "tau_ladder": [...] decreasing
      "subdiff_mode": "analytic",     # optional, model-constrained
      "diagnostics": {"step_inequality": false, "windows": [[0.0, 0.5]],
                      "eps_quad": 1e-6, ...},                # optional
      "output_dir": "runs/quad",
      "seed": 0
    }

Exit codes: 0 all enabled checks pass; 1 check failure (names printed);
2 schema violation (field path printed); 3 solver failure (step printed).
Relative output_dir is resolved under $DNEVOLVE_OUTPUT_ROOT when set.
Reruns of one config produce byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics, models, potentials
from .energy import energy_value
from .errors import (ConditioningError, ConfigError, DnevolveError,
                     DomainError, RangeError, SolveAbortedError)
from .potentials import as_state
from .scheme import (WITNESS_TOL, DiscreteTrajectory, SolveOptions, TimeGrid,
                     solve)

GAP_TOL = 1e-8
STORED_TOL = 1e-12   # relative tolerance on stored t_n, gap_n, energy_n cells
CHAIN_FRACTION = 0.99
IDENTITY_SLACK = 1e-8
MAX_STEPS = 2 ** 20  # longest time grid a config may ask for

_DISSIPATION_KINDS = ("quadratic", "pnorm", "one_hom_plus_quad")
_SUBDIFF_ALLOWED = {
    "QuadraticBenchmark": ("analytic",),
    "StateWeightedToy": ("analytic",),
    "AllenCahn1D": ("analytic",),
    "PhaseField1D": ("marginal",),
    "AbsoluteMarginal": ("marginal", "clarke"),
}
_CHECK_KEYS = ("fenchel_young", "minimality", "chain_rule", "energy_identity",
               "step_inequality")
_CHECK_DEFAULTS = {"fenchel_young": True, "minimality": True,
                   "chain_rule": True, "energy_identity": True,
                   "step_inequality": False}


# ---------------------------------------------------------------------------
# config validation, every error carrying its field path


def _want(cfg: Dict, field: str, path: str, required=True):
    if field not in cfg:
        if required:
            raise ConfigError(path, "missing required field")
        return None
    return cfg[field]


def _num(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(x).__name__}")
    v = models._finite(x)
    if v is None:
        raise ConfigError(path, "must be finite")
    return v


def _check_steps(T: float, tau: float, path: str):
    # T / tau > MAX_STEPS iff the grid's ceil(T / tau) steps exceed it; the
    # quotient may overflow to inf, which ceil could not take
    if T / tau > MAX_STEPS:
        raise ConfigError(path, f"T / tau = {T / tau:.6g} exceeds the "
                                f"{MAX_STEPS} steps a grid may have")


def _reject_unknown(cfg: Dict, allowed: Sequence[str], path: str):
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key,
                              "unknown field")


def _validate_dissipation(d: Dict) -> potentials.DissipationPotential:
    if not isinstance(d, dict):
        raise ConfigError("dissipation", "expected an object")
    kind = _want(d, "kind", "dissipation.kind")
    if kind not in _DISSIPATION_KINDS:
        raise ConfigError("dissipation.kind",
                          f"must be one of {list(_DISSIPATION_KINDS)}")
    if kind == "quadratic":
        _reject_unknown(d, ("kind", "c"), "dissipation")
        c = _num(d.get("c", 1.0), "dissipation.c")
        if not c > 0:
            raise ConfigError("dissipation.c", "must be > 0")
        return potentials.Quadratic(c)
    if kind == "pnorm":
        _reject_unknown(d, ("kind", "c", "p"), "dissipation")
        c = _num(d.get("c", 1.0), "dissipation.c")
        p = _num(d.get("p", 2.0), "dissipation.p")
        if not c > 0:
            raise ConfigError("dissipation.c", "must be > 0")
        # p = 1 alone has no superlinear growth (see potentials.PNorm)
        if not p > 1:
            raise ConfigError("dissipation.p", "must be > 1")
        return potentials.PNorm(c, p)
    _reject_unknown(d, ("kind", "rho", "eps"), "dissipation")
    rho = _num(d.get("rho", 1.0), "dissipation.rho")
    eps = _num(d.get("eps", 1.0), "dissipation.eps")
    if not rho >= 0:
        raise ConfigError("dissipation.rho", "must be >= 0")
    if not eps > 0:
        raise ConfigError("dissipation.eps", "must be > 0")
    return potentials.OneHomPlusQuad(rho, eps)


def _validate_diag(d) -> Dict:
    out = dict(_CHECK_DEFAULTS)
    out["windows"] = []
    out["eps_quad"] = None
    if d is None:
        return out
    if not isinstance(d, dict):
        raise ConfigError("diagnostics", "expected an object")
    _reject_unknown(d, _CHECK_KEYS + ("windows", "eps_quad"), "diagnostics")
    for key in _CHECK_KEYS:
        if key in d:
            if not isinstance(d[key], bool):
                raise ConfigError(f"diagnostics.{key}", "expected a boolean")
            out[key] = d[key]
    if "eps_quad" in d:
        eq = _num(d["eps_quad"], "diagnostics.eps_quad")
        if not eq > 0:
            raise ConfigError("diagnostics.eps_quad", "must be > 0")
        out["eps_quad"] = eq
    if "windows" in d:
        ws = d["windows"]
        if not isinstance(ws, list):
            raise ConfigError("diagnostics.windows", "expected a list")
        for i, w in enumerate(ws):
            p = f"diagnostics.windows[{i}]"
            if not (isinstance(w, list) and len(w) == 2):
                raise ConfigError(p, "expected a [s, t] pair")
            s, t = _num(w[0], p + "[0]"), _num(w[1], p + "[1]")
            if not 0.0 <= s <= t:
                raise ConfigError(p, "requires 0 <= s <= t")
            out["windows"].append((s, t))
    return out


class RunPlan:
    """A validated config, resolved to model/spec objects."""

    def __init__(self, cfg: Dict):
        if not isinstance(cfg, dict):
            raise ConfigError("", "top-level config must be an object")
        _reject_unknown(cfg, ("model", "dissipation", "u0", "T", "tau",
                              "tau_ladder", "subdiff_mode", "diagnostics",
                              "output_dir", "seed"), "")
        mdl = _want(cfg, "model", "model")
        if not isinstance(mdl, dict):
            raise ConfigError("model", "expected an object")
        _reject_unknown(mdl, ("name", "params"), "model")
        name = _want(mdl, "name", "model.name")
        if name not in models.MODEL_NAMES:
            raise ConfigError("model.name",
                              f"unknown model; known: {list(models.MODEL_NAMES)}")
        params = mdl.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("model.params", "expected an object")
        params = dict(params)

        mode = cfg.get("subdiff_mode")
        allowed = _SUBDIFF_ALLOWED[name]
        if mode is not None:
            if mode not in ("clarke", "marginal", "analytic"):
                raise ConfigError("subdiff_mode",
                                  "must be clarke, marginal or analytic")
            if mode not in allowed:
                raise ConfigError(
                    "subdiff_mode",
                    f"{name} supports only {list(allowed)}")
        self.subdiff_mode = mode or allowed[0]
        if name == "AbsoluteMarginal":
            prior = params.get("subdiff_kind")
            if prior is not None and mode is not None and prior != mode:
                raise ConfigError("subdiff_mode",
                                  f"conflicts with model.params.subdiff_kind="
                                  f"{prior}")
            params["subdiff_kind"] = prior or self.subdiff_mode

        try:
            self.spec = models.build(name, params)
        except ConfigError as err:
            field = err.field or "model.params"
            if field.startswith("params"):
                field = "model." + field
            raise ConfigError(field, err.message) from err
        except RangeError as err:
            raise ConfigError("model.params", str(err)) from err

        dis = cfg.get("dissipation")
        self.psi = (_validate_dissipation(dis) if dis is not None
                    else self.spec.dissipation)

        u0 = _want(cfg, "u0", "u0")
        if isinstance(u0, list):
            u0 = [_num(x, f"u0[{i}]") for i, x in enumerate(u0)]
        else:
            u0 = [_num(u0, "u0")] * self.spec.dim
        try:
            self.u0 = as_state(u0, self.spec.dim)
        except DnevolveError as err:
            raise ConfigError("u0", str(err)) from err
        box = self.spec.energy.domain_box
        if box is not None and (np.any(self.u0 < box[0])
                                or np.any(self.u0 > box[1])):
            raise ConfigError("u0", "outside the model domain box")

        self.T = _num(_want(cfg, "T", "T"), "T")
        if not self.T > 0:
            raise ConfigError("T", "must be > 0")

        tau_o = self.spec.energy.constants.tau_o
        has_tau, has_ladder = "tau" in cfg, "tau_ladder" in cfg
        if has_tau == has_ladder:
            raise ConfigError("tau", "exactly one of tau, tau_ladder required")
        if has_tau:
            tau = _num(cfg["tau"], "tau")
            if not 0 < tau <= self.T:
                raise ConfigError("tau", f"must satisfy 0 < tau <= T={self.T}")
            if not tau < tau_o:
                raise ConfigError("tau", f"must be below tau_o={tau_o} "
                                         f"of {name}")
            _check_steps(self.T, tau, "tau")
            self.ladder = [tau]
        else:
            lad = cfg["tau_ladder"]
            if not (isinstance(lad, list) and lad):
                raise ConfigError("tau_ladder", "expected a nonempty list")
            vals = [_num(x, f"tau_ladder[{i}]") for i, x in enumerate(lad)]
            for i, x in enumerate(vals):
                if not 0 < x <= self.T:
                    raise ConfigError(f"tau_ladder[{i}]",
                                      f"must satisfy 0 < tau <= T={self.T}")
                _check_steps(self.T, x, f"tau_ladder[{i}]")
            if not vals[0] < tau_o:
                raise ConfigError("tau_ladder[0]",
                                  f"must be below tau_o={tau_o} of {name}")
            for i in range(1, len(vals)):
                if not vals[i] < vals[i - 1]:
                    raise ConfigError(f"tau_ladder[{i}]",
                                      "ladder must be strictly decreasing")
            self.ladder = vals

        self.diag = _validate_diag(cfg.get("diagnostics"))

        out = _want(cfg, "output_dir", "output_dir")
        if not isinstance(out, str) or not out:
            raise ConfigError("output_dir", "expected a nonempty string")
        root = os.environ.get("DNEVOLVE_OUTPUT_ROOT")
        if root and not os.path.isabs(out):
            out = os.path.join(root, out)
        self.output_dir = out

        seed = cfg.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed", "expected a nonnegative integer")
        self.opts = SolveOptions(seed=seed, eps_quad=self.diag["eps_quad"])

    @property
    def is_ladder(self) -> bool:
        return len(self.ladder) > 1


def load_plan(config_path: str) -> RunPlan:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError("", f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("", f"invalid JSON: {err}") from err
    return RunPlan(cfg)


# ---------------------------------------------------------------------------
# outputs


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def write_trajectory_csv(path: str, traj: DiscreteTrajectory) -> None:
    d = traj.model.dim
    cols = (["n", "t_n"] + [f"U_{i}" for i in range(d)]
            + [f"xi_{i}" for i in range(d)] + ["gap_n", "energy_n"])
    lines = [",".join(cols)]
    for n in range(traj.N + 1):
        row = ([str(n), _fmt(traj.grid.t(n))]
               + [_fmt(x) for x in traj.U[n]]
               + [_fmt(x) for x in traj.xi[n]]
               + [_fmt(traj.gaps[n]), _fmt(traj.energies[n])])
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _rel_err(stored, want):
    """|stored - want| / (1 + |want|), elementwise; NaN stays NaN."""
    return np.abs(stored - want) / (1.0 + np.abs(want))


def read_trajectory_csv(path: str, plan: RunPlan, tau: float
                        ) -> Tuple[DiscreteTrajectory, List[Dict]]:
    """Rebuild a trajectory for `check`: states/multipliers from the CSV,
    witnesses and energies recomputed against the configured model.

    Also returns the checks of the stored columns against the grid and the
    recomputation: stored_nodes counts rows whose n or t_n disagrees,
    stored_energy is the worst relative error of the energy_n column.
    """
    model = plan.spec.energy
    d = model.dim
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    expected = 2 + 2 * d + 2
    if len(header) != expected:
        raise ConfigError("output_dir",
                          f"trajectory.csv has {len(header)} columns, "
                          f"expected {expected} for dim {d}")
    grid = TimeGrid(T=plan.T, tau=tau)
    if len(lines) - 1 != grid.N + 1:
        raise ConfigError("output_dir",
                          f"trajectory.csv has {len(lines) - 1} rows, "
                          f"expected {grid.N + 1} for tau={tau}, T={plan.T}")
    U = np.zeros((grid.N + 1, d))
    xi = np.zeros((grid.N + 1, d))
    gaps = np.zeros(grid.N + 1)
    stored = np.zeros(grid.N + 1)
    bad_nodes = 0
    for k, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        try:
            n_cell, t_cell = float(parts[0]), float(parts[1])
            U[k] = [float(x) for x in parts[2:2 + d]]
            xi[k] = [float(x) for x in parts[2 + d:2 + 2 * d]]
            gaps[k] = float(parts[2 + 2 * d])
            stored[k] = float(parts[3 + 2 * d])
        except ValueError as err:
            raise ConfigError("output_dir",
                              f"trajectory.csv row {k + 1} is not numeric: "
                              f"{err}")
        if n_cell != k or not _rel_err(t_cell, grid.t(k)) <= STORED_TOL:
            bad_nodes += 1
    energies = np.zeros(grid.N + 1)
    witnesses = np.zeros(grid.N + 1)
    psi = plan.psi
    try:
        energies[0] = energy_value(model, 0.0, U[0])
        for n in range(1, grid.N + 1):
            p = psi.at_state(U[n - 1])
            v = (U[n] - U[n - 1]) / grid.tau
            energies[n] = energy_value(model, grid.t(n), U[n])
            obj = grid.tau * p.value(v) + energies[n]
            witnesses[n] = obj - energy_value(model, grid.t(n), U[n - 1])
    except DomainError as err:
        raise ConfigError("output_dir",
                          f"stored trajectory leaves the model domain: {err}")
    energy_err = float(np.max(_rel_err(stored, energies)))
    checks = [
        {"name": "stored_nodes", "passed": bad_nodes == 0,
         "value": float(bad_nodes), "threshold": 0.0},
        {"name": "stored_energy", "passed": energy_err <= STORED_TOL,
         "value": energy_err, "threshold": STORED_TOL},
    ]
    traj = DiscreteTrajectory(
        model=model, psi=psi, grid=grid, opts=plan.opts, U=U, xi=xi,
        gaps=gaps, energies=energies, witnesses=witnesses,
        inner_status=[{"method": "loaded"}] * (grid.N + 1))
    return traj, checks


# ---------------------------------------------------------------------------
# checks


def _stored_gap_check(traj: DiscreteTrajectory,
                     terms: diagnostics.StepTerms) -> Dict:
    """The stored gap_n column (traj.gaps of a loaded trajectory) against
    the recomputed gaps: worst relative error against STORED_TOL."""
    err = float(np.max(_rel_err(traj.gaps, terms.gap)))
    return {"name": "stored_gap", "passed": err <= STORED_TOL,
            "value": err, "threshold": STORED_TOL}


def run_checks(traj: DiscreteTrajectory, diag: Dict,
               terms: Optional[diagnostics.StepTerms] = None,
               ineq: Optional[diagnostics.StepInequalityResult] = None,
               c_chain: Optional[float] = None) -> List[Dict]:
    """Every enabled check as {name, passed, value, threshold}.

    `terms`, `ineq` and `c_chain` are the trajectory's certificate pass,
    step_inequality result and chain_rule_constant when the caller already
    has them; otherwise each is computed here once, and only if an enabled
    check needs it.
    """
    out = []
    tau = traj.grid.tau
    horizon = traj.grid.t(traj.N)
    if c_chain is None and (diag["chain_rule"] or diag["energy_identity"]):
        c_chain = diagnostics.chain_rule_constant(traj)
    if terms is None and (diag["fenchel_young"] or diag["chain_rule"]
                          or diag["energy_identity"]):
        terms = diagnostics._per_step_terms(traj)

    if diag["minimality"]:
        worst = float(np.max(traj.witnesses)) if traj.N else 0.0
        out.append({"name": "minimality", "passed": worst <= WITNESS_TOL,
                    "value": worst, "threshold": WITNESS_TOL})
    if diag["fenchel_young"]:
        worst = float(np.max(terms.gap))
        out.append({"name": "fenchel_young", "passed": worst <= GAP_TOL,
                    "value": worst, "threshold": GAP_TOL})
    if diag["chain_rule"]:
        defects = diagnostics.chain_rule_defects(traj, terms)[1:]
        frac = float(np.mean(defects >= -c_chain * tau)) if len(defects) else 1.0
        out.append({"name": "chain_rule", "passed": frac >= CHAIN_FRACTION,
                    "value": frac, "threshold": CHAIN_FRACTION})
    if diag["energy_identity"]:
        # lower gate only: the defect is upper-estimate slack and may be
        # positive; it must not undershoot the chain-rule allowance
        floor = -c_chain * tau * horizon - IDENTITY_SLACK
        defect = diagnostics.energy_identity_defect(traj, terms=terms)
        out.append({"name": "energy_identity", "passed": defect >= floor,
                    "value": defect, "threshold": floor})
        for (s, t) in diag["windows"]:
            wfloor = -c_chain * tau * (t - s) - IDENTITY_SLACK
            wdef = diagnostics.energy_identity_defect(traj, s, t, terms)
            out.append({"name": f"energy_identity[{s},{t}]",
                        "passed": wdef >= wfloor,
                        "value": wdef, "threshold": wfloor})
    if diag["step_inequality"]:
        res = ineq if ineq is not None else diagnostics.step_inequality(traj)
        out.append({"name": "step_inequality",
                    "passed": res.worst <= res.eps_quad,
                    "value": res.worst, "threshold": res.eps_quad})
    return out


def _print_checks(checks: List[Dict]) -> List[str]:
    failing = []
    for c in checks:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"check {c['name']}: {tag} (value={c['value']:.6g}, "
              f"threshold={c['threshold']:.6g})")
        if not c["passed"]:
            failing.append(c["name"])
    return failing


# ---------------------------------------------------------------------------
# verbs


def _windows_for_report(plan: RunPlan, traj: DiscreteTrajectory):
    """Snap requested windows onto nodes; drop those that don't land."""
    snapped = []
    for (s, t) in plan.diag["windows"]:
        tau = traj.grid.tau
        i, j = round(s / tau), round(t / tau)
        if (0 <= i <= j <= traj.N
                and abs(s - i * tau) <= 1e-9 * tau
                and abs(t - j * tau) <= 1e-9 * tau):
            snapped.append((i * tau, j * tau))
    return snapped


def cmd_run(config_path: str) -> int:
    plan = load_plan(config_path)
    try:
        os.makedirs(plan.output_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError("output_dir", f"cannot create: {err}") from err

    table = None
    tau = plan.ladder[-1]
    if plan.is_ladder:
        # the study solves every rung; its finest is the run's trajectory
        table = diagnostics.refinement_study(
            plan.spec.energy, plan.psi, plan.u0, plan.T, plan.ladder,
            plan.opts)
        _write_refinement_csv(
            os.path.join(plan.output_dir, "refinement.csv"), table)
        bad = [r for r in table.rows if r.status != "ok"]
        if bad:
            print(f"solver failure on ladder row tau={bad[0].tau}: "
                  f"{bad[0].status}", file=sys.stderr)
            return 3
        traj = table.finest
    else:
        grid = TimeGrid(T=plan.T, tau=tau)
        try:
            traj = solve(plan.spec.energy, plan.psi, plan.u0, grid, plan.opts)
        except SolveAbortedError as err:
            print(f"solver failure at step {err.step_index}: {err}",
                  file=sys.stderr)
            return 3

    write_trajectory_csv(os.path.join(plan.output_dir, "trajectory.csv"),
                         traj)
    snapped = _windows_for_report(plan, traj)
    # certify once: one certificate pass, at most one step_inequality and
    # one chain-rule constant, shared by the checks and the report
    terms = diagnostics._per_step_terms(traj)
    ineq = (diagnostics.step_inequality(traj)
            if plan.diag["step_inequality"] else None)
    c_chain = diagnostics.chain_rule_constant(traj)
    checks = run_checks(traj, dict(plan.diag, windows=snapped), terms, ineq,
                        c_chain)
    report = diagnostics.build_report(traj, windows=snapped,
                                      refinement=table, terms=terms,
                                      ineq=ineq, c_chain=c_chain)
    payload = report.to_dict()
    payload["checks"] = checks
    payload["model"] = plan.spec.name
    payload["parameters"] = plan.spec.parameters  # carries the energy offset
    payload["tau"] = tau
    payload["seed"] = plan.opts.seed
    with open(os.path.join(plan.output_dir, "diagnostics.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    failing = _print_checks(checks)
    if failing:
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    offset = plan.spec.parameters.get("offset")
    print(f"run complete: {plan.output_dir} (energy offset {offset})")
    return 0


def _write_refinement_csv(path: str, table) -> None:
    cols = ["tau", "N", "status", "energy_identity_defect",
            "dissipation_integral", "conjugate_dissipation_integral",
            "P_integral", "sup_interpolant_distance",
            "dissipation_integral_diff"]
    lines = [",".join(cols)]
    for r in table.rows:
        row = [_fmt(r.tau), str(r.N), r.status]
        for val in (r.energy_identity_defect, r.dissipation_integral,
                    r.conjugate_dissipation_integral, r.P_integral,
                    r.sup_interpolant_distance, r.dissipation_integral_diff):
            row.append("" if val is None else _fmt(val))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_check(config_path: str) -> int:
    plan = load_plan(config_path)
    csv_path = os.path.join(plan.output_dir, "trajectory.csv")
    if not os.path.exists(csv_path):
        raise ConfigError("output_dir", f"no trajectory.csv in "
                                        f"{plan.output_dir}")
    traj, stored = read_trajectory_csv(csv_path, plan, plan.ladder[-1])
    snapped = _windows_for_report(plan, traj)
    try:
        terms = diagnostics._per_step_terms(traj)
        checks = (stored
                  + run_checks(traj, dict(plan.diag, windows=snapped), terms)
                  + [_stored_gap_check(traj, terms)])
    except ConditioningError as err:
        # a stored multiplier matching no minimizer is a failed
        # certification of the loaded data, not a crash
        print(f"check conditioning: FAIL ({err})")
        print("failing checks: conditioning", file=sys.stderr)
        return 1
    failing = _print_checks(checks)
    if failing:
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_list_models() -> int:
    for name in models.MODEL_NAMES:
        print(name)
    return 0


def cmd_describe(name: str) -> int:
    try:
        print(models.describe(name))
    except ConfigError as err:
        print(f"config error at model.name: {err.message}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dnevolve",
        description="Doubly nonlinear evolution solver and certifier")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="solve a config and run its checks")
    p_run.add_argument("config")
    p_chk = sub.add_parser("check",
                           help="re-run checks on an existing trajectory.csv")
    p_chk.add_argument("config")
    sub.add_parser("list-models", help="list the model registry")
    p_desc = sub.add_parser("describe", help="describe one model")
    p_desc.add_argument("name")
    args = parser.parse_args(argv)

    try:
        if args.verb == "run":
            return cmd_run(args.config)
        if args.verb == "check":
            return cmd_check(args.config)
        if args.verb == "list-models":
            return cmd_list_models()
        return cmd_describe(args.name)
    except ConfigError as err:
        field = err.field or "<config>"
        print(f"config error at {field}: {err.message}", file=sys.stderr)
        return 2
    except SolveAbortedError as err:
        print(f"solver failure at step {err.step_index}: {err}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
