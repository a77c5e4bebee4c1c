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

import dataclasses
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics, models
from .energy import energy_value
from .errors import (ConditioningError, ConfigError, DnevolveError,
                     DomainError, RangeError, SolveAbortedError)
from .models import finite_number, reject_unknown
from .potentials import as_state, frozen_query
from .scheme import (WITNESS_TOL, DiscreteTrajectory, SolveOptions, TimeGrid,
                     ladder_fault, minimality_witness, solve)

GAP_TOL = 1e-8
STORED_TOL = 1e-12   # relative tolerance on stored t_n, gap_n, energy_n cells
CHAIN_FRACTION = 0.99
IDENTITY_SLACK = 1e-8
MAX_STEPS = 2 ** 20  # longest time grid a config may ask for

_CHECK_DEFAULTS = {"fenchel_young": True, "minimality": True,
                   "chain_rule": True, "energy_identity": True,
                   "step_inequality": False}
_CHECK_KEYS = tuple(_CHECK_DEFAULTS)


# ---------------------------------------------------------------------------
# config validation, every error carrying its field path


def _want(cfg: Dict, field: str, path: str):
    if field not in cfg:
        raise ConfigError(path, "missing required field")
    return cfg[field]


def _check_steps(T: float, tau: float, path: str):
    # T / tau > MAX_STEPS iff the grid's ceil(T / tau) steps exceed it; the
    # quotient may overflow to inf, which ceil could not take
    if T / tau > MAX_STEPS:
        raise ConfigError(path, f"T / tau = {T / tau:.6g} exceeds the "
                                f"{MAX_STEPS} steps a grid may have")


def _validate_diag(d) -> Dict:
    out = dict(_CHECK_DEFAULTS)
    out["windows"] = []
    out["eps_quad"] = None
    if d is None:
        return out
    if not isinstance(d, dict):
        raise ConfigError("diagnostics", "expected an object")
    reject_unknown(d, _CHECK_KEYS + ("windows", "eps_quad"), "diagnostics")
    for key in _CHECK_KEYS:
        if key in d:
            if not isinstance(d[key], bool):
                raise ConfigError(f"diagnostics.{key}", "expected a boolean")
            out[key] = d[key]
    if "eps_quad" in d:
        eq = finite_number(d["eps_quad"], "diagnostics.eps_quad")
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
            s = finite_number(w[0], p + "[0]")
            t = finite_number(w[1], p + "[1]")
            if not 0.0 <= s <= t:
                raise ConfigError(p, "requires 0 <= s <= t")
            out["windows"].append((s, t))
    return out


class RunPlan:
    """A validated config, resolved to model/spec objects."""

    def __init__(self, cfg: Dict):
        if not isinstance(cfg, dict):
            raise ConfigError("", "top-level config must be an object")
        reject_unknown(cfg, ("model", "dissipation", "u0", "T", "tau",
                             "tau_ladder", "subdiff_mode", "diagnostics",
                             "output_dir", "seed"), "")
        mdl = _want(cfg, "model", "model")
        if not isinstance(mdl, dict):
            raise ConfigError("model", "expected an object")
        reject_unknown(mdl, ("name", "params"), "model")
        name = _want(mdl, "name", "model.name")
        _, allowed, _ = models.lookup(name)
        params = mdl.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("model.params", "expected an object")
        params = dict(params)

        mode = cfg.get("subdiff_mode")
        if mode is not None and mode not in allowed:
            # every mode some model admits, last-declared first
            known = list(dict.fromkeys(
                m for n in models.MODEL_NAMES for m in models.lookup(n)[1]))[::-1]
            if mode not in known:
                raise ConfigError("subdiff_mode", f"must be "
                                  f"{', '.join(known[:-1])} or {known[-1]}")
            raise ConfigError("subdiff_mode",
                              f"{name} supports only {list(allowed)}")
        # a model with a choice of modes takes the chosen one as subdiff_kind
        if len(allowed) > 1 and mode is not None:
            prior = params.setdefault("subdiff_kind", mode)
            if prior != mode:
                raise ConfigError("subdiff_mode",
                                  f"conflicts with model.params.subdiff_kind="
                                  f"{prior}")

        try:
            self.spec = models.build(name, params)
        except RangeError as err:  # a constraint between parameters
            raise ConfigError("model.params", str(err)) from err

        dis = cfg.get("dissipation")
        self.psi = (models.build_dissipation(dis) if dis is not None
                    else self.spec.dissipation)

        u0 = _want(cfg, "u0", "u0")
        if isinstance(u0, list):
            u0 = [finite_number(x, f"u0[{i}]") for i, x in enumerate(u0)]
        else:
            u0 = [finite_number(u0, "u0")] * self.spec.dim
        try:
            self.u0 = as_state(u0, self.spec.dim)
        except DnevolveError as err:
            raise ConfigError("u0", str(err)) from err
        box = self.spec.energy.domain_box
        if box is not None and (np.any(self.u0 < box[0])
                                or np.any(self.u0 > box[1])):
            raise ConfigError("u0", "outside the model domain box")

        self.T = finite_number(_want(cfg, "T", "T"), "T")
        if not self.T > 0:
            raise ConfigError("T", "must be > 0")

        has_tau, has_ladder = "tau" in cfg, "tau_ladder" in cfg
        if has_tau == has_ladder:
            raise ConfigError("tau", "exactly one of tau, tau_ladder required")
        if has_tau:
            paths = ["tau"]
            vals = [finite_number(cfg["tau"], "tau")]
        else:
            lad = cfg["tau_ladder"]
            if not (isinstance(lad, list) and lad):
                raise ConfigError("tau_ladder", "expected a nonempty list")
            paths = [f"tau_ladder[{i}]" for i in range(len(lad))]
            vals = [finite_number(x, path) for x, path in zip(lad, paths)]
        # the scheme's step rule first, then the CLI's cap on grid length
        fault = ladder_fault(self.spec.energy, self.T, vals)
        if fault is not None:
            raise ConfigError(paths[fault[0]], fault[1])
        for x, path in zip(vals, paths):
            _check_steps(self.T, x, path)
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
    except (ValueError, RecursionError) as err:
        # malformed JSON, bytes that are not UTF-8, an integer literal
        # beyond int's digit limit, or nesting beyond the recursion limit
        raise ConfigError("", f"invalid JSON: {err}") from err
    return RunPlan(cfg)


# ---------------------------------------------------------------------------
# outputs


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _csv_header(d: int) -> str:
    """The header line of a dim-d trajectory.csv."""
    return ",".join(["n", "t_n"] + [f"U_{i}" for i in range(d)]
                    + [f"xi_{i}" for i in range(d)] + ["gap_n", "energy_n"])


def write_trajectory_csv(path: str, traj: DiscreteTrajectory) -> None:
    lines = [_csv_header(traj.model.dim)]
    # one row of Python floats per node, each cell formatted as _fmt does;
    # "%.17g" prints the integer n as str does
    fmt = "%.17g".__mod__
    for n, U, xi, gap, e in zip(range(traj.N + 1), traj.U.tolist(),
                                traj.xi.tolist(), traj.gaps.tolist(),
                                traj.energies.tolist()):
        lines.append(",".join(map(fmt, [n, traj.grid.t(n), *U, *xi, gap, e])))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _rel_err(stored, want):
    """|stored - want| / (1 + |want|), elementwise; NaN stays NaN. Against
    an infinite want, where that quotient is inf / inf, an equal stored
    value is off by 0 and any other by inf."""
    with np.errstate(invalid="ignore"):
        err = np.abs(stored - want) / (1.0 + np.abs(want))
    return np.where(np.isinf(want) & (stored == stored),
                    np.where(stored == want, 0.0, np.inf), err)


def read_trajectory_csv(path: str, plan: RunPlan, tau: float
                        ) -> Tuple[DiscreteTrajectory, List[Dict]]:
    """Rebuild a trajectory for `check`: states/multipliers from the CSV,
    witnesses and energies recomputed against the configured model.

    The 2N + 1 energies E(0, U_0), E(t_n, U_{n-1}) and E(t_n, U_n) are one
    energy_value row call, in that order, and the N witnesses one
    minimality_witness call per frozen potential.

    Also returns the checks of the stored columns against the grid, the
    config and the recomputation: stored_nodes counts rows whose n or t_n
    disagrees, stored_initial the cells of row 0 that differ from the
    config's u0 (bit for bit) or from the zero xi_0 and gap_0, and
    stored_energy is the worst relative error of the energy_n column.
    """
    model = plan.spec.energy
    d = model.dim
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError("output_dir",
                          f"cannot read trajectory.csv: {err}") from err
    expected = 2 + 2 * d + 2
    widths = sorted({ln.count(",") + 1 for ln in lines})
    if widths != [expected]:
        raise ConfigError("output_dir",
                          f"trajectory.csv has lines of {widths} cells, "
                          f"expected {expected} for dim {d}")
    if lines[0] != _csv_header(d):
        raise ConfigError("output_dir",
                          f"trajectory.csv header is {lines[0]!r}, expected "
                          f"{_csv_header(d)!r}")
    grid = TimeGrid(T=plan.T, tau=tau)
    if len(lines) - 1 != grid.N + 1:
        raise ConfigError("output_dir",
                          f"trajectory.csv has {len(lines) - 1} rows, "
                          f"expected {grid.N + 1} for tau={tau}, T={plan.T}")
    U = np.zeros((grid.N + 1, d))
    xi = np.zeros((grid.N + 1, d))
    nodes = np.zeros(grid.N + 1)
    times = np.zeros(grid.N + 1)
    gaps = np.zeros(grid.N + 1)
    stored = np.zeros(grid.N + 1)
    for k, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        try:
            nodes[k], times[k] = float(parts[0]), float(parts[1])
            U[k] = [float(x) for x in parts[2:2 + d]]
            xi[k] = [float(x) for x in parts[2 + d:2 + 2 * d]]
            gaps[k] = float(parts[2 + 2 * d])
            stored[k] = float(parts[3 + 2 * d])
        except ValueError as err:
            raise ConfigError("output_dir",
                              f"trajectory.csv row {k + 1}: {err}")
    # a non-finite gap_n or energy_n cell fails its stored_* check; states
    # and multipliers must be finite to be checked at all
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(xi))):
        raise ConfigError("output_dir", "trajectory.csv has a non-finite "
                                        "state or multiplier cell")
    psi = plan.psi
    steps = np.array([grid.t(n) for n in range(1, grid.N + 1)])
    try:
        # E(0, U_0), then E(t_n, U_{n-1}) and E(t_n, U_n) of each step n
        E = energy_value(model, np.concatenate([[0.0], steps.repeat(2)]),
                         np.concatenate([U[:1], np.stack(
                             [U[:-1], U[1:]], axis=1).reshape(-1, d)]))
    except DomainError as err:
        raise ConfigError("output_dir",
                          f"stored trajectory leaves the model domain: {err}")
    energies = np.concatenate([E[:1], E[2::2]])
    witnesses = np.zeros(grid.N + 1)
    witnesses[1:] = frozen_query(
        [psi.at_state(u) for u in U[:-1]],
        lambda p, t, u_prev, u, e_prev, e: minimality_witness(
            model, p, t, grid.tau, u_prev, u, e_prev, e)[1],
        steps, U[:-1], U[1:], E[1::2], E[2::2])
    bad_nodes = int(np.count_nonzero(
        (nodes != np.arange(grid.N + 1))
        | ~(_rel_err(times, grid.nodes()) <= STORED_TOL)))
    # U_0 is written with %.17g, which round-trips u0's bits
    bad_initial = int(np.count_nonzero(U[0].view(np.int64)
                                       != plan.u0.view(np.int64))
                      + np.count_nonzero(xi[0]) + (gaps[0] != 0.0))
    energy_err = float(np.max(_rel_err(stored, energies)))
    checks = [
        {"name": "stored_nodes", "passed": bad_nodes == 0,
         "value": float(bad_nodes), "threshold": 0.0},
        {"name": "stored_initial", "passed": bad_initial == 0,
         "value": float(bad_initial), "threshold": 0.0},
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


def _stored_gap_check(traj: DiscreteTrajectory) -> Dict:
    """The stored gap_n column (traj.gaps of a loaded trajectory) against
    the recomputed gaps: worst relative error against STORED_TOL."""
    gap = diagnostics.fenchel_young_profile(traj)
    err = float(np.max(_rel_err(traj.gaps, gap)))
    return {"name": "stored_gap", "passed": err <= STORED_TOL,
            "value": err, "threshold": STORED_TOL}


def run_checks(traj: DiscreteTrajectory, diag: Dict) -> List[Dict]:
    """Every enabled check as {name, passed, value, threshold}. Each
    certificate value is computed only if an enabled check needs it, and
    at most once per trajectory (diagnostics._certified)."""
    out = []
    tau = traj.grid.tau
    horizon = traj.grid.t(traj.N)
    if diag["chain_rule"] or diag["energy_identity"]:
        c_chain = diagnostics._certified(traj, "chain_rule_constant")

    if diag["minimality"]:
        worst = float(np.max(traj.witnesses)) if traj.N else 0.0
        out.append({"name": "minimality", "passed": worst <= WITNESS_TOL,
                    "value": worst, "threshold": WITNESS_TOL})
    if diag["fenchel_young"]:
        worst = float(np.max(diagnostics.fenchel_young_profile(traj)))
        out.append({"name": "fenchel_young", "passed": worst <= GAP_TOL,
                    "value": worst, "threshold": GAP_TOL})
    if diag["chain_rule"]:
        defects = diagnostics.chain_rule_defects(traj)[1:]
        frac = float(np.mean(defects >= -c_chain * tau)) if len(defects) else 1.0
        out.append({"name": "chain_rule", "passed": frac >= CHAIN_FRACTION,
                    "value": frac, "threshold": CHAIN_FRACTION})
    if diag["energy_identity"]:
        # lower gate only: the defect is upper-estimate slack and may be
        # positive; it must not undershoot the chain-rule allowance
        floor = -c_chain * tau * horizon - IDENTITY_SLACK
        defect = diagnostics.energy_identity_defect(traj)
        out.append({"name": "energy_identity", "passed": defect >= floor,
                    "value": defect, "threshold": floor})
        for (s, t) in diag["windows"]:
            wfloor = -c_chain * tau * (t - s) - IDENTITY_SLACK
            wdef = diagnostics.energy_identity_defect(traj, s, t)
            out.append({"name": f"energy_identity[{s},{t}]",
                        "passed": wdef >= wfloor,
                        "value": wdef, "threshold": wfloor})
    if diag["step_inequality"]:
        res = diagnostics._certified(traj, "step_inequality")
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
    """The requested windows whose ends are grid nodes within 1e-9 tau
    (diagnostics._node_index), moved onto those nodes; each other window is
    dropped with one stderr line naming it."""
    grid = traj.grid
    snapped = []
    for (s, t) in plan.diag["windows"]:
        try:
            i, j = diagnostics._window(grid, s, t)
        except RangeError as err:
            print(f"window [{s}, {t}] dropped: {err}", file=sys.stderr)
            continue
        snapped.append((grid.t(i), grid.t(j)))
    return snapped


def _conditioning_failure(err: ConditioningError) -> int:
    """A multiplier that matches no minimizer, where P conditions on it, is
    a failed certification, not a crash: one FAIL line and exit 1."""
    print(f"check conditioning: FAIL ({err})")
    print("failing checks: conditioning", file=sys.stderr)
    return 1


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
        traj = solve(plan.spec.energy, plan.psi, plan.u0, grid, plan.opts)

    write_trajectory_csv(os.path.join(plan.output_dir, "trajectory.csv"),
                         traj)
    snapped = _windows_for_report(plan, traj)
    try:
        checks = run_checks(traj, dict(plan.diag, windows=snapped))
        ineq = (diagnostics._certified(traj, "step_inequality")
                if plan.diag["step_inequality"] else None)
        report = diagnostics.build_report(traj, windows=snapped,
                                          refinement=table, ineq=ineq)
    except ConditioningError as err:
        return _conditioning_failure(err)
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
    cols = [f.name for f in dataclasses.fields(diagnostics.RefinementRow)]
    lines = [",".join(cols)]
    for r in table.rows:
        # _fmt prints the integer N as str does
        lines.append(",".join("" if v is None else v if isinstance(v, str)
                              else _fmt(v) for v in dataclasses.astuple(r)))
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
        checks = (stored
                  + run_checks(traj, dict(plan.diag, windows=snapped))
                  + [_stored_gap_check(traj)])
    except ConditioningError as err:
        return _conditioning_failure(err)
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
    print(models.describe(name))
    return 0


USAGE = ("usage: dnevolve run <config.json> | check <config.json> | "
         "list-models | describe <name>")

# verb -> (handler, number of arguments it takes)
_VERBS = {"run": (cmd_run, 1), "check": (cmd_check, 1),
          "list-models": (cmd_list_models, 0), "describe": (cmd_describe, 1)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch one verb. -h or --help prints USAGE and returns 0; any
    other argv that names no verb with its arguments prints USAGE and the
    reason on stderr and returns 2."""
    args = list(sys.argv[1:] if argv is None else argv)
    if "-h" in args or "--help" in args:
        print(USAGE)
        return 0
    verb = _VERBS.get(args[0]) if args else None
    if verb is None:
        reason = f"unknown verb {args[0]!r}" if args else "no verb given"
    elif len(args) != 1 + verb[1]:
        reason = f"{args[0]} takes {verb[1]} argument(s), got {len(args) - 1}"
    else:
        reason = None
    if reason is not None:
        print(f"{USAGE}\ndnevolve: error: {reason}", file=sys.stderr)
        return 2

    try:
        return verb[0](*args[1:])
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
