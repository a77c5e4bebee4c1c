"""Release gate: nine numbered contract checks, each printing one
"criterion N (...): PASS|FAIL" line on the live terminal.

Tolerances here are frozen. A red line in this file means the package
broke a published guarantee, not that a tolerance needs adjusting.
"""

import json
import time

import numpy as np
import pytest

from dnevolve import cli
from dnevolve.diagnostics import (chain_rule_constant, chain_rule_defects,
                                  energy_identity_defect, resolve_eps_quad,
                                  step_inequality)
from dnevolve.energy import (clarke_subdifferential_1d, energy_value,
                             generalized_time_derivative,
                             marginal_subdifferential)
from dnevolve.models import MODEL_NAMES, build
from dnevolve.potentials import (OneHomPlusQuad, PNorm, Quadratic, Scaled,
                                 StateWeighted, TwoSlope, WeightedSum,
                                 check_admissible, fenchel_young_gap)
from dnevolve.scheme import SolveOptions, TimeGrid, solve

# per-model interval-inequality budgets, sized once against the measured
# defect profile at tau = 2^-7 (AllenCahn pays for its first-step transient)
EPS_QUAD = {
    "QuadraticBenchmark": 1e-5,
    "AbsoluteMarginal": None,      # exact model, the default budget holds
    "PhaseField1D": 5e-6,
    "AllenCahn1D": 1e-3,
    "StateWeightedToy": 1e-5,
}


def canonical_u0(name):
    if name == "AllenCahn1D":
        n = 32
        x = (np.arange(n) + 0.5) / n
        return 0.1 * np.sin(np.pi * x)
    return [0.55] if name == "PhaseField1D" else [0.0]


def run_model(name, tau, T=1.0, params=None, u0=None):
    spec = build(name, dict(params or {}))
    if u0 is None:
        u0 = canonical_u0(name)
    opts = SolveOptions(seed=0, eps_quad=EPS_QUAD.get(name))
    return solve(spec.energy, spec.dissipation, u0, TimeGrid(T, tau), opts)


def report(capsys, num, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} ({label}): {verdict}")
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------


def test_criterion_1_convex_analysis(capsys):
    t0 = time.perf_counter()
    failures = []
    catalogue = [
        Quadratic(1.0),
        Quadratic(2.5),
        PNorm(1.0, 2.0),
        PNorm(0.5, 3.0),
        PNorm(2.0, 1.5),
        OneHomPlusQuad(1.0, 1.0),
        OneHomPlusQuad(0.3, 0.5),
        WeightedSum((PNorm(1.0, 1.0), PNorm(1.0, 2.0))),
        WeightedSum((PNorm(0.5, 1.0), Quadratic(2.0))),
        Scaled(Quadratic(1.0), 1.7),
        StateWeighted(Quadratic(1.0), lambda u: 1.0 + 0.1 * float(u[0]) ** 2,
                      (1.0, 3.5)),
    ]

    rng = np.random.default_rng(0)
    per = -(-10_000 // len(catalogue))
    worst_gap = 0.0
    for psi in catalogue:
        p = psi.at_state(np.array([0.7]))
        for v, x in rng.uniform(-5.0, 5.0, size=(per, 2)):
            worst_gap = min(worst_gap,
                            fenchel_young_gap(p, [v], [x]))
    if worst_gap < -1e-12:
        failures.append(f"Fenchel-Young gap dipped to {worst_gap:.3e}")

    # independent conjugate oracle: zooming argmax grid over the rate line
    def grid_conjugate(p, x):
        lo, hi = -30.0, 30.0
        for _ in range(3):
            vs = np.linspace(lo, hi, 2001)
            vals = x * vs - np.asarray(p.scalar(vs), dtype=float)
            k = int(np.argmax(vals))
            lo, hi = vs[max(k - 1, 0)], vs[min(k + 1, 2000)]
        return float(vals[k])

    for p in (OneHomPlusQuad(1.0, 1.0), OneHomPlusQuad(0.3, 0.5)):
        for x in np.linspace(-10.0, 10.0, 401):
            closed = p.closed_conjugate(np.array([x]))
            err = abs(closed - grid_conjugate(p, x))
            if err > 1e-8:
                failures.append(f"{p!r} conjugate off by {err:.3e} "
                                f"at xi={x:.4f}")
                break

    for psi in catalogue:
        rep = check_admissible(psi.at_state(np.array([0.7])))
        if not rep.passed:
            bad = [r.name for r in rep.rows if not r.passed]
            failures.append(f"{psi!r} flagged inadmissible: {bad}")
    counter = check_admissible(TwoSlope())
    if counter.passed:
        failures.append("max(|v|, 2|v|-1) counterexample passed the audit")
    elif counter.row("equal_conjugates").passed:
        failures.append("counterexample failed, but not on equal_conjugates")

    wall = time.perf_counter() - t0
    if wall > 10.0:
        failures.append(f"runtime {wall:.1f}s exceeds 10s")
    report(capsys, 1, "convex analysis suite", failures)


def test_criterion_2_scheme_contracts(capsys):
    t0 = time.perf_counter()
    failures = []
    for name in MODEL_NAMES:
        traj = run_model(name, tau=2.0 ** -7)
        w = float(np.max(traj.witnesses))
        g = float(np.max(traj.gaps))
        res = step_inequality(traj)
        budget = resolve_eps_quad(traj)
        if w > 1e-12:
            failures.append(f"{name}: minimality witness {w:.3e}")
        if g > 1e-8:
            failures.append(f"{name}: Fenchel-Young gap {g:.3e}")
        if res.worst > budget:
            failures.append(f"{name}: interval defect {res.worst:.3e} "
                            f"over budget {budget:.1e}")
    wall = time.perf_counter() - t0
    if wall > 60.0:
        failures.append(f"runtime {wall:.1f}s exceeds 60s")
    report(capsys, 2, "scheme contracts, all models", failures)


def test_criterion_3_quadratic_convergence(capsys):
    failures = []
    errors = []
    for k in range(5, 10):
        tau = 2.0 ** -k
        traj = run_model("QuadraticBenchmark", tau=tau)
        nodes = traj.grid.nodes()
        exact = 1.0 - np.exp(-nodes)   # hand-derived, u0 = 0, a = 1
        errors.append(float(np.max(np.abs(traj.U[:, 0] - exact))))
    if errors[2] > 5e-3:
        failures.append(f"sup error {errors[2]:.3e} at tau=2^-7")
    for e_coarse, e_fine in zip(errors, errors[1:]):
        ratio = e_coarse / e_fine
        if not 1.5 <= ratio <= 2.5:
            failures.append(f"halving ratio {ratio:.3f} outside [1.5, 2.5] "
                            f"(errors {errors})")
            break
    report(capsys, 3, "first-order convergence", failures)


def test_criterion_4_traveling_kink(capsys):
    failures = []
    alpha, beta, tau = 0.5, 0.25, 2.0 ** -5
    traj = run_model("AbsoluteMarginal", tau=tau)
    nodes = traj.grid.nodes()
    if float(np.max(np.abs(traj.U[:, 0] + alpha * nodes))) > 1e-10:
        failures.append("U_n deviates from -alpha t_n")

    # dense-grid oracle for the first steps: the per-step objective over
    # u in [u_prev - 4 alpha tau, u_prev + 4 alpha tau] at step 1e-4 tau
    model = traj.model
    for n in (1, 2, 3):
        u_prev = traj.U[n - 1, 0]
        t_n = nodes[n]
        us = np.arange(u_prev - 4 * alpha * tau, u_prev + 4 * alpha * tau,
                       1e-4 * tau)
        obj = (0.5 * np.square(us - u_prev) / tau
               + model.value_batch_1d(t_n, us))
        best = us[int(np.argmin(obj))]
        if abs(best - traj.U[n, 0]) > 2e-4 * tau + 1e-12:
            failures.append(f"step {n}: dense oracle argmin {best!r} vs "
                            f"scheme {traj.U[n, 0]!r}")
    # branch comparison behind the oracle: stepping down the left branch
    # beats riding the kink
    if not alpha * tau * (-alpha / 2 - beta) < alpha * tau * (beta - alpha / 2):
        failures.append("hand branch comparison inverted")

    defect = energy_identity_defect(traj)
    if abs(defect) > 4 * alpha * tau:
        failures.append(f"identity defect {defect:.3e} over 4*alpha*tau")

    t_probe = 0.5
    below = generalized_time_derivative(model, t_probe, [-0.2], [alpha])
    at_kink = generalized_time_derivative(model, t_probe, [beta * t_probe],
                                          [-alpha])
    if below != -alpha * beta:
        failures.append(f"P below kink {below!r}, expected {-alpha * beta!r}")
    if at_kink != alpha * beta:
        failures.append(f"P at kink {at_kink!r}, expected {alpha * beta!r}")
    report(capsys, 4, "traveling-kink closed form", failures)


def test_criterion_5_frozen_time_monotonicity(capsys):
    t0 = time.perf_counter()
    failures = []
    traj = run_model("AllenCahn1D", tau=2.0 ** -6,
                     params={"N": 32, "load_amp": 0.0})
    rises = np.diff(traj.energies)
    if float(np.max(rises)) > 1e-10:
        failures.append(f"energy rose by {float(np.max(rises)):.3e}")
    wall = time.perf_counter() - t0
    if wall > 30.0:
        failures.append(f"runtime {wall:.1f}s exceeds 30s")
    report(capsys, 5, "frozen-time energy decay", failures)


def test_criterion_6_identity_defect_trend(capsys):
    failures = []
    for name in ("PhaseField1D", "AllenCahn1D"):
        defects = []
        for k in range(5, 9):
            traj = run_model(name, tau=2.0 ** -k)
            defects.append(abs(energy_identity_defect(traj)))
        for d_coarse, d_fine in zip(defects, defects[1:]):
            if d_fine > 1.2 * d_coarse:
                failures.append(f"{name}: defect ladder not shrinking "
                                f"({defects})")
                break
    report(capsys, 6, "identity defect shrinks with tau", failures)


def test_criterion_7_chain_rule_audit(capsys):
    failures = []
    tau = 2.0 ** -8
    for name in MODEL_NAMES:
        traj = run_model(name, tau=tau)
        defects = chain_rule_defects(traj)
        floor = -chain_rule_constant(traj) * tau
        frac = float(np.mean(defects >= floor))
        if frac < 0.99:
            failures.append(f"{name}: only {frac:.1%} of steps above "
                            f"the -c tau floor")
    report(capsys, 7, "chain-rule inequality audit", failures)


def test_criterion_8_subdifferential_tables(capsys):
    failures = []
    spec = build("AbsoluteMarginal")
    model = spec.energy
    alpha, beta = 0.5, 0.25
    offsets = np.linspace(0.01, 1.2, 50)
    probes = 0
    for i in range(10):
        t = i / 16.0   # binary fraction, so the kink beta*t is exact
        kink = beta * t
        cases = [(kink, (-alpha, alpha), (-alpha, alpha))]
        cases += [(kink + d, (-alpha,), (-alpha, -alpha)) for d in offsets]
        cases += [(kink - d, (alpha,), (alpha, alpha)) for d in offsets]
        for u, table, clarke in cases:
            probes += 1
            got = tuple(sorted(float(x[0])
                               for x in marginal_subdifferential(model, t, [u])))
            if got != table:
                failures.append(f"marginal table at (t={t}, u={u}): "
                                f"{got} != {table}")
                break
            lo, hi = clarke_subdifferential_1d(model, t, [u])
            if abs(lo - clarke[0]) > 1e-6 or abs(hi - clarke[1]) > 1e-6:
                failures.append(f"Clarke interval at (t={t}, u={u}): "
                                f"({lo}, {hi}) != {clarke}")
                break
    if probes < 1000:
        failures.append(f"only {probes} probes, need >= 1000")
    report(capsys, 8, "subdifferential tables", failures)


def test_criterion_9_determinism(capsys, tmp_path):
    failures = []
    configs = {
        "quad": {"model": {"name": "QuadraticBenchmark", "params": {}},
                 "u0": 0.0, "T": 0.5, "tau": 0.125, "seed": 0},
        "ac": {"model": {"name": "AllenCahn1D", "params": {"N": 8}},
               "u0": [0.1] * 8, "T": 0.5, "tau": 0.125, "seed": 7},
    }
    for tag, cfg in configs.items():
        cfg["output_dir"] = str(tmp_path / tag)
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        csv = tmp_path / tag / "trajectory.csv"
        if cli.main(["run", str(path)]) != 0:
            failures.append(f"{tag}: run failed")
            continue
        first = csv.read_bytes()
        if cli.main(["run", str(path)]) != 0:
            failures.append(f"{tag}: rerun failed")
            continue
        if csv.read_bytes() != first:
            failures.append(f"{tag}: reruns differ")
    report(capsys, 9, "byte-identical reruns", failures)
