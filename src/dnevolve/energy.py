"""Time-dependent energies, their subdifferential notions, and audits.

An EnergyModel owns E(t, u), subgradient candidates subdiff(t, u) and a
generalized time derivative P(t, u, xi); a d = 1 model also gives the
scan solver value_batch_1d and derivative_1d. Marginal models realize E as

    E(t, u) = min_{eta} I(t, u, eta)

over a finite set or a compact interval of internal states eta; their
subdifferential is the set of partial gradients D_u I at the minimizing eta
(the marginal subdifferential), and P is the conditioned supremum of d/dt I
over minimizers compatible with the supplied xi. A Clarke-type interval is
available in dimension 1 for models that declare their kink locations.
subdiff_rows asks many points at once; the marginal layer evaluates their
candidate etas, safety grid and D_u I as (B, k) arrays.

Energies carry an explicit constant offset chosen so the working minimum is
at least 1; the offset is stored and reported, never silently applied.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from ._record import FrozenRecord
from .errors import (ConditioningError, DimensionMismatchError, DomainError,
                     RefinementError, ResolutionError)
from .potentials import (AdmissibilityReport as AssumptionReport,
                         AxiomCheck as AssumptionCheck, _one_sided,
                         as_state)

DELTA_XI = 1e-8       # xi-to-eta matching tolerance; both sides come from
                      # the same analytic D_u I, so agreement is near machine
ETA_CLUSTER = 1e-7    # dedup radius for minimizing eta
XI_DEDUP = 1e-10
ARGMIN_MEMO_SIZE = 1 << 14   # points kept per model by argmin_set


class EnergyConstants(FrozenRecord):
    """C0: positive lower bound of E; C1: time-Lipschitz modulus;
    C2: bound modulus for P; tau_o: maximal admissible step."""

    _fields = ("C0", "C1", "C2", "tau_o")

    def __init__(self, C0: float, C1: float, C2: float, tau_o: float):
        self.C0 = C0
        self.C1 = C1
        self.C2 = C2
        self.tau_o = tau_o


class EnergyModel:
    """Base energy: immutable after construction, all queries pure."""

    name: str = "energy"
    dim: int = 1
    offset: float = 0.0
    constants: EnergyConstants = EnergyConstants(1.0, 1.0, 1.0, 0.5)
    domain_box: Optional[Tuple[np.ndarray, np.ndarray]] = None
    c_chain: Optional[float] = None  # chain-rule defect scale; None = default
    # lambda_E: a lower bound on the Hessian of E(t, .) for every t, so E is
    # lambda_E-convex; None makes no claim. audit_assumptions tests it.
    semiconvexity: Optional[float] = None

    def value(self, t: float, u: np.ndarray) -> float:
        raise NotImplementedError

    def value_batch_1d(self, t: float, us: np.ndarray) -> np.ndarray:
        """E(t, .) on an array of scalar states (d = 1), for the scan."""
        raise NotImplementedError

    def derivative_1d(self, t: float, u: float) -> float:
        """dE/du(t, u) off the kinks (d = 1), for the stationarity polish."""
        return float(self.grad(t, np.array([u]))[0])

    def grad(self, t: float, u: np.ndarray) -> np.ndarray:
        """Gradient of the smooth part in u; smooth models only."""
        raise NotImplementedError

    def at_times(self, t):
        """E frozen at each time t[b] of a row batch: a function of a
        (B, d) array of states that returns the list of the values
        E(t[b], U[b]) and a thunk for the (B, d) gradients, so a caller
        that needs gradients only at some states pays for them only there.
        Each row has the bits of its own value and grad call. By default
        every row is one call; a model whose value and gradient share work
        computes that work once, for all rows at once."""
        def at(U):
            return ([self.value(tb, ub) for tb, ub in zip(t, U)],
                    lambda: np.array([self.grad(tb, ub)
                                      for tb, ub in zip(t, U)]))
        return at

    def subdiff(self, t: float, u: np.ndarray) -> List[np.ndarray]:
        """Finite list of subgradient candidates at (t, u); a smooth model's
        one candidate is its gradient."""
        return [self.grad(t, u)]

    def subdiff_rows(self, t, U) -> List[List[np.ndarray]]:
        """subdiff at each row (t[b], U[b]) of an array of times and a
        (B, d) array of states, in row order."""
        return [self.subdiff(tb, ub) for tb, ub in zip(t, U)]

    def time_deriv_P(self, t: float, u: np.ndarray, xi: np.ndarray) -> float:
        raise NotImplementedError

    def kinks_1d(self, t: float) -> Tuple[float, ...]:
        """u-locations where E(t, .) is not differentiable (d = 1 models)."""
        return ()


class MarginalEnergy(EnergyModel):
    """E(t, u) = min over eta of inner(t, u, eta).

    Subclasses provide inner (broadcasting over an eta array), the analytic
    partials inner_du and inner_dt, and exactly one of eta_values (finite
    tuple) or eta_interval (compact [lo, hi]). An interval model also
    provides eta_candidates(t, u), a finite superset of the minimizers of
    eta -> inner(t, u, eta) inside the interval; its minimum is then exact
    and checked against a fine grid. inner, inner_du and eta_candidates
    also take rows: a (B, 1) column of times, a (B, d) array of states and
    a (B, k) array of etas give (B, k) values, each the bits of the
    one-point call (d = 1). time_deriv_P is the sup of inner_dt
    over the minimizing eta whose D_u I lies within DELTA_XI of xi;
    ConditioningError when none does.
    """

    eta_values: Optional[Tuple[float, ...]] = None
    eta_interval: Optional[Tuple[float, float]] = None

    def eta_candidates(self, t: float, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inner(self, t: float, u: np.ndarray, eta):
        raise NotImplementedError

    def inner_du(self, t: float, u: np.ndarray, eta: float) -> np.ndarray:
        raise NotImplementedError

    def inner_dt(self, t: float, u: np.ndarray, eta: float) -> float:
        raise NotImplementedError

    def value(self, t, u):
        _, vals = _marginal_candidates(self, t, u)
        return float(np.min(vals))

    def subdiff(self, t, u):
        return marginal_subdifferential(self, t, u)

    def subdiff_rows(self, t, U):
        return _marginal_subdiff_rows(self, t, U)

    @cached_property
    def eta_grid(self) -> np.ndarray:
        """The 1025-point safety grid of eta_interval, built once."""
        lo, hi = self.eta_interval
        return np.linspace(lo, hi, 1025)

    def time_deriv_P(self, t, u, xi):
        etas = argmin_set(self, t, u)
        dus = [np.asarray(self.inner_du(t, u, e), dtype=float).reshape(self.dim)
               for e in etas]
        matched = [e for e, du in zip(etas, dus)
                   if np.linalg.norm(xi - du) <= DELTA_XI]
        if not matched:
            raise ConditioningError(
                f"xi = {np.round(xi, 8).tolist()} matches no minimizer of "
                f"{self.name} at (t={t}); candidates "
                f"{[np.round(du, 8).tolist() for du in dus]}")
        return max(float(self.inner_dt(t, u, e)) for e in matched)


def default_delta_M(min_inner: float) -> float:
    return 1e-9 * (1.0 + abs(min_inner))


def _check_domain(model: EnergyModel, u: np.ndarray) -> None:
    if model.domain_box is None:
        return
    lo, hi = model.domain_box
    if (u < lo).any() or (u > hi).any():
        raise DomainError(
            f"state outside declared domain box of {model.name}: "
            f"u = {np.round(u, 6).tolist()}")


def _marginal_candidates(model: MarginalEnergy, t, u: np.ndarray):
    """Candidate minimizers of eta -> inner(t, u, eta) and their values.

    Returns (etas, vals) as float arrays: of shape (k,) for one point, and
    (B, k) for rows, t a (B, 1) column of times and u a (B, d) array of
    states. Finite models are evaluated on eta_values, interval models on
    their eta_candidates. The model's 1025-point eta_grid checks the
    latter: a grid value beating the candidate minimum by more than the
    argmin slack means the candidates missed a minimizer.
    """
    if model.eta_values is not None:
        etas = np.asarray(model.eta_values, dtype=float)
        vals = np.asarray(model.inner(t, u, etas), dtype=float)
        return np.broadcast_to(etas, vals.shape), vals

    fine_min = np.min(model.inner(t, u, model.eta_grid), axis=-1)
    cand_x = np.asarray(model.eta_candidates(t, u), dtype=float)
    cand_f = np.asarray(model.inner(t, u, cand_x), dtype=float)
    best = np.min(cand_f, axis=-1)
    missed = np.flatnonzero(fine_min < best - default_delta_M(best))
    if missed.size:
        b = missed[0]
        raise RefinementError(
            f"interval minimization over eta failed to certify the "
            f"minimum for {model.name} at t={float(np.ravel(t)[b])}: grid "
            f"value {float(np.ravel(fine_min)[b])} beats candidate value "
            f"{float(np.ravel(best)[b])}")
    return cand_x, cand_f


def _cluster_scalars(xs: np.ndarray, fs: np.ndarray, tol: float) -> List[float]:
    """One representative per cluster of xs (radius tol): lowest fs wins,
    ties broken by the smaller x. Returned sorted ascending."""
    order = np.argsort(xs, kind="stable")
    reps: List[int] = []
    group = [int(order[0])]
    for j in order[1:]:
        j = int(j)
        if xs[j] - xs[group[-1]] <= tol:
            group.append(j)
        else:
            reps.append(min(group, key=lambda k: (fs[k], xs[k])))
            group = [j]
    reps.append(min(group, key=lambda k: (fs[k], xs[k])))
    return sorted(float(xs[k]) for k in reps)


# ---------------------------------------------------------------------------
# operations


def energy_value(model: EnergyModel, t: float, u) -> float:
    """E(t, u), with the declared domain box enforced."""
    u = as_state(u, model.dim)
    _check_domain(model, u)
    return float(model.value(t, u))


def argmin_set(model: MarginalEnergy, t: float, u) -> List[float]:
    """All eta with inner(t, u, eta) within default_delta_M(min) of the
    minimum min, deduplicated by clustering within 1e-7.

    Memoized on the model per (t, u): models are immutable and
    their queries pure, and a certified run asks the same point from
    multiplier selection, P_n and the interpolant samples. The memo holds
    at most ARGMIN_MEMO_SIZE points and is emptied when full.
    """
    u = as_state(u, model.dim)
    _check_domain(model, u)
    return list(_argmin_rows(model, (t,), u[None])[0])


def _argmin_rows(model: MarginalEnergy, t, U) -> List[Tuple[float, ...]]:
    """argmin_set of each row (t[b], U[b]), as tuples, through the memo;
    the rows it misses are evaluated as one (B, k) problem."""
    memo = vars(model).setdefault("_argmin_memo", {})
    keys = [(tb, ub.tobytes()) for tb, ub in zip(t, U)]
    out = [memo.get(key) for key in keys]
    miss = [b for b, etas in enumerate(out) if etas is None]
    if miss:
        cands, vals = _marginal_candidates(
            model, np.asarray(t, dtype=float)[miss, None], U[miss])
        for b, c, v in zip(miss, cands, vals):
            m = float(np.min(v))
            keep = v <= m + default_delta_M(m)
            out[b] = tuple(_cluster_scalars(c[keep], v[keep], ETA_CLUSTER))
            if len(memo) >= ARGMIN_MEMO_SIZE:
                memo.clear()
            memo[keys[b]] = out[b]
    return out


def marginal_subdifferential(model: MarginalEnergy, t: float, u
                             ) -> List[np.ndarray]:
    """{D_u I(t, u, eta) : eta in argmin_set}, deduplicated."""
    u = as_state(u, model.dim)
    _check_domain(model, u)
    return _marginal_subdiff_rows(model, (t,), u[None])[0]


def _marginal_subdiff_rows(model: MarginalEnergy, t, U
                           ) -> List[List[np.ndarray]]:
    """marginal_subdifferential of each row (t[b], U[b]) of a d = 1 model,
    with D_u I of every row's minimizing etas as one (B, k) array."""
    sets = _argmin_rows(model, t, U)
    k = max(len(s) for s in sets)
    etas = np.array([s + s[-1:] * (k - len(s)) for s in sets])
    dus = model.inner_du(np.asarray(t, dtype=float)[:, None], U, etas)
    out = []
    for s, du in zip(sets, dus):
        xis = sorted((du[j:j + 1] for j in range(len(s))), key=tuple)
        row: List[np.ndarray] = []
        for x in xis:
            if not row or np.linalg.norm(x - row[-1]) > XI_DEDUP:
                row.append(x)
        out.append(row)
    return out


def clarke_subdifferential_1d(model: EnergyModel, t: float, u,
                              h: float = 1e-6) -> Tuple[float, float]:
    """Interval hull of the one-sided derivatives of E(t, .) at u (d = 1).

    Smooth points give the singleton derivative; within h of a declared kink
    the one-sided derivatives are taken from the kink itself. More than one
    kink inside the step is unresolvable at this h.
    """
    if model.dim != 1:
        raise DimensionMismatchError(1, model.dim, "Clarke interval")
    u = as_state(u, 1)
    _check_domain(model, u)
    x = float(u[0])
    near = [k for k in model.kinks_1d(t) if abs(k - x) <= h]
    if len(near) > 1:
        raise ResolutionError(
            f"{len(near)} kinks of {model.name} within step {h} of u={x}; "
            f"shrink h to separate them")
    base = near[0] if near else x

    def f(y):
        return model.value(t, np.array([y]))

    d_right = _one_sided(f, base, h, +1.0)
    d_left = _one_sided(f, base, h, -1.0)
    return (min(d_left, d_right), max(d_left, d_right))


def generalized_time_derivative(model: EnergyModel, t: float, u, xi) -> float:
    """Conditioned P(t, u, xi) = model.time_deriv_P on validated states:
    the conditioned sup of MarginalEnergy, the analytic (xi-independent)
    time derivative of a smooth model."""
    return float(model.time_deriv_P(t, as_state(u, model.dim),
                                    as_state(xi, model.dim)))


# ---------------------------------------------------------------------------
# assumption audit


def default_probe_plan(model: EnergyModel) -> Tuple:
    """Deterministic (t, s, u) probe triples: the times 0, 1/4, ..., 1
    paired with each other, crossed with states in the domain box (its
    centre, a near-corner pair, and six draws of a generator seeded 0)."""
    times = np.linspace(0.0, 1.0, 5)
    if model.domain_box is not None:
        lo, hi = model.domain_box
    else:
        lo, hi = -2.0 * np.ones(model.dim), 2.0 * np.ones(model.dim)
    rng = np.random.default_rng(0)
    states = [0.5 * (lo + hi), lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)]
    for _ in range(6):
        states.append(lo + rng.random(model.dim) * (hi - lo))
    return tuple((float(t), float(s), u)
                 for u in states
                 for t in times for s in times if t != s)


def audit_assumptions(model: EnergyModel) -> AssumptionReport:
    """Check the standing assumptions on default_probe_plan(model);
    failures are rows, not exceptions.

    Rows: positivity (E >= C0 > 0), time_lipschitz
    (|E(t,u) - E(s,u)| <= C1 E(t,u) |t-s|), exponential_bound
    (E(t,u) <= exp(C1 |t-s|) E(s,u)), power_bound (|P| <= C2 sup_t E(t,u)
    for every subgradient candidate subdiff(t, u), which fails when P is
    undefined at a candidate), coercivity_witness (a bounded domain box is
    declared and every probed state lies inside it), and, for models that
    declare lambda_E = semiconvexity, a semiconvexity row (the midpoint
    inequality E(t, m) <= E(t, u)/2 + E(t, w)/2 - lambda_E/8 ||u - w||^2
    on every probe segment at every probe time).
    """
    K = model.constants
    slack = 1e-9

    triples = [(t, s, as_state(u, model.dim))
               for (t, s, u) in default_probe_plan(model)]
    times = sorted({t for (t, s, _) in triples} | {s for (_, s, _) in triples})
    rows = []

    e_cache = {}

    def E(t, u_key, u):
        if (t, u_key) not in e_cache:
            e_cache[(t, u_key)] = energy_value(model, t, u)
        return e_cache[(t, u_key)]

    keyed = [(t, s, tuple(u), u) for (t, s, u) in triples]

    min_E = min(E(t, k, u) for (t, s, k, u) in keyed)
    rows.append(AssumptionCheck(
        "positivity", bool(K.C0 > 0.0 and min_E >= K.C0 - 1e-12),
        f"min probed E = {min_E:.6g} against C0 = {K.C0:.6g}"))

    worst_lip = -np.inf
    lip_ok = True
    for (t, s, k, u) in keyed:
        et, es = E(t, k, u), E(s, k, u)
        margin = abs(et - es) - K.C1 * et * abs(t - s)
        worst_lip = max(worst_lip, margin)
        if margin > slack * (1.0 + et):
            lip_ok = False
    rows.append(AssumptionCheck(
        "time_lipschitz", lip_ok, f"worst |dE| - C1 E |dt| = {worst_lip:.3e}"))

    worst_exp = -np.inf
    exp_ok = True
    for (t, s, k, u) in keyed:
        et, es = E(t, k, u), E(s, k, u)
        margin = et - np.exp(K.C1 * abs(t - s)) * es
        worst_exp = max(worst_exp, margin)
        if margin > slack * (1.0 + et):
            exp_ok = False
    rows.append(AssumptionCheck(
        "exponential_bound", exp_ok,
        f"worst E(t) - exp(C1 |dt|) E(s) = {worst_exp:.3e}"))

    p_ok = True
    p_detail = ""
    worst_p = -np.inf
    for (t, s, k, u) in keyed:
        g_u = max(E(tt, k, u) for tt in times)
        for xi in model.subdiff(t, u):
            xi = np.asarray(xi, dtype=float)
            if xi.shape != (model.dim,) or not np.all(np.isfinite(xi)):
                p_ok = False
                p_detail = f"malformed subgradient candidate {xi!r}"
                break
            try:
                p = model.time_deriv_P(t, u, xi)
            except ConditioningError:
                p_ok = False
                p_detail = f"P undefined at candidate {xi.tolist()} at t={t}"
                break
            margin = abs(p) - K.C2 * g_u
            worst_p = max(worst_p, margin)
            if margin > slack * (1.0 + g_u):
                p_ok = False
                p_detail = f"|P| = {abs(p):.6g} > C2 sup E = {K.C2 * g_u:.6g} at t={t}"
        if not p_ok:
            break
    rows.append(AssumptionCheck(
        "power_bound", p_ok,
        p_detail or f"worst |P| - C2 sup E = {worst_p:.3e}"))

    if model.domain_box is None:
        rows.append(AssumptionCheck(
            "coercivity_witness", False, "no bounded domain box declared"))
    else:
        lo, hi = model.domain_box
        bounded = bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))
        inside = not any(np.any(u < lo) or np.any(u > hi)
                         for (_, _, _, u) in keyed)
        rows.append(AssumptionCheck(
            "coercivity_witness", bounded and inside,
            f"box widths {np.round(hi - lo, 6).tolist()}, "
            f"all probed sublevel members inside: {inside}"))

    lam = model.semiconvexity
    if lam is not None:
        rows.append(_semiconvexity_row(model, lam, times, triples, slack))

    return AssumptionReport(rows=tuple(rows))


SEMICONVEXITY_H = 0.05   # half-length of the centred sin(pi x) segment


def _semiconvexity_row(model: EnergyModel, lam: float, times, triples,
                       slack: float) -> AssumptionCheck:
    """Midpoint test of the declared lambda_E on the segments between
    consecutive probe states, plus a short segment +-h sin(pi x) (cell
    midpoints x) around the box centre: along random directions a stiff
    gradient term hides a concave on-site well."""
    states = list({u.tobytes(): u for (_, _, u) in triples}.values())
    segments = list(zip(states, states[1:]))
    if model.domain_box is not None:
        lo, hi = model.domain_box
        centre = 0.5 * (lo + hi)
    else:
        centre = np.zeros(model.dim)
    bump = SEMICONVEXITY_H * np.sin(np.pi * (np.arange(model.dim) + 0.5)
                                    / model.dim)
    segments.append((centre - bump, centre + bump))

    ok, worst = True, -np.inf
    for t in times:
        for (u, w) in segments:
            eu, ew = energy_value(model, t, u), energy_value(model, t, w)
            em = energy_value(model, t, 0.5 * (u + w))
            d = u - w
            chord = 0.5 * (eu + ew) - lam / 8.0 * float(np.dot(d, d))
            margin = em - chord
            worst = max(worst, margin)
            if margin > slack * (1.0 + abs(chord)):
                ok = False
    return AssumptionCheck(
        "semiconvexity", ok,
        f"lambda_E = {lam:.6g}: worst E(m) - chord = {worst:.3e}")
