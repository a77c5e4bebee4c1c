"""Time-dependent energies, their subdifferential notions, and audits.

An EnergyModel owns E(t, u), subgradient candidates and a generalized
time derivative P(t, u, xi), each written once, as rows: at_times (E and
its gradient), subdiff_rows and time_deriv_P_rows; energy_value and
generalized_time_derivative of one point are the one-row case.
subdiff_rows gives the candidates of B rows as one pair (owner, C): C is
an (n, d) float array of finite candidates, C[i] one of row owner[i];
owners are nondecreasing and name every row, and each row's candidates
come in lexicographic order, no two within XI_DEDUP. So the scheme picks
a multiplier per row with array operations alone and never sorts. A
smooth model's one candidate is its gradient; a d = 1 model with several
candidates per row writes them as a (B, k) array of ascending rows, and
_candidate_pair keeps each entry more than XI_DEDUP above the one before
it (a row's padding repeats a value, so it goes too). A d = 1
model's at_times is also the scan solver's E: it takes a (B, 1) column
of times and a (B, n, 1) grid of states, and gives each grid point the
bits of its one-row call. derivative_1d, dE/du for the stationarity
polish, is a row query too: it takes the times and scalar states of many
rows and defaults to the gradient of their at_times call, since a
marginal model's at_times has no gradient. Marginal models realize
E as

    E(t, u) = min_{eta} I(t, u, eta)

over a finite set or a compact interval of internal states eta; their
subdifferential is the set of partial gradients D_u I at the minimizing eta
(the marginal subdifferential), and P is the conditioned supremum of d/dt I
over minimizers compatible with the supplied xi. Their rows evaluate the
candidate etas, safety grid and D_u I of many points as (B, k) arrays. A
Clarke-type interval is available in dimension 1 for models that declare
their kink locations; the difference points of many rows are one at_times
call. The assumption audit asks each of its (t, u) probes once, the
energies, candidates and P of all probes as one row call each.

Energies carry an explicit constant offset chosen so the working minimum is
at least 1; the offset is stored and reported, never silently applied.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import List, Optional, Tuple

import numpy as np

from ._record import FrozenRecord
from .errors import (ConditioningError, DomainError, RefinementError,
                     ResolutionError)
from .potentials import (AdmissibilityReport as AssumptionReport,
                         AxiomCheck as AssumptionCheck, _one_sided,
                         as_state, row_call)

DELTA_XI = 1e-8       # xi-to-eta matching tolerance; both sides come from
                      # the same analytic D_u I, so agreement is near machine
ETA_CLUSTER = 1e-7    # dedup radius for minimizing eta
XI_DEDUP = 1e-10
ARGMIN_MEMO_SIZE = 1 << 14   # points kept per model by argmin_set
GRID_ROWS = 8         # rows per evaluation of a marginal model's eta_grid
_CLARKE_H = 1e-6      # one-sided difference step of the Clarke interval


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
    """Base energy: immutable after construction, all queries pure. A model
    writes at_times and time_deriv_P_rows, subdiff_rows unless its one
    candidate is its gradient, and hess_rows when d > 1."""

    name: str = "energy"
    dim: int = 1
    offset: float = 0.0
    constants: EnergyConstants = EnergyConstants(1.0, 1.0, 1.0, 0.5)
    domain_box: Optional[Tuple[np.ndarray, np.ndarray]] = None
    c_chain: Optional[float] = None  # chain-rule defect scale; None = default
    # lambda_E: a lower bound on the Hessian of E(t, .) for every t, so E is
    # lambda_E-convex; None makes no claim. audit_assumptions tests it.
    semiconvexity: Optional[float] = None

    def derivative_1d(self, t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """dE/du(t[b], u[b]) off the kinks of each row of (B,) arrays of
        times and scalar states (d = 1), for the stationarity polish, each
        with the bits of its one-row call; by default the gradient of the
        rows' at_times call."""
        return self.at_times(t)(u[:, None])[1]()[:, 0]

    def at_times(self, t):
        """E frozen at each time t[b] of a row batch: a function of a
        (B, d) array of states that returns the values E(t[b], U[b]), a
        list or a (B,) array, and a thunk for the (B, d) gradients (None
        for a model without one), so a caller that needs gradients only at
        some states pays for them only there. Work the values and
        gradients share is done once, for all rows at once. A d = 1 model
        gives an array, and its times broadcast against U[..., 0]: a
        (B, 1) column of times and a (B, n, 1) grid of states give the
        (B, n) values, each point with the bits of its one-row call."""
        raise NotImplementedError

    def subdiff_rows(self, t, U) -> Tuple[np.ndarray, np.ndarray]:
        """The subgradient candidates of the rows (t[b], U[b]) of a
        sequence of times and a (B, d) array of states, as the pair
        (owner, C) of the module docstring. A smooth model's one candidate
        is its gradient, by default from one at_times call."""
        return np.arange(len(U)), self.at_times(t)(U)[1]()

    def time_deriv_P_rows(self, t, U, XI) -> List[float]:
        """P at each row (t[b], U[b], XI[b]) of a sequence of times and
        two (B, d) arrays, in row order."""
        raise NotImplementedError

    def hess_rows(self, t, U) -> Tuple[np.ndarray, np.ndarray]:
        """The tridiagonal Hessian of E(t[b], .) at each row U[b] of a
        (B, d) array (d > 1), as its (B, d) diagonal and (B, d - 1)
        off-diagonal; +inf marks a diagonal entry where E has no second
        derivative. The n-D inner solver builds its prox-Newton candidate
        from it."""
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
    one-point call (d = 1). at_times takes the minimum of every point's
    candidate values, all points one array; a finite model's candidates
    broadcast over the scan's grid, and an interval model's safety grid
    takes rows only, so a d = 1 interval model writes its own at_times. A
    marginal E has no gradient, so its thunk is None. P is the sup of
    inner_dt over the minimizing eta whose D_u I lies within DELTA_XI of
    xi; ConditioningError when none does. Its rows share one argmin query
    and one D_u I array.
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

    def at_times(self, t):
        tc = np.asarray(t, dtype=float)[..., None]

        def at(U):
            # the minimum is exact, so each point has its one-row call's
            # bits; np.minimum over the k columns in turn, as np.min along
            # a short last axis steps point by point (4x slower on a scan)
            vals = _marginal_candidates(self, tc, U)[1]
            return reduce(np.minimum, np.moveaxis(vals, -1, 0)), None
        return at

    def subdiff_rows(self, t, U):
        """The marginal subdifferential of each row of a d = 1 model: D_u I
        at its minimizing etas, the (B, k) array of _argmin_du_rows, each
        row sorted, as _candidate_pair's pair."""
        return _candidate_pair(np.sort(_argmin_du_rows(self, t, U)[1],
                                       axis=1, kind="stable"))

    @cached_property
    def eta_grid(self) -> np.ndarray:
        """The 1025-point safety grid of eta_interval, built once."""
        lo, hi = self.eta_interval
        return np.linspace(lo, hi, 1025)

    def time_deriv_P_rows(self, t, U, XI):
        """P at each row of a d = 1 model: the minimizing etas of every
        row and their D_u I come from _argmin_du_rows, and inner_dt is
        taken per row and matched eta. The first row whose xi matches no
        minimizer raises ConditioningError."""
        _check_domain(self, U)
        sets, dus = _argmin_du_rows(self, t, U)
        # |xi - D_u I| as np.linalg.norm takes it of one coordinate
        diff = XI - dus
        near = (np.sqrt(diff * diff) <= DELTA_XI).tolist()
        out = []
        for b, etas_b in enumerate(sets):
            matched = [e for e, ok in zip(etas_b, near[b]) if ok]
            if not matched:
                cands = np.round(dus[b, :len(etas_b), None], 8).tolist()
                raise ConditioningError(
                    f"xi = {np.round(XI[b], 8).tolist()} matches no "
                    f"minimizer of {self.name} at (t={t[b]}); candidates "
                    f"{cands}")
            out.append(max(float(self.inner_dt(t[b], U[b], e))
                           for e in matched))
        return out


def default_delta_M(min_inner: float) -> float:
    return 1e-9 * (1.0 + abs(min_inner))


def _check_domain(model: EnergyModel, u: np.ndarray) -> None:
    """DomainError naming the state u (d,), or the first row of a (B, d)
    array of states, that leaves the model's domain box."""
    if model.domain_box is None:
        return
    lo, hi = model.domain_box
    out = (u < lo) | (u > hi)
    if out.any():
        if u.ndim == 2:
            u = u[np.flatnonzero(out.any(axis=1))[0]]
        raise DomainError(
            f"state outside declared domain box of {model.name}: "
            f"u = {np.round(u, 6).tolist()}")


def _marginal_candidates(model: MarginalEnergy, t, u: np.ndarray):
    """Candidate minimizers of eta -> inner(t, u, eta) and their values,
    for B points at once: t is a (B, 1) column of times and u a (B, d)
    array of states; one point is the case B = 1.

    Returns (etas, vals) as (B, k) float arrays. Finite models are
    evaluated on eta_values, and broadcast: a (B, 1, 1) column of times
    and a (B, n, d) grid of states give (B, n, k) arrays, the scan's
    call. Interval models are evaluated on their eta_candidates. The
    model's 1025-point eta_grid checks the latter: a grid value beating
    the candidate minimum by more than the argmin slack means the
    candidates missed a minimizer. The grid is evaluated GRID_ROWS rows at
    a time, each value with the bits of the one-call grid.
    """
    if model.eta_values is not None:
        etas = np.asarray(model.eta_values, dtype=float)
        vals = np.asarray(model.inner(t, u, etas), dtype=float)
        return np.broadcast_to(etas, vals.shape), vals

    grid = model.eta_grid
    # GRID_ROWS rows at a time: a block's (B, 1025) grid temporaries are
    # the largest arrays of a d = 1 solve (230 kB each at B = 28)
    fine_min = np.empty(len(u))
    for i in range(0, len(u), GRID_ROWS):
        fine_min[i:i + GRID_ROWS] = np.min(model.inner(
            t[i:i + GRID_ROWS], u[i:i + GRID_ROWS], grid), axis=-1)
    cand_x = np.asarray(model.eta_candidates(t, u), dtype=float)
    cand_f = np.asarray(model.inner(t, u, cand_x), dtype=float)
    best = np.min(cand_f, axis=-1)
    missed = np.flatnonzero(fine_min < best - default_delta_M(best))
    if missed.size:
        b = missed[0]
        raise RefinementError(
            f"interval minimization over eta failed to certify the "
            f"minimum for {model.name} at t={float(t[b, 0])}: grid "
            f"value {float(fine_min[b])} beats candidate value "
            f"{float(best[b])}")
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


def _rows(fn, t, *arrays):
    """row_call of fn over times t and arrays of rows: a state (d,), or a
    number, is one row and gives a float; the rows of (B, d) arrays give
    fn's (B,) array, t[b] a Python float for an array of times."""
    if np.ndim(arrays[0]) < 2:
        return float(row_call(fn, [t], *(
            np.atleast_1d(np.asarray(a, dtype=float))[None]
            for a in arrays))[0])
    return row_call(fn, t.tolist() if isinstance(t, np.ndarray) else list(t),
                    *arrays)


def energy_value(model: EnergyModel, t: float, u):
    """E(t, u), with the declared domain box enforced, by one
    model.at_times call and one domain check of the array. A state (d,)
    gives a float; times t[b] and the rows U[b] of a (B, d) array give the
    (B,) array of E(t[b], U[b]), each row with the bits of its one-row
    call. A row that fails raises the error the first failing row raises
    alone."""
    def rows(t, U):
        U = as_state(U, model.dim)
        _check_domain(model, U)
        return np.array(model.at_times(t)(U)[0], dtype=float)
    return _rows(rows, t, u)


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
    the rows it misses are evaluated as one (B, k) problem, their minima
    and kept candidates as arrays, and only a row that keeps more than
    one candidate is clustered."""
    memo = vars(model).setdefault("_argmin_memo", {})
    keys = [(tb, ub.tobytes()) for tb, ub in zip(t, U)]
    out = [memo.get(key) for key in keys]
    miss = [b for b, etas in enumerate(out) if etas is None]
    if miss:
        cands, vals = _marginal_candidates(
            model, np.asarray(t, dtype=float)[miss, None], U[miss])
        m = np.min(vals, axis=-1)
        keep = vals <= (m + default_delta_M(m))[:, None]
        count = keep.sum(axis=-1).tolist()
        first = cands[np.arange(len(miss)), keep.argmax(axis=-1)].tolist()
        for i, b in enumerate(miss):
            out[b] = ((first[i],) if count[i] == 1 else tuple(_cluster_scalars(
                cands[i][keep[i]], vals[i][keep[i]], ETA_CLUSTER)))
            if len(memo) >= ARGMIN_MEMO_SIZE:
                memo.clear()
            memo[keys[b]] = out[b]
    return out


def _argmin_du_rows(model: MarginalEnergy, t, U):
    """(sets, dus): the minimizing etas of each row (t[b], U[b]) of a d = 1
    model, by one _argmin_rows query, and D_u I at each, as one (B, k)
    inner_du call on the sets padded to k with their last eta."""
    sets = _argmin_rows(model, t, U)
    k = max(len(s) for s in sets)
    etas = np.array([s + s[-1:] * (k - len(s)) for s in sets])
    return sets, np.asarray(model.inner_du(np.asarray(t, dtype=float)[:, None],
                                           U, etas), dtype=float)


def _candidate_pair(C: np.ndarray):
    """The subdiff_rows pair (owner, C) of the candidates of a d = 1
    model, the entries of a (B, k) array with ascending rows: a row keeps
    its first entry and each entry more than XI_DEDUP above the one
    before."""
    keep = np.ones(C.shape, dtype=bool)
    keep[:, 1:] = np.diff(C, axis=1) > XI_DEDUP
    return np.nonzero(keep)[0], C[keep][:, None]


def _clarke_rows(model: EnergyModel, t, U):
    """The Clarke interval [lo, hi] of E(t[b], .) at each row U[b] (d = 1),
    the hull of its one-sided derivatives, as two lists (lo, hi), each
    from Richardson-refined difference quotients. At a smooth point the
    two quotients agree only up to their truncation and rounding error,
    so the interval is narrow there but seldom a singleton: on
    AbsoluteMarginal its ends differ, by 2.2e-10 to 1.6e-9, at 13,893 of
    20,000 random (t, u) in [0, 1] x [-1.5, 1.5]. Within the difference
    step h = _CLARKE_H of a declared kink the one-sided derivatives are
    taken from the kink itself, and more than one kink inside the step is
    unresolvable. Each row's two one-sided quotients read E at its base x
    and at x +- h/2, x +- h; those five points of every row are one
    at_times call. A row that fails raises the error the first failing
    row raises alone."""
    h = _CLARKE_H
    offsets = (-h, -h / 2.0, 0.0, h / 2.0, h)

    def rows(t, U):
        _check_domain(model, U)
        base = []
        for tb, x in zip(t, U[:, 0].tolist()):
            near = [k for k in model.kinks_1d(tb) if abs(k - x) <= h]
            if len(near) > 1:
                raise ResolutionError(
                    f"{len(near)} kinks of {model.name} within step {h} of "
                    f"u={x}; the Clarke interval cannot separate them")
            base.append(near[0] if near else x)
        pts = np.array(base)[:, None] + offsets
        E = model.at_times([tb for tb in t for _ in offsets])(
            pts.reshape(-1, 1))[0]
        # _one_sided's quotients at 0.0 read E at x + offset, column-wise
        at = dict(zip(offsets, np.reshape(E, pts.shape).T))
        d_right = _one_sided(at.__getitem__, 0.0, h, +1.0)
        d_left = _one_sided(at.__getitem__, 0.0, h, -1.0)
        # min and max of (d_left, d_right) as Python's min and max pick
        return (np.where(d_right < d_left, d_right, d_left).tolist(),
                np.where(d_right > d_left, d_right, d_left).tolist())
    return row_call(rows, list(t), as_state(U, 1))


def generalized_time_derivative(model: EnergyModel, t: float, u, xi):
    """Conditioned P(t, u, xi) on validated states, by one
    model.time_deriv_P_rows call: the conditioned sup of MarginalEnergy,
    the analytic (xi-independent) time derivative of a smooth model. A
    state and a multiplier (d,) give a float; times t[b] and the rows of
    two (B, d) arrays give the (B,) array of P(t[b], U[b], XI[b]), each
    row with the bits of its one-row call. A row that fails raises the
    error the first failing row raises alone."""
    def rows(t, U, XI):
        return np.array(model.time_deriv_P_rows(
            t, as_state(U, model.dim), as_state(XI, model.dim)), dtype=float)
    return _rows(rows, t, u, xi)


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
    for every subgradient candidate of subdiff_rows at (t, u), which fails
    when P is undefined at a candidate), coercivity_witness (a bounded
    domain box is declared and every probed state lies inside it), and,
    for models that declare lambda_E = semiconvexity, a semiconvexity row
    (the midpoint inequality E(t, m) <= E(t, u)/2 + E(t, w)/2 - lambda_E/8
    ||u - w||^2 on every probe segment at every probe time).
    """
    K = model.constants
    slack = 1e-9

    triples = [(t, s, as_state(u, model.dim))
               for (t, s, u) in default_probe_plan(model)]
    times = sorted({t for (t, s, _) in triples} | {s for (_, s, _) in triples})
    rows = []

    # each (t, u) probe once, in the order the triples first meet it: E,
    # the candidates and P of every probe are one row call each
    states = {tuple(u): u for (_, _, u) in triples}
    probes = [(t, k, u) for k, u in states.items() for t in times]
    pt, PU = [t for t, _, _ in probes], np.array([u for _, _, u in probes])
    e = dict(zip([(t, k) for t, k, _ in probes],
                 energy_value(model, pt, PU).tolist()))

    keyed = [(t, s, tuple(u), u) for (t, s, u) in triples]

    min_E = min(e[t, k] for (t, s, k, u) in keyed)
    rows.append(AssumptionCheck(
        "positivity", bool(K.C0 > 0.0 and min_E >= K.C0 - 1e-12),
        f"min probed E = {min_E:.6g} against C0 = {K.C0:.6g}"))

    worst_lip = worst_exp = -np.inf
    lip_ok = exp_ok = True
    for (t, s, k, u) in keyed:
        et, es = e[t, k], e[s, k]
        lip = abs(et - es) - K.C1 * et * abs(t - s)
        exp = et - np.exp(K.C1 * abs(t - s)) * es
        worst_lip, worst_exp = max(worst_lip, lip), max(worst_exp, exp)
        lip_ok &= not lip > slack * (1.0 + et)
        exp_ok &= not exp > slack * (1.0 + et)
    rows.append(AssumptionCheck(
        "time_lipschitz", lip_ok, f"worst |dE| - C1 E |dt| = {worst_lip:.3e}"))
    rows.append(AssumptionCheck(
        "exponential_bound", exp_ok,
        f"worst E(t) - exp(C1 |dt|) E(s) = {worst_exp:.3e}"))

    def malformed(xi):
        return xi.shape != (model.dim,) or not np.all(np.isfinite(xi))

    # P of the candidates before the first malformed one, one row call
    owner, C = model.subdiff_rows(pt, PU)
    n = next((i for i, xi in enumerate(C) if malformed(xi)), len(C))
    try:
        P = model.time_deriv_P_rows([pt[b] for b in owner[:n]],
                                    PU[owner[:n]], C[:n])
    except ConditioningError:
        P = None   # the loop asks each candidate alone, and names the first

    p_ok = True
    p_detail = ""
    worst_p = -np.inf
    for i, b in enumerate(owner.tolist()):
        t, k, u = probes[b]
        xi = C[i]
        if i == n:
            p_ok = False
            p_detail = f"malformed subgradient candidate {xi!r}"
            break
        try:
            p = (model.time_deriv_P_rows((t,), u[None], xi[None])[0]
                 if P is None else P[i])
        except ConditioningError:
            p_ok = False
            p_detail = f"P undefined at candidate {xi.tolist()} at t={t}"
            break
        g_u = max(e[tt, k] for tt in times)
        margin = abs(p) - K.C2 * g_u
        worst_p = max(worst_p, margin)
        if margin > slack * (1.0 + g_u):
            p_ok = False
            p_detail = f"|P| = {abs(p):.6g} > C2 sup E = {K.C2 * g_u:.6g} at t={t}"
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
        rows.append(_semiconvexity_row(model, lam, times,
                                        list(states.values()), slack))

    return AssumptionReport(rows=tuple(rows))


SEMICONVEXITY_H = 0.05   # half-length of the centred sin(pi x) segment


def _semiconvexity_row(model: EnergyModel, lam: float, times, states,
                       slack: float) -> AssumptionCheck:
    """Midpoint test of the declared lambda_E on the segments between
    consecutive probe states, plus a short segment +-h sin(pi x) (cell
    midpoints x) around the box centre: along random directions a stiff
    gradient term hides a concave on-site well."""
    segments = list(zip(states, states[1:]))
    if model.domain_box is not None:
        lo, hi = model.domain_box
        centre = 0.5 * (lo + hi)
    else:
        centre = np.zeros(model.dim)
    bump = SEMICONVEXITY_H * np.sin(np.pi * (np.arange(model.dim) + 0.5)
                                    / model.dim)
    segments.append((centre - bump, centre + bump))

    # E at u, w and their midpoint, every time and segment one row call
    cases = [(t, u, w) for t in times for (u, w) in segments]
    E = energy_value(model, [t for t, _, _ in cases for _ in range(3)],
                     np.array([x for _, u, w in cases
                               for x in (u, w, 0.5 * (u + w))])).tolist()
    ok, worst = True, -np.inf
    for i, (t, u, w) in enumerate(cases):
        eu, ew, em = E[3 * i:3 * i + 3]
        d = u - w
        chord = 0.5 * (eu + ew) - lam / 8.0 * float(np.dot(d, d))
        margin = em - chord
        worst = max(worst, margin)
        if margin > slack * (1.0 + abs(chord)):
            ok = False
    return AssumptionCheck(
        "semiconvexity", ok,
        f"lambda_E = {lam:.6g}: worst E(m) - chord = {worst:.3e}")
