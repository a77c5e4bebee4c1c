"""Energy layer: marginal values, subdifferential notions, conditioned P,
assumption audits.

The independent oracle is a brute-force eta grid at step 1e-5: every marginal
value and argmin set asserted below was computed from that grid first, then
frozen as a literal. Where a closed form exists it must match the oracle.
"""

import math

import numpy as np
import pytest

import dnevolve as dn
from dnevolve import _kernels, _optim, potentials
from dnevolve import energy as energy_mod
from dnevolve.energy import (ETA_CLUSTER, MarginalEnergy, argmin_set,
                             audit_assumptions, default_delta_M,
                             default_probe_plan, energy_value,
                             generalized_time_derivative)
from dnevolve.errors import (ConditioningError, DimensionMismatchError,
                             DomainError, RangeError, RefinementError)
from dnevolve.models import build


def brute_marginal(model, t, u, step=1e-5):
    """Independent of the library's argmin machinery on purpose."""
    if getattr(model, "eta_values", None) is not None:
        etas = np.asarray(model.eta_values, dtype=float)
    else:
        lo, hi = model.eta_interval
        etas = np.arange(lo, hi + step, step)
    vals = np.asarray(model.inner(t, np.asarray(u, dtype=float), etas),
                      dtype=float)
    m = float(np.min(vals))
    winners = etas[vals <= m + 1e-9 * (1.0 + abs(m))]
    # cluster within 2*step so the plateau around each minimum collapses
    reps = []
    for e in winners:
        if not reps or e - reps[-1][-1] > 2 * step:
            reps.append([e])
        else:
            reps[-1].append(e)
    return m, [float(np.median(r)) for r in reps]


@pytest.fixture(scope="module")
def phase_field():
    return build("PhaseField1D", {"offset": 2.0}).energy


@pytest.fixture(scope="module")
def abs_marginal():
    return build("AbsoluteMarginal", {}).energy


@pytest.fixture(scope="module")
def quad():
    return build("QuadraticBenchmark", {}).energy


# ---------------------------------------------------------------------------
# values


def test_quadratic_value_at_minimum(quad):
    assert energy_value(quad, 0.0, [1.0]) == 1.0


def test_abs_marginal_value_at_kink(abs_marginal):
    assert energy_value(abs_marginal, 0.0, [0.0]) == 2.0


def test_phase_field_value_at_zero_pinned(phase_field):
    """Inner minimum of 1/2 eta^2 + W(eta) sits at eta = +-2/3 with value
    1/3, not at eta = 0 (which gives W(0) = 1/2). Pinned from the brute
    grid; the closed form 1 - (|u|+2)^2/6 agrees."""
    m, etas = brute_marginal(phase_field, 0.0, [0.0])
    assert m == pytest.approx(1.0 / 3.0 + 2.0, abs=1e-9)
    assert energy_value(phase_field, 0.0, [0.0]) == pytest.approx(
        1.0 / 3.0 + 2.0, abs=1e-12)
    assert sorted(etas) == pytest.approx([-2.0 / 3.0, 2.0 / 3.0], abs=1e-4)


def test_phase_field_value_at_055_pinned(phase_field):
    m, etas = brute_marginal(phase_field, 0.0, [0.55])
    assert m == pytest.approx(2.0675, abs=1e-9)
    assert energy_value(phase_field, 0.0, [0.55]) == pytest.approx(
        2.0675, abs=1e-12)
    assert etas == pytest.approx([0.85], abs=1e-4)


def test_phase_field_closed_form_matches_oracle_on_grid(phase_field):
    for u in np.linspace(-2.5, 2.5, 23):
        m, _ = brute_marginal(phase_field, 0.3, [u])
        assert energy_value(phase_field, 0.3, [u]) == pytest.approx(
            m, abs=1e-9)


# domain ends, the tie u = 0, the clip boundaries u = +-1/2, interior points
PF_SWEEP_U = (-4.0, -1.7, -0.5, -0.4, 0.0, 0.2, 0.5, 1.3, 4.0)


def reference_candidates(model, t, u):
    """The eta_candidates hook's reference for an interval model: a 129-point
    grid with golden-section refinement of every local basin, and a second
    pass over a 1025-point grid when that grid beats it. It finds eta only
    to about sqrt(eps)."""
    lo, hi = model.eta_interval

    def batched(es):
        return np.asarray(model.inner(t, u, es), dtype=float)

    def refine(grid, vals):
        idx = _optim.local_min_indices(vals[None])[1]
        a = grid[np.maximum(idx - 1, 0)]
        b = grid[np.minimum(idx + 1, grid.shape[0] - 1)]
        xs, fs = _optim.golden_min_batched(batched, a, b, iters=90)
        # keep the grid points too so a refined value never sits above one
        return (np.concatenate([np.atleast_1d(xs), grid[idx]]),
                np.concatenate([np.atleast_1d(fs), vals[idx]]))

    grid = np.linspace(lo, hi, 129)
    cand_x, cand_f = refine(grid, batched(grid))
    fine = np.linspace(lo, hi, 1025)
    fvals = batched(fine)
    best = float(np.min(cand_f))
    if float(np.min(fvals)) < best - default_delta_M(best):
        extra_x, extra_f = refine(fine, fvals)  # coarse grid missed a basin
        cand_x = np.concatenate([cand_x, extra_x])
        cand_f = np.concatenate([cand_f, extra_f])
    return cand_x, cand_f


def reference_argmin(model, t, u):
    """argmin_set's selection and clustering on reference_candidates."""
    cands, vals = reference_candidates(model, t, u)
    m = float(np.min(vals))
    keep = vals <= m + default_delta_M(m)
    return energy_mod._cluster_scalars(cands[keep], vals[keep], ETA_CLUSTER)


def test_certified_route_agrees_with_closed_form(phase_field):
    # value() short-circuits through the closed form; the candidates that
    # argmin queries evaluate must land on the same minimum, and so must
    # the grid-plus-golden reference route
    for t in (0.0, 0.5, 1.0):
        for u in PF_SWEEP_U:
            x = np.array([u])
            closed = energy_value(phase_field, t, x)
            _, vals = energy_mod._marginal_candidates(
                phase_field, np.array([[t]]), x[None])
            assert float(np.min(vals)) == pytest.approx(closed, rel=0,
                                                        abs=1e-12)
            _, ref_vals = reference_candidates(phase_field, t, x)
            m_ref = float(np.min(ref_vals))
            assert m_ref == pytest.approx(closed, rel=0, abs=1e-10)
            assert abs(float(np.min(vals)) - m_ref) <= default_delta_M(m_ref)


def test_eta_candidates_match_reference_route(phase_field):
    for t in (0.0, 0.5, 1.0):
        for u in PF_SWEEP_U:
            x = np.array([u])
            got = argmin_set(phase_field, t, x)
            want = reference_argmin(phase_field, t, x)
            assert len(got) == len(want) == (2 if u == 0.0 else 1)
            assert got == pytest.approx(want, rel=0, abs=ETA_CLUSTER)
            if u != 0.0:
                xi = phase_field.inner_du(t, x, got[0])[0]
                assert abs(xi - phase_field.derivative_1d(t, u)) <= 1e-15


class _NoCandidates(energy_mod.MarginalEnergy):
    """An interval marginal energy without the eta_candidates hook."""

    name = "NoCandidates"
    eta_interval = (-1.0, 1.0)

    def inner(self, t, u, eta):
        return np.square(np.asarray(eta, dtype=float) - u[0]) + 1.0


def test_interval_marginal_needs_eta_candidates():
    # no grid-and-golden fallback: the hook is the only interval route
    with pytest.raises(NotImplementedError):
        energy_value(_NoCandidates(), 0.0, [0.2])


@pytest.mark.parametrize("u,dropped", [(-0.55, 1), (0.55, 4)])
def test_eta_candidates_are_checked_not_trusted(u, dropped):
    # a hook that loses the minimizing well's stationary point must be
    # caught by the fine-grid safety pass, not believed
    model = build("PhaseField1D", {}).energy
    full = model.eta_candidates
    model.eta_candidates = lambda t, x: np.delete(full(t, x), dropped)
    with pytest.raises(RefinementError):
        energy_mod._marginal_candidates(model, np.array([[0.3]]),
                                        np.array([[u]]))


def test_domain_box_enforced(quad):
    with pytest.raises(DomainError):
        energy_value(quad, 0.0, [50.0])


# ---------------------------------------------------------------------------
# argmin sets


def test_abs_marginal_argmin_regions(abs_marginal):
    t = 0.8
    k = 0.25 * t
    # u > beta t: the -alpha(u - beta t) branch (encoded eta = 0)
    assert argmin_set(abs_marginal, t, [k + 0.4]) == [0.0]
    assert argmin_set(abs_marginal, t, [k - 0.4]) == [1.0]
    assert argmin_set(abs_marginal, t, [k]) == [0.0, 1.0]


def test_phase_field_argmin_pinned(phase_field):
    got = argmin_set(phase_field, 0.0, [0.0])
    assert got == pytest.approx([-2.0 / 3.0, 2.0 / 3.0], rel=0, abs=1e-15)
    assert argmin_set(phase_field, 0.0, [0.55]) == pytest.approx(
        [0.85], rel=0, abs=1e-15)


def test_marginal_candidates_build_no_grid_per_call(monkeypatch):
    # the 1025-point safety grid is the model's, built once; one row and
    # a batch of rows evaluate it without building another
    model = build("PhaseField1D", {}).energy
    energy_mod._marginal_candidates(model, np.array([[0.3]]),
                                    np.array([[0.55]]))
    built = []
    real = np.linspace
    monkeypatch.setattr(np, "linspace",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    _, one = energy_mod._marginal_candidates(model, np.array([[0.4]]),
                                             np.array([[0.5]]))
    _, rows = energy_mod._marginal_candidates(
        model, np.array([[0.4], [0.3]]), np.array([[0.5], [0.55]]))
    assert built == []
    assert rows.shape == (2, one.shape[1])
    assert [x.hex() for x in rows[0]] == [x.hex() for x in one[0]]


def test_argmin_memo_answers_repeats(monkeypatch):
    model = build("PhaseField1D", {}).energy
    calls = []
    orig = energy_mod._marginal_candidates

    def counting(*args):
        calls.append(args[1])
        return orig(*args)
    monkeypatch.setattr(energy_mod, "_marginal_candidates", counting)
    first = argmin_set(model, 0.3, [0.55])
    first.append(99.0)  # a caller's list is its own
    again = argmin_set(model, 0.3, np.array([0.55]))
    assert again == first[:-1]
    assert again is not argmin_set(model, 0.3, [0.55])
    assert len(calls) == 1
    # time is part of the key
    argmin_set(model, 0.4, [0.55])
    assert len(calls) == 2
    # the domain check still runs on every call
    with pytest.raises(DomainError):
        argmin_set(model, 0.3, [5.0])


def test_argmin_matches_brute_force_along_loading(phase_field):
    for t in (0.0, 0.7, 1.4):
        for u in (-1.1, 0.0, 0.3, 2.0):
            _, oracle = brute_marginal(phase_field, t, [u])
            got = argmin_set(phase_field, t, [u])
            assert len(got) == len(oracle)
            assert got == pytest.approx(oracle, abs=1e-4)


# ---------------------------------------------------------------------------
# subdifferentials


def marginal_xis(model, t, u):
    """The marginal subdifferential at one point (d = 1), as floats: the
    one-row MarginalEnergy.subdiff_rows, even where a model overrides it."""
    return MarginalEnergy.subdiff_rows(model, [t], np.array([u]))[1][:, 0] \
        .tolist()


def clarke_interval(model, t, u):
    """(lo, hi), the one-row _clarke_rows call at (t, u)."""
    (lo,), (hi,) = energy_mod._clarke_rows(model, [t], np.array([u]))
    return lo, hi


# (name, params, rows of kinks and ties: (t, u) with more than one
# candidate); AbsoluteMarginal's kink travels along u = beta t, and
# PhaseField1D's two wells tie at u = 0 without load
CONTRACT_MODELS = [
    ("QuadraticBenchmark", {"dim": 3}, []),
    ("AbsoluteMarginal", {"subdiff_kind": "marginal"},
     [(t, 0.25 * t) for t in (0.0, 0.5, 0.8)]),
    ("AbsoluteMarginal", {"subdiff_kind": "clarke"},
     [(t, 0.25 * t) for t in (0.0, 0.5, 0.8)]),
    ("PhaseField1D", {"load_amp": 0.0}, [(t, 0.0) for t in (0.0, 0.4, 1.0)]),
    ("PhaseField1D", {}, []),
    ("AllenCahn1D", {"N": 8}, []),
    ("StateWeightedToy", {"dim": 2}, []),
]


@pytest.mark.parametrize("name,params,ties", CONTRACT_MODELS,
                         ids=[f"{n}-{p}" for n, p, _ in CONTRACT_MODELS])
def test_subdiff_rows_keeps_its_pair_contract(name, params, ties):
    # (owner, C): every row present, owners nondecreasing, each row in
    # lexicographic order with no two candidates within XI_DEDUP, and C a
    # finite (n, d) array; the multiplier picks rely on it unsorted
    model = build(name, params).energy
    lo, hi = model.domain_box
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 1.0, 40).tolist() + [tb for tb, _ in ties]
    U = np.concatenate([lo + rng.random((40, model.dim)) * (hi - lo),
                        np.array([[u] for _, u in ties]).reshape(
                            -1, model.dim)])
    owner, C = model.subdiff_rows(t, U)
    owner = np.asarray(owner)
    assert C.shape == (len(owner), model.dim) and C.dtype == float
    assert np.isfinite(C).all()
    assert np.issubdtype(owner.dtype, np.integer)
    assert (np.diff(owner) >= 0).all()
    assert set(owner.tolist()) == set(range(len(t)))
    for b in range(len(t)):
        row = [tuple(c) for c in C[owner == b].tolist()]
        assert row == sorted(row)
        for a, c in zip(row, row[1:]):
            assert np.linalg.norm(np.subtract(c, a)) > energy_mod.XI_DEDUP
    # every kink or tie row has more than one candidate
    assert (np.bincount(owner)[40:] > 1).all()


def test_abs_marginal_subdiff_table(abs_marginal):
    t = 0.8
    k = 0.25 * t
    assert marginal_xis(abs_marginal, t, [k + 0.3]) == [-0.5]
    assert marginal_xis(abs_marginal, t, [k]) == [-0.5, 0.5]
    assert marginal_xis(abs_marginal, t, [k - 0.3]) == [0.5]


def test_clarke_intervals(abs_marginal, quad):
    t = 0.8
    k = 0.25 * t
    lo, hi = clarke_interval(abs_marginal, t, [k])
    assert lo == pytest.approx(-0.5, abs=1e-6)
    assert hi == pytest.approx(0.5, abs=1e-6)
    lo, hi = clarke_interval(abs_marginal, t, [k + 0.3])
    assert lo == pytest.approx(-0.5, abs=1e-6)
    assert hi == pytest.approx(-0.5, abs=1e-6)
    lo, hi = clarke_interval(quad, 0.0, [3.0])
    assert lo == pytest.approx(2.0, abs=1e-8)
    assert hi == pytest.approx(2.0, abs=1e-8)


def test_clarke_requires_dim_1():
    ac = build("AllenCahn1D", {"N": 4}).energy
    with pytest.raises(DimensionMismatchError):
        energy_mod._clarke_rows(ac, [0.0], np.zeros((1, 4)))


def test_clarke_contains_marginal_elements(abs_marginal):
    rng = np.random.default_rng(7)
    for _ in range(60):
        t = float(rng.uniform(0.0, 1.0))
        u = float(rng.uniform(-1.2, 1.2))
        lo, hi = clarke_interval(abs_marginal, t, [u])
        for xi in marginal_xis(abs_marginal, t, [u]):
            assert lo - 1e-6 <= xi <= hi + 1e-6


def test_phase_field_clarke_at_kink(phase_field):
    t = 0.9
    ell = 0.3 * math.sin(t)  # builder default load_amp
    lo, hi = clarke_interval(phase_field, t, [0.0])
    assert lo == pytest.approx(-2.0 / 3.0 - ell, abs=1e-6)
    assert hi == pytest.approx(2.0 / 3.0 - ell, abs=1e-6)


def clarke_loop(model, t, u, h=1e-6):
    """The Clarke interval at one point, point by point: each of the eight
    differences of its two quotients a one-row at_times call."""
    x = float(u[0])
    near = [k for k in model.kinks_1d(t) if abs(k - x) <= h]
    base = near[0] if near else x
    at = model.at_times((t,))

    def f(y):
        return at(np.array([[y]]))[0][0]

    d_right = potentials._one_sided(f, base, h, +1.0)
    d_left = potentials._one_sided(f, base, h, -1.0)
    return (min(d_left, d_right), max(d_left, d_right))


@pytest.mark.parametrize("name", ["AbsoluteMarginal", "PhaseField1D"])
def test_clarke_rows_are_their_one_row_calls(name, monkeypatch):
    # rows at the kink, within h of it on either side, and away from it,
    # at several times, in one call
    model = build(name, {}).energy
    h = 1e-6
    t, U = [], []
    for tb in (0.0, 0.3, 0.8):
        k = model.kinks_1d(tb)[0]
        for du in (0.0, 0.4 * h, -0.9 * h, h, 0.35, -0.6):
            t.append(tb)
            U.append([k + du])
    U = np.array(U)
    lo, hi = energy_mod._clarke_rows(model, t, U)
    for b in range(len(t)):
        one = clarke_interval(model, t[b], U[b])
        ref = clarke_loop(model, t[b], U[b])
        assert (float(lo[b]).hex(), float(hi[b]).hex()) \
            == tuple(float(x).hex() for x in one) \
            == tuple(float(x).hex() for x in ref), (t[b], U[b])
    # a row out of the box raises, after a good row, as it does alone
    with pytest.raises(dn.DomainError, match=r"u = \[5\.0\]"):
        energy_mod._clarke_rows(model, [0.0, 0.0], np.array([[0.1], [5.0]]))
    # in Clarke mode the candidates of all rows take one at_times call
    clarke = build("AbsoluteMarginal", {"subdiff_kind": "clarke"}).energy
    calls = []
    at_times = clarke.at_times
    monkeypatch.setattr(clarke, "at_times",
                        lambda t: calls.append(len(t)) or at_times(t))
    owner, C = clarke.subdiff_rows(t, U)
    assert calls == [5 * len(t)]
    for b in range(len(t)):
        lo_b, hi_b = clarke_loop(clarke, t[b], U[b])
        want = [lo_b] + ([0.0] if lo_b < 0.0 < hi_b else []) \
            + ([hi_b] if hi_b > lo_b else [])
        assert [x.hex() for x in C[owner == b, 0].tolist()] \
            == [x.hex() for x in want]


def test_allen_cahn_subdiff_rows_are_gradient_rows(monkeypatch):
    # the candidates are the ac_grad rows bit for bit, and no energy is
    # computed for them
    model = build("AllenCahn1D", {"N": 8, "p": 1.5}).energy
    rng = np.random.default_rng(4)
    t = [0.0, 0.25, 0.7, 1.0]
    U = rng.uniform(-1.5, 1.5, (4, 8))
    energies = []
    monkeypatch.setattr(_kernels, "ac_energy",
                        lambda *a, **k: energies.append(1))
    owner, C = model.subdiff_rows(t, U)
    assert energies == []
    assert owner.tolist() == [0, 1, 2, 3]
    for b in range(4):
        load = model.amp * math.sin(t[b]) * model.profile
        ref = _kernels.ac_grad(U[b], model.dx, model.q, load)
        assert C[b].tobytes() == ref.tobytes()


def test_subdifferential_offset_invariance():
    # interval models: independent golden searches agree only to the
    # sqrt(eps) eta-localization floor; finite-branch models are exact
    a = build("PhaseField1D", {"offset": 2.0}).energy
    b = build("PhaseField1D", {"offset": 5.0}).energy
    for u in (-0.8, 0.0, 0.4):
        xa = marginal_xis(a, 0.3, [u])
        xb = marginal_xis(b, 0.3, [u])
        assert len(xa) == len(xb)
        for p, q in zip(xa, xb):
            assert p == pytest.approx(q, abs=5e-8)
        assert energy_value(b, 0.3, [u]) - energy_value(a, 0.3, [u]) \
            == pytest.approx(3.0, abs=1e-12)
    c = build("AbsoluteMarginal", {"offset": 2.0}).energy
    d = build("AbsoluteMarginal", {"offset": 3.0}).energy
    for u in (-0.4, 0.2, 0.9):
        assert marginal_xis(c, 0.8, [u]) == marginal_xis(d, 0.8, [u])


# ---------------------------------------------------------------------------
# conditioned time derivative


def test_conditioned_p_table(abs_marginal):
    t = 0.8
    k = 0.25 * t
    ab = 0.5 * 0.25
    below = np.array([k - 0.3])
    assert generalized_time_derivative(abs_marginal, t, below, [0.5]) \
        == pytest.approx(-ab)
    at = np.array([k])
    assert generalized_time_derivative(abs_marginal, t, at, [-0.5]) \
        == pytest.approx(ab)
    assert generalized_time_derivative(abs_marginal, t, at, [0.5]) \
        == pytest.approx(-ab)


def test_conditioned_p_rejects_foreign_xi(abs_marginal):
    with pytest.raises(ConditioningError):
        generalized_time_derivative(abs_marginal, 0.8, [0.5], [0.123])


def test_chain_rule_inequality_along_kink_curve(abs_marginal):
    # along u(t) = beta t, every conditioned P satisfies P <= -xi * beta
    beta = 0.25
    for t in np.linspace(0.1, 1.0, 7):
        u = np.array([beta * t])
        for xi in (-0.5, 0.5):
            p = generalized_time_derivative(abs_marginal, t, u, [xi])
            assert p <= -xi * beta + 1e-10


def test_smooth_model_time_derivative_is_load_rate():
    ac = build("AllenCahn1D", {"N": 8, "load_amp": 0.3}).energy
    u = np.full(8, 0.4)
    xi = _kernels.ac_grad(u, ac.dx, ac.q, 0.3 * math.sin(0.7) * ac.profile)
    x = (np.arange(8) + 0.5) / 8
    expected = -0.3 * math.cos(0.7) * float(np.dot(np.sin(np.pi * x), u)) / 8
    assert generalized_time_derivative(ac, 0.7, u, xi) == pytest.approx(
        expected, abs=1e-14)


# ---------------------------------------------------------------------------
# assumption audits


def test_audits_pass_on_shipped_models():
    for name in ("QuadraticBenchmark", "AbsoluteMarginal", "PhaseField1D",
                 "StateWeightedToy"):
        model = build(name, {}).energy
        rep = audit_assumptions(model)
        assert rep.passed, f"{name}: {rep.to_dict()}"


def test_audit_allen_cahn_small():
    model = build("AllenCahn1D", {"N": 4}).energy
    rep = audit_assumptions(model)
    assert rep.passed, rep.to_dict()


@pytest.mark.parametrize("name,params", [
    ("QuadraticBenchmark", {"dim": 3}), ("StateWeightedToy", {}),
    ("AllenCahn1D", {}), ("AllenCahn1D", {"N": 8, "q": 4.0}),
    ("AllenCahn1D", {"q": 4.0}),
])
def test_audit_passes_declared_semiconvexity(name, params):
    model = build(name, params).energy
    rep = audit_assumptions(model)
    assert rep.row("semiconvexity").passed, rep.row("semiconvexity").detail
    assert rep.passed, rep.to_dict()


def test_audit_has_no_semiconvexity_row_without_a_claim():
    for name in ("AbsoluteMarginal", "PhaseField1D"):
        rep = audit_assumptions(build(name, {}).energy)
        with pytest.raises(KeyError):
            rep.row("semiconvexity")


def test_audit_rejects_an_overclaimed_semiconvexity(monkeypatch):
    # q = 4: the gradient term is quartic, so along h sin(pi x) around 0
    # the concave well shows; at h = 0.05 the inequality admits at most
    # lambda ~ -0.029, and random segments alone would pass lambda = 0
    model = build("AllenCahn1D", {"q": 4.0}).energy
    monkeypatch.setattr(model, "semiconvexity", 0.0)
    assert not audit_assumptions(model).row("semiconvexity").passed
    monkeypatch.setattr(model, "semiconvexity", -0.028)
    assert not audit_assumptions(model).row("semiconvexity").passed
    monkeypatch.setattr(model, "semiconvexity", -0.0295)
    assert audit_assumptions(model).row("semiconvexity").passed


def test_audit_fails_power_bound_where_p_is_undefined():
    # the box centre u = 0 is the kink at t = 0, where the Clarke interval
    # adds the candidate 0; it matches no minimizer, so P is undefined
    # there, and the audit raised ConditioningError instead of a row
    clarke = build("AbsoluteMarginal", {"subdiff_kind": "clarke"}).energy
    row = audit_assumptions(clarke).row("power_bound")
    assert not row.passed
    assert "candidate [0.0] at t=0.0" in row.detail
    marginal = build("AbsoluteMarginal", {}).energy
    assert audit_assumptions(marginal).row("power_bound").passed


AUDIT_BOX = "all probed sublevel members inside: True"
AUDIT_QUADRATIC = (
    ("positivity", "min probed E = 1 against C0 = 1"),
    ("time_lipschitz", "worst |dE| - C1 E |dt| = -2.500e-01"),
    ("exponential_bound", "worst E(t) - exp(C1 |dt|) E(s) = -2.840e-01"),
    ("power_bound", "worst |P| - C2 sup E = -1.000e+00"),
    ("coercivity_witness", f"box widths [8.0], {AUDIT_BOX}"),
    ("semiconvexity", "lambda_E = 1: worst E(m) - chord = 8.882e-16"))
AUDITS = {
    "QuadraticBenchmark": AUDIT_QUADRATIC,
    "AbsoluteMarginal": (
        ("positivity", "min probed E = 1.14979 against C0 = 1.125"),
        ("time_lipschitz", "worst |dE| - C1 E |dt| = -6.887e-04"),
        ("exponential_bound", "worst E(t) - exp(C1 |dt|) E(s) = -1.136e-03"),
        ("power_bound", "worst |P| - C2 sup E = -1.664e-02"),
        ("coercivity_witness", f"box widths [3.0], {AUDIT_BOX}")),
    "PhaseField1D": (
        ("positivity", "min probed E = 1.09395 against C0 = 1"),
        ("time_lipschitz", "worst |dE| - C1 E |dt| = -2.756e-01"),
        ("exponential_bound", "worst E(t) - exp(C1 |dt|) E(s) = -3.302e-01"),
        ("power_bound", "worst |P| - C2 sup E = -1.316e+00"),
        ("coercivity_witness", f"box widths [8.0], {AUDIT_BOX}")),
    "AllenCahn1D": (
        ("positivity", "min probed E = 1.45916 against C0 = 1"),
        ("time_lipschitz", "worst |dE| - C1 E |dt| = -2.189e-01"),
        ("exponential_bound", "worst E(t) - exp(C1 |dt|) E(s) = -2.361e-01"),
        ("power_bound", "worst |P| - C2 sup E = -8.755e-01"),
        ("coercivity_witness", f"box widths {[6.0] * 32}, {AUDIT_BOX}"),
        ("semiconvexity",
         "lambda_E = -0.03125: worst E(m) - chord = -5.972e-03")),
    "StateWeightedToy": AUDIT_QUADRATIC,
}


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_audit_asks_each_query_once_per_report(name, monkeypatch):
    # E of every probe, and the semiconvexity energies, are one row call
    # each, and the candidates and P of every probe one call each; the
    # report is the one the per-triple loop of one-point calls gave
    model = build(name, {}).energy
    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call

    for query in ("subdiff_rows", "time_deriv_P_rows"):
        monkeypatch.setattr(model, query,
                            counted(query, getattr(model, query)))
    monkeypatch.setattr(energy_mod, "energy_value",
                        counted("E", energy_mod.energy_value))
    rep = audit_assumptions(model)
    E_calls = 1 + (model.semiconvexity is not None)
    assert sorted(calls) == ["E"] * E_calls + ["subdiff_rows",
                                                "time_deriv_P_rows"]
    assert [(r.name, r.detail) for r in rep.rows] == list(AUDITS[name])
    assert rep.passed


class _NoFloor(energy_mod.EnergyModel):
    """E(t, u) = t u^2: vanishes at u = 0, so the positive floor fails."""

    name = "NoFloor"
    dim = 1
    constants = energy_mod.EnergyConstants(C0=0.5, C1=10.0, C2=10.0, tau_o=0.5)
    domain_box = (np.array([-2.0]), np.array([2.0]))

    def at_times(self, t):
        def at(U):
            x = U[:, 0]
            return (np.asarray(t) * x * x).tolist(), lambda: (
                2.0 * np.asarray(t) * x)[:, None]
        return at

    def time_deriv_P_rows(self, t, U, XI):
        return (U[:, 0] * U[:, 0]).tolist()


def test_audit_flags_missing_positive_floor():
    # derivative_1d's default is the gradient of the rows' at_times call
    assert _NoFloor().derivative_1d(np.array([0.5, 0.25]),
                                    np.array([0.3, -0.5])).tolist() == [
        2.0 * 0.5 * 0.3, 2.0 * 0.25 * -0.5]
    rep = audit_assumptions(_NoFloor())
    rows = {r.name: r for r in rep.rows}
    assert not rows["positivity"].passed
    assert not rep.passed


def test_probe_plan_is_deterministic():
    model = build("QuadraticBenchmark", {}).energy
    a = default_probe_plan(model)
    b = default_probe_plan(model)
    assert len(a) == len(b)
    for (t1, s1, u1), (t2, s2, u2) in zip(a, b):
        assert t1 == t2 and s1 == s2 and np.array_equal(u1, u2)


# ---------------------------------------------------------------------------
# marginal machinery edges


def test_marginal_xi_matches_some_argmin(phase_field):
    for u in (-0.9, 0.0, 1.1):
        etas = argmin_set(phase_field, 0.4, [u])
        for xi in marginal_xis(phase_field, 0.4, [u]):
            ok = any(abs(xi - phase_field.inner_du(0.4, np.array([u]), e)[0])
                     <= 1e-10 for e in etas)
            assert ok


def test_energy_identity_defect_needs_nodes(quad):
    # off-grid window endpoints must be rejected, not rounded
    grid = dn.TimeGrid(T=1.0, tau=0.25)
    traj = dn.solve(quad, build("QuadraticBenchmark", {}).dissipation,
                    [0.0], grid, dn.SolveOptions())
    with pytest.raises(RangeError):
        dn.energy_identity_defect(traj, 0.0, 0.3)
