"""Row forms of the certificate's scalar terms. A potential's value and
closed_conjugate, conjugate, fenchel_young_gap, energy_value,
generalized_time_derivative, slope_multiplier and minimality_witness take
the rows of a (B, d) array. Each row must have the bits of its one-row
call, and each one-row call the bits of the formula it used before rows
existed, kept here as the reference. Where rows fail, the error raised must
be the one a loop over the rows meets first, with that row's message."""

import math

import numpy as np
import pytest

from dnevolve import _kernels, diagnostics, energy, potentials, scheme
from dnevolve.energy import (MarginalEnergy, argmin_set, energy_value,
                             generalized_time_derivative)
from dnevolve.errors import (ConditioningError, DomainError,
                             MaximizationFailureError)
from dnevolve.models import build
from dnevolve.potentials import (OneHomPlusQuad, PNorm, Quadratic, Scaled,
                                 StateWeighted, TwoSlope, WeightedSum,
                                 conjugate, fenchel_young_gap)


def bits(values):
    """The bit patterns of a sequence of floats: -0.0 and NaN included."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# the formulas of the one-rate calls before rows


def old_value(p, v):
    if isinstance(p, Quadratic):
        return 0.5 * p.c * float(np.dot(v, v))
    if isinstance(p, PNorm):
        return float(p.c / p.p * np.sum(np.abs(v) ** p.p))
    if isinstance(p, OneHomPlusQuad):
        return float(p.rho * np.sum(np.abs(v)) + 0.5 * p.eps * np.dot(v, v))
    if isinstance(p, WeightedSum):
        return float(sum(old_value(q, v) for q in p.parts))
    if isinstance(p, Scaled):
        return p.w * old_value(p.base, v)
    r = float(np.linalg.norm(v))  # TwoSlope
    return max(r, 2.0 * r - 1.0)


def old_closed_conjugate(p, xi):
    if isinstance(p, Quadratic):
        return float(np.dot(xi, xi)) / (2.0 * p.c)
    if isinstance(p, PNorm):
        if p.p == 1.0:
            return 0.0 if np.max(np.abs(xi), initial=0.0) <= p.c else np.inf
        q = p.p / (p.p - 1.0)
        try:
            w = p.c ** (1.0 - q)
        except OverflowError:
            return float(p.c / q * np.sum((np.abs(xi) / p.c) ** q))
        return float(w / q * np.sum(np.abs(xi) ** q))
    if isinstance(p, OneHomPlusQuad):
        excess = np.maximum(np.abs(xi) - p.rho, 0.0)
        return float(np.sum(np.square(excess)) / (2.0 * p.eps))
    if isinstance(p, WeightedSum):
        rho, (g,) = p._split()
        return old_closed_conjugate(g, potentials._soft(xi, rho))
    if isinstance(p, Scaled):
        return p.w * old_closed_conjugate(p.base, np.asarray(xi) / p.w)
    r = float(np.linalg.norm(xi))  # TwoSlope
    if r > 2.0:
        raise MaximizationFailureError("infinite")
    return max(r - 1.0, 0.0)


def old_E(model, t, u):
    """E of one point as it was computed before rows: AllenCahn1D's grid
    kernels on one state, AbsoluteMarginal's candidate minimum, and the
    closed forms of PhaseField1D and of the quadratic energy of
    QuadraticBenchmark and StateWeightedToy."""
    if model.name == "AllenCahn1D":
        return _kernels.ac_energy(u, model.dx, model.q,
                                  model.amp * math.sin(t) * model.profile,
                                  model.offset)
    if model.name == "AbsoluteMarginal":
        return float(np.min(energy._marginal_candidates(
            model, np.array([[t]]), u[None])[1]))
    if model.name == "PhaseField1D":
        x = u[0]
        return (0.5 * x * x + 1.0 - (abs(x) + 2.0) ** 2 / 6.0
                - model.load(t) * x + model.offset)
    d = u - model.a
    return 0.5 * float(np.dot(d, d)) + model.offset


def old_P(model, t, u, xi):
    """P of the marginal models and of AllenCahn1D as one-point formulas;
    the quadratic energy's P is 0."""
    if isinstance(model, MarginalEnergy):
        etas = argmin_set(model, t, u)
        dus = [np.asarray(model.inner_du(t, u, e), dtype=float).reshape(
            model.dim) for e in etas]
        matched = [e for e, du in zip(etas, dus)
                   if np.linalg.norm(xi - du) <= energy.DELTA_XI]
        if not matched:
            raise ConditioningError("no match")
        return max(float(model.inner_dt(t, u, e)) for e in matched)
    if model.name == "AllenCahn1D":
        return (-model.amp * math.cos(t) * float(np.dot(model.profile, u))
                * model.dx)
    return 0.0


# ---------------------------------------------------------------------------
# potentials

SPECIAL = (0.0, -0.0, 5e-324, -2.5e-320, 1e-310, 0.3, -1.7, 2.0, 1e300,
           -1e308, np.inf, -np.inf)
KINDS = [
    Quadratic(1.0), Quadratic(2.5), PNorm(1.0, 2.0), PNorm(0.7, 1.5),
    PNorm(0.5, 3.0), PNorm(2.0, 1.0),
    PNorm(1e-300, 1.5),  # c^(1 - q) overflows: the tiny-c branch
    OneHomPlusQuad(1.0, 1.0), OneHomPlusQuad(0.3, 0.5),
    WeightedSum((PNorm(1.0, 1.0), PNorm(1.0, 2.0))),
    WeightedSum((PNorm(0.5, 1.0), Quadratic(2.0))),
    WeightedSum((PNorm(0.5, 1.0), PNorm(0.7, 1.5))),
    Scaled(Quadratic(1.0), 1.7), Scaled(PNorm(0.7, 1.5), 0.3),
    StateWeighted(Quadratic(2.0), lambda u: 1.0 + 0.5 * math.tanh(u[0]),
                  (0.5, 1.5)).at_state(np.array([0.4])),
    TwoSlope(),
]


# weight rows: Scaled(base, w) with one weight per row, w[b] drawn from
# WEIGHTS; p[:B] is the weight row of B rows, and p[b] row b's potential
# (a state-independent kind is its own at every row)
WEIGHTS = (1.0, 0.3, 1.7, 2.5e-3, 4e2, 1e-300)
WEIGHT_ROWS = [Scaled(base, np.random.default_rng(7).choice(WEIGHTS, 36))
               for base in (Quadratic(2.5), PNorm(0.7, 1.5), PNorm(2.0, 1.0),
                            OneHomPlusQuad(0.3, 0.5),
                            WeightedSum((PNorm(0.5, 1.0), PNorm(0.7, 1.5))))]


def rates(d, finite=False, bound=np.inf):
    """Rows of d rates: every special value in every coordinate, then
    draws of them; only finite ones if finite, and only rows of norm at
    most bound."""
    values = [x for x in SPECIAL if math.isfinite(x) or not finite]
    rng = np.random.default_rng(d)
    V = np.array([np.full(d, x) for x in values]
                 + [rng.choice(values, d) for _ in range(24)])
    with np.errstate(over="ignore"):
        return V[np.sqrt(np.vecdot(V, V)) <= bound]


@pytest.mark.parametrize("p", KINDS + WEIGHT_ROWS, ids=repr)
@pytest.mark.parametrize("d", [1, 3])
def test_value_and_conjugate_rows_are_their_one_row_calls(p, d):
    two_slope = isinstance(p, TwoSlope)
    with np.errstate(all="ignore"):
        V = rates(d)
        X = rates(d, bound=2.0 if two_slope else np.inf)
        F = rates(d, finite=True, bound=2.0 if two_slope else np.inf)
        for query, ref, rows in (
                (lambda q, x: q.value(x), old_value, V),
                (lambda q, x: q.closed_conjugate(x), old_closed_conjugate, X),
                (conjugate,
                 lambda q, x: max(old_closed_conjugate(q, x), 0.0), F)):
            got = query(p[:len(rows)], rows)
            assert isinstance(got, np.ndarray) and got.shape == (len(rows),)
            one = [query(p[b], x) for b, x in enumerate(rows)]
            assert all(type(x) is float for x in one)
            assert bits(got) == bits(one) == bits(
                [ref(p[b], x) for b, x in enumerate(rows)])


@pytest.mark.parametrize("p", KINDS + WEIGHT_ROWS, ids=repr)
def test_gap_rows_are_their_one_row_calls(p):
    bound = 2.0 if isinstance(p, TwoSlope) else np.inf
    with np.errstate(all="ignore"):
        V = rates(3, finite=True)
        XI = rates(3, finite=True, bound=bound)[::-1]
        B = min(len(V), len(XI))
        V, XI = V[:B], XI[:B]
        got = fenchel_young_gap(p[:B], V, XI)
        one = [fenchel_young_gap(p[b], v, x) for b, (v, x) in
               enumerate(zip(V, XI))]
        ref = [old_value(p[b], v) + max(old_closed_conjugate(p[b], x), 0.0)
               - float(np.dot(x, v)) for b, (v, x) in enumerate(zip(V, XI))]
    assert bits(got) == bits(one) == bits(ref)


def test_weight_rows_raise_the_first_failing_rows_error():
    # TwoSlope's conjugate is infinite past ||xi / w|| = 2: row 1 is the
    # first such row of the weight row, and row 0 would be under weight 1
    p = Scaled(TwoSlope(), np.array([0.5, 0.25, 0.1]))
    X = np.array([[0.9], [0.6], [0.4]])
    want = raised(lambda: conjugate(p[1], X[1]))
    assert want[0] is MaximizationFailureError
    assert raised(lambda: conjugate(p, X)) == want
    assert raised(lambda: fenchel_young_gap(p, np.zeros((3, 1)), X)) == want
    # a state whose weight leaves the declared bounds raises its own error
    family = StateWeighted(Quadratic(1.0), lambda u: 1.0 + float(u[0]),
                           (0.5, 1.5))
    U = np.array([[0.2], [0.7], [-0.9]])
    got = raised(lambda: family.at_state(U))
    assert got == raised(lambda: family.at_state(U[1])) == (
        ValueError, "omega(u) = 1.7 outside declared bounds [0.5, 1.5]")


def raised(call):
    """(type, message) of the error call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("rows,first", [
    ([[0.5], [2.5], [1e300]], 1),          # the first infinite row
    ([[3.0], [0.0], [np.nan]], 0),         # before the non-finite row
    ([[0.5], [np.nan], [2.5]], 1),         # the non-finite row first
])
def test_two_slope_raises_the_first_failing_rows_error(rows, first):
    p = TwoSlope()
    with np.errstate(over="ignore"):
        got = raised(lambda: conjugate(p, np.array(rows)))
    assert got == raised(lambda: conjugate(p, np.array(rows[first])))
    assert got[0] is (ValueError if np.isnan(rows[first][0])
                      else MaximizationFailureError)


def test_state_weighted_rows_make_one_call_per_row_pass(monkeypatch):
    # the potentials of five states, two of them repeated, are one weight
    # row, whose conjugate and value are one base call each; each row has
    # the bits of its own state's potential
    family = StateWeighted(Quadratic(1.0), lambda u: 1.0 + 0.5 * math.tanh(
        u[0]), (0.5, 1.5))
    states = np.array([[0.1], [0.2], [0.1], [0.3], [0.2]])
    p = family.at_state(states)
    assert isinstance(p, Scaled) and p.w.shape == (5,)
    X = np.arange(5.0)[:, None]
    calls = []
    for name in ("value", "closed_conjugate"):
        def counted(self, x, _real=getattr(Quadratic, name), _name=name):
            calls.append((_name, len(x)))
            return _real(self, x)
        monkeypatch.setattr(Quadratic, name, counted)
    got = conjugate(p, X), p.value(X)
    assert calls == [("closed_conjugate", 5), ("value", 5)]
    frozen = [family.at_state(u) for u in states]
    assert bits(got[0]) == bits([conjugate(q, x) for q, x in zip(frozen, X)])
    assert bits(got[1]) == bits([q.value(x) for q, x in zip(frozen, X)])


# ---------------------------------------------------------------------------
# energies, P, multipliers and witnesses

MODELS = [("QuadraticBenchmark", {}), ("QuadraticBenchmark", {"dim": 3}),
          ("AbsoluteMarginal", {}),
          ("AbsoluteMarginal", {"subdiff_kind": "clarke"}),
          ("PhaseField1D", {}), ("AllenCahn1D", {"N": 8}),
          ("AllenCahn1D", {"N": 8, "q": 2.5, "p": 1.5}),
          ("StateWeightedToy", {"dim": 2})]


def points(model):
    """(times, states) rows inside the box: draws, signed zeros, and the
    kinks of the marginal models (AbsoluteMarginal's u = beta t,
    PhaseField1D's u = 0)."""
    rng = np.random.default_rng(7)
    lo, hi = model.domain_box
    t = [0.0, 0.0, 0.1, 0.37, 0.8, 1.0] + list(rng.uniform(0.0, 1.0, 10))
    U = [np.zeros(model.dim), np.full(model.dim, -0.0)]
    U += [lo + (hi - lo) * rng.uniform(0.05, 0.95, model.dim)
          for _ in range(len(t) - 2)]
    if model.name == "AbsoluteMarginal":
        U[3] = np.array([model.beta * t[3]])
    return t, np.array(U)


@pytest.mark.parametrize("params", [{}, {"subdiff_kind": "clarke"}])
def test_marginal_energy_rows_are_one_candidates_call(monkeypatch, params):
    # AbsoluteMarginal's E is the minimum over its candidate etas: B rows
    # are one (B, k) _marginal_candidates call, each row the bits of its
    # own point's candidate minimum
    model = build("AbsoluteMarginal", params).energy
    t, U = points(model)
    candidates = energy._marginal_candidates
    want = [float(np.min(candidates(model, tb, ub)[1]))
            for tb, ub in zip(t, U)]
    shapes = []

    def counted(model, t, u):
        shapes.append(np.shape(u))
        return candidates(model, t, u)
    monkeypatch.setattr(energy, "_marginal_candidates", counted)
    assert bits(energy_value(model, t, U)) == bits(want)
    assert bits(model.at_times(t)(U)[0]) == bits(want)
    assert shapes == [U.shape, U.shape]


def test_phase_field_rows_are_its_closed_form_per_row():
    model = build("PhaseField1D", {}).energy
    t, U = points(model)
    want = [0.5 * x * x + 1.0 - (abs(x) + 2.0) ** 2 / 6.0
            - model.load_amp * math.sin(tb) * x + model.offset
            for tb, (x,) in zip(t, U.tolist())]
    assert bits(energy_value(model, t, U)) == bits(want)
    assert bits(model.at_times(t)(U)[0]) == bits(want)


@pytest.mark.parametrize("name,params", MODELS)
def test_energy_and_P_rows_are_their_one_row_calls(name, params):
    model = build(name, params).energy
    t, U = points(model)
    got = energy_value(model, t, U)
    assert bits(got) == bits([energy_value(model, tb, ub)
                              for tb, ub in zip(t, U)])
    assert bits(got) == bits([old_E(model, tb, ub) for tb, ub in zip(t, U)])
    # every candidate multiplier whose P is defined, as rows
    rows = []
    for tb, ub in zip(t, U):
        for xi in model.subdiff_rows([tb], ub[None])[1]:
            try:
                old_P(model, tb, ub, xi)
            except ConditioningError:
                continue
            rows.append((tb, ub, xi))
    assert len(rows) >= len(t)
    # the reference computes each row's argmin alone, the rows all of
    # them as one batch
    ref = []
    for row in rows:
        vars(model).pop("_argmin_memo", None)
        ref.append(old_P(model, *row))
    vars(model).pop("_argmin_memo", None)
    T_, U_, X_ = (list(x) for x in zip(*rows))
    got = generalized_time_derivative(model, T_, np.array(U_), np.array(X_))
    one = [generalized_time_derivative(model, *row) for row in rows]
    assert bits(got) == bits(one) == bits(ref)


def test_rows_raise_the_first_failing_rows_error():
    model = build("AbsoluteMarginal", {}).energy
    good, unmatched = [0.3, [-0.4], [0.5]], [0.8, [0.9], [0.0]]
    outside = [0.1, [2.0], [0.5]]
    # xi = 0 matches neither branch off the kink: ConditioningError, which
    # the loop met before the later row's DomainError
    for rows, first, kind in (([good, unmatched, outside], 1,
                               ConditioningError),
                              ([good, outside, unmatched], 1, DomainError)):
        t, U, X = (list(x) for x in zip(*rows))
        got = raised(lambda: generalized_time_derivative(
            model, t, np.array(U), np.array(X)))
        assert got[0] is kind
        assert got == raised(lambda: generalized_time_derivative(
            model, *rows[first]))
    # energies: the first row outside the box names its own state
    U = np.array([[0.2], [1.7], [-1.9]])
    got = raised(lambda: energy_value(model, [0.0, 0.1, 0.2], U))
    assert got[0] is DomainError and "u = [1.7]" in got[1]
    assert got == raised(lambda: energy_value(model, 0.1, U[1]))


@pytest.mark.parametrize("name,params", MODELS)
def test_slope_multiplier_and_witness_rows_are_their_one_row_calls(
        name, params):
    spec = build(name, params)
    model, psi = spec.energy, spec.dissipation
    t, U = points(model)
    got = scheme.slope_multiplier(model, psi.at_state(U), t, U)
    for tb, ub, row in zip(t, U, got):
        assert bits(row) == bits(scheme.slope_multiplier(
            model, psi.at_state(ub[None]), [tb], ub[None])[0])
    tau = [0.125 / (1 + b % 3) for b in range(len(t))]
    U_next = U[::-1] * 0.5
    p = psi.at_state(U[0])
    e_prev = energy_value(model, t, U)
    e, w = scheme.minimality_witness(model, p, t, tau, U, U_next, e_prev)
    for b in range(len(t)):
        eb, wb = scheme.minimality_witness(model, p, t[b], tau[b], U[b],
                                           U_next[b], e_prev[b])
        assert bits([e[b], w[b]]) == bits([eb, wb])


def per_step_loop(traj):
    """(psi, conj, P, gap, chain) of diagnostics._per_step_terms as the loop
    over the steps computed them before they became row calls."""
    out = np.zeros((5, traj.N + 1))
    for n in range(1, traj.N + 1):
        p, xi = traj.psi.at_state(traj.U[n - 1]), -traj.xi[n]
        v = (traj.U[n] - traj.U[n - 1]) / traj.grid.tau
        psi = old_value(p, v)
        conj = max(old_closed_conjugate(p, xi), 0.0)
        pairing = float(np.dot(xi, v))
        P = float(old_P(traj.model, traj.grid.t(n), traj.U[n], traj.xi[n]))
        de = (traj.energies[n] - traj.energies[n - 1]) / traj.grid.tau
        out[:, n] = psi, conj, P, psi + conj - pairing, de + pairing - P
    return out


@pytest.mark.parametrize("name,params", [
    m for m in MODELS if m[1].get("subdiff_kind") != "clarke"]
    + [("AllenCahn1D", {"N": 32, "p": 1.5})])
def test_per_step_terms_equal_the_per_step_loop_bitwise(name, params):
    spec = build(name, params)
    model = spec.energy
    u0 = (0.1 * np.sin(np.pi * (np.arange(model.dim) + 0.5) / model.dim)
          if name == "AllenCahn1D" else np.full(model.dim, 0.55
                                                if model.dim == 1 else 0.3))
    traj = scheme.solve(model, spec.dissipation, u0,
                        scheme.TimeGrid(0.125, 2.0 ** -5))
    got = diagnostics._per_step_terms(traj)
    want = per_step_loop(traj)
    for row, arr in zip(want, (got.psi, got.conj, got.P, got.gap,
                               got.chain)):
        assert bits(arr) == bits(row)


def test_multiplier_rows_keep_the_first_of_tied_gaps():
    # at AbsoluteMarginal's kink u = beta t both branch slopes -+alpha are
    # candidates; against v = 0 their gaps tie, and the lexicographically
    # smaller multiplier wins, in a row batch as in a one-row call
    model = build("AbsoluteMarginal", {}).energy
    p = Quadratic(1.0)
    t = [0.4, 0.8, 0.2]
    U = np.array([[model.beta * 0.4], [0.9], [model.beta * 0.2]])
    v = np.array([[0.0], [0.3], [-0.0]])
    xi, gap = scheme._select_multiplier(model, p, v, t, U)
    assert xi[0, 0] == xi[2, 0] == -model.alpha
    for b in range(3):
        one = scheme._select_multiplier(model, p, v[b:b + 1], t[b:b + 1],
                                        U[b:b + 1])
        assert bits(xi[b]) == bits(one[0][0])
        assert bits([gap[b]]) == bits(one[1])
