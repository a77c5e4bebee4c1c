"""The 1-D step block in rows: every stage of scheme._solve_1d is a row
call, and each row keeps the bits of its one-row call. A _steps block of
d = 1 rows equals each row's own _steps call; the lockstep polish equals
polish_root row by row; each model's derivative_1d rows equal its
one-point calls; and the row radius search equals rate_bound_radius and
the scalar doubling loop it replaced."""

import math

import numpy as np
import pytest

import dnevolve.scheme as scheme
from dnevolve import _optim, potentials
from dnevolve.energy import EnergyConstants, EnergyModel
from dnevolve.models import build
from dnevolve.scheme import SolveOptions


def bits(values):
    return [float(v).hex() for v in np.ravel(values)]


# ---------------------------------------------------------------------------
# the _steps block


def step_rows(name, params):
    """(model, psi, u_prev, t, tau): 12 d = 1 step problems of one model,
    steps from tau/4 to tau, states across the box and one just inside
    its upper end, and for AbsoluteMarginal rows at the kink u = beta t of
    their own time."""
    spec = build(name, params)
    model = spec.energy
    t = [0.0078125 * (1 + b) for b in range(12)]
    tau = [2.0 ** -5 / (1 + b % 4) for b in range(12)]
    u = [0.55, -0.3, 0.0, -0.0, 1.2, -1.1, 0.3, 0.05, -0.6, 0.9, 0.2, -0.2]
    u[9] = float(model.domain_box[1][0]) - 1e-3
    if name == "AbsoluteMarginal":
        for b in (2, 5, 8):
            u[b] = model.beta * t[b]
    return model, spec.dissipation, np.array(u)[:, None], t, tau


STEP_CASES = [("PhaseField1D", {}), ("AbsoluteMarginal", {}),
              ("AbsoluteMarginal", {"subdiff_kind": "clarke"}),
              ("StateWeightedToy", {})]


@pytest.mark.parametrize("name,params", STEP_CASES)
def test_steps_block_rows_are_their_one_row_calls(name, params):
    model, psi, u_prev, t, tau = step_rows(name, params)
    B = len(t)
    got = scheme._steps(model, psi, u_prev, t, tau, SolveOptions(),
                        [1.0] * B)
    statuses = []
    for b, row in enumerate(got):
        one = scheme._steps(model, psi, u_prev[b:b + 1], [t[b]], [tau[b]],
                            SolveOptions(), [1.0])[0]
        assert not isinstance(row, Exception), row
        U, xi, gap, status, energy, witness = row
        assert bits(U) == bits(one[0]) and bits(xi) == bits(one[1])
        assert bits([gap, energy, witness]) == bits([one[2], one[4], one[5]])
        assert status == one[3]
        statuses.append(status)
    if name != "StateWeightedToy":
        # rows of two basins: the kink of AbsoluteMarginal, the double
        # well of PhaseField1D at u = 0
        assert max(s["basins"] for s in statuses) == 2
    if name == "AbsoluteMarginal":
        # the step out of the box's upper end stops at it, unpolished
        assert [s["polished"] for s in statuses].count(False) == 1


# ---------------------------------------------------------------------------
# the lockstep polish


def _raises_inside(x):
    if -0.5 < x < 0.5:
        raise ArithmeticError("no derivative here")
    return x


POLISH_ROWS = [
    # (dphi of one float, x, radius)
    (lambda x: x ** 3 - 2.0, 1.2, 0.5),                      # smooth
    (lambda x: math.atan(x - 0.123), 0.0, 2.0),
    (lambda x: math.tanh(50.0 * (x - 0.01)), 0.0, 1.0),      # steep
    (lambda x: math.copysign(1.0, x - 0.3), 0.25, 0.2),      # kinked
    (lambda x: (x - 0.3) if x < 0.3 else 3.0 * (x - 0.3), 0.2, 0.5),
    (lambda x: 0.0, 0.5, 0.1),                               # flat
    (lambda x: 2.0, 0.5, 0.1),                               # flat
    (lambda x: x * x + 1.0, 0.0, 1.0),                       # same sign
    (lambda x: 1e-200 * (2.0 + x), 0.0, 1.0),                # same sign bit
    (lambda x: (x - 0.3) if abs(x) > 0.79 else math.nan, 0.2, 1.0),
    (lambda x: math.nan if x > 1.0 else x, 0.5, 0.6),        # NaN at an end
    (lambda x: math.inf if x > 1.0 else x - 0.5, 0.5, 0.6),
    (_raises_inside, 0.1, 1.0),                              # raises inside
    (_raises_inside, 0.0, 0.3),                              # raises at ends
    (lambda x: x - 0.5, 0.75, 0.25),                         # root at an end
    (lambda x: -0.0 if x > 0.9 else x - 1.0, 0.5, 0.5),
    (lambda x: 1e-300 * math.sin(x), 0.1, 0.5),
    (lambda x: math.exp(x) - 3.0, 1.0, 0.3),
]


def test_lockstep_polish_equals_polish_root_row_by_row():
    fs = [f for f, _, _ in POLISH_ROWS]
    x = np.array([x for _, x, _ in POLISH_ROWS])
    radius = np.array([r for _, _, r in POLISH_ROWS])
    calls = []

    def dphi(x, rows):
        calls.append(len(rows))
        return [fs[r](v) for v, r in zip(x.tolist(), rows.tolist())]

    got = _optim.polish_rows(dphi, x, radius)
    for b, (f, xb, rb) in enumerate(POLISH_ROWS):
        assert bits([got[b]]) == bits([_optim.polish_root(f, xb, rb)]), b
    # one call of both ends of every row, then one per round; the raising
    # rows make every call with them raise and be made again point by point
    assert calls[0] == 2 * len(fs)


def test_lockstep_polish_makes_one_call_per_round():
    # no row raises: the ends of every row, then one call per round of the
    # rows still running; the slowest row's evaluations set the rounds
    fs = [f for f, _, _ in POLISH_ROWS if f is not _raises_inside]
    rows = [r for r in POLISH_ROWS if r[0] is not _raises_inside]
    evals = []
    for f, xb, rb in rows:
        n = [0]

        def counted(v, f=f, n=n):
            n[0] += 1
            return f(v)
        _optim.polish_root(counted, xb, rb)
        evals.append(n[0])
    calls = []

    def dphi(x, r):
        calls.append(sorted(set(r.tolist())) if len(calls) else len(r))
        return [fs[k](v) for v, k in zip(x.tolist(), r.tolist())]

    _optim.polish_rows(dphi, np.array([x for _, x, _ in rows]),
                       np.array([r for _, _, r in rows]))
    assert calls[0] == 2 * len(fs)
    assert len(calls) == max(evals) - 1
    # round j asks exactly the rows that polish_root evaluates j + 2 times
    for j, live in enumerate(calls[1:], start=1):
        assert live == [b for b, n in enumerate(evals) if n >= j + 2]


def _failing_from(n, fail):
    """(dphi, calls): atan(x - 0.3) until its n-th call, fail(x) from then
    on; calls lists the abscissae asked. A one-row polish asks both bracket
    ends in its calls 1 and 2."""
    calls = []

    def dphi(x):
        calls.append(x)
        return math.atan(x - 0.3) if len(calls) < n else fail(x)
    return dphi, calls


def _raise(x):
    raise ArithmeticError("no derivative here")


def _nan(x):
    return math.nan


def _smooth(x):
    return math.atan(x - 0.3)


def _raises_right(x):
    return _raise(x) if x > 1.0 else x - 0.3


@pytest.mark.parametrize("fail,n,asked", [
    # the 4th call is the run's second abscissa; a call that raises is
    # made again point by point, and NaN ends the run at once
    (_raise, 4, 5), (_nan, 4, 4), (_raise, 2, 4), (_nan, 2, 2)],
    ids=["raises_mid_run", "nan_mid_run", "raises_at_end", "nan_at_end"])
def test_polish_root_keeps_x_where_dphi_fails(fail, n, asked):
    dphi, calls = _failing_from(n, fail)
    assert bits([_optim.polish_root(dphi, 0.2, 1.0)]) == bits([0.2])
    assert len(calls) == asked


def test_lockstep_polish_keeps_x_only_in_failing_rows():
    # raising at a bracket end and mid-run, and NaN mid-run, next to rows
    # that converge
    fs = [_smooth, _raises_right, _raises_inside, _smooth,
          lambda x: (x - 0.3) if abs(x) > 0.79 else math.nan]
    x = np.array([0.2, 0.2, 0.1, 0.1, 0.2])
    got = _optim.polish_rows(
        lambda x, rows: [fs[k](v) for v, k in zip(x.tolist(),
                                                  rows.tolist())],
        x, np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
    assert bits(got[[1, 2, 4]]) == bits(x[[1, 2, 4]])
    assert bits(got[[0, 3]]) == bits([_optim.polish_root(_smooth, v, 1.0)
                                      for v in (0.2, 0.1)])
    assert abs(got[0] - 0.3) < 1e-15 and abs(got[3] - 0.3) < 1e-15


SPECIALS = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 2.2e-308, 1e-300,
            -1e-300, 1e300, -1e300, 1.7976931348623157e308, math.inf,
            -math.inf, math.nan]


def test_brent_root_raises_on_no_float_input():
    # its divisions by a value that can be zero are guarded
    # (ZeroDivisionError), and every other float operation gives inf or
    # NaN rather than raising: runs on ends, end values and sent values
    # drawn from extreme floats finish
    rng = np.random.default_rng(3)
    for _ in range(3000):
        xa, xb, fa, fb = (SPECIALS[i] for i in rng.integers(16, size=4))
        sent = [SPECIALS[rng.integers(16)] if rng.random() < 0.5
                else float(rng.normal()) for _ in range(40)]
        root = _optim._lockstep(
            [_optim._brent_root(xa, xb, fa, fb, 1e-15, 1e-15, 40)],
            lambda x, rows: [sent.pop()])[0]
        assert root is None or isinstance(root, float)


# ---------------------------------------------------------------------------
# derivative_1d rows


class _Gradient1D(EnergyModel):
    """E(t, u) = (1 + t) u^3 / 3 with no derivative_1d of its own: the
    default reads the gradient of at_times."""

    name = "Gradient1D"
    constants = EnergyConstants(C0=0.5, C1=1.0, C2=1.0, tau_o=0.5)

    def at_times(self, t):
        def at(U):
            x = U[:, 0]
            return ((1.0 + np.asarray(t)) * x ** 3 / 3.0).tolist(), lambda: (
                (1.0 + np.asarray(t)) * x * x)[:, None]
        return at


def one_point_derivative(model, t, u):
    """The scalar closed form each model wrote before its rows, with math
    and Python floats."""
    name = model.name
    if name == "PhaseField1D":
        return (u - math.copysign(1.0, u) * (abs(u) + 2.0) / 3.0
                - model.load_amp * math.sin(t))
    if name == "AbsoluteMarginal":
        return -model.alpha * math.copysign(1.0, u - model.beta * t)
    if name in ("QuadraticBenchmark", "StateWeightedToy"):
        return u - float(model.a[0])
    return (1.0 + t) * u * u


@pytest.mark.parametrize("model", [
    build("PhaseField1D", {}).energy, build("AbsoluteMarginal", {}).energy,
    build("QuadraticBenchmark", {"a": 0.7}).energy,
    build("StateWeightedToy", {}).energy, _Gradient1D()],
    ids=lambda m: m.name)
def test_derivative_1d_rows_are_their_one_point_calls(model):
    rng = np.random.default_rng(3)
    u = [0.0, -0.0, 0.0, -0.0, 0.25, -1.5] + list(rng.uniform(-2, 2, 10))
    t = [0.0, 0.0, 0.3, 0.3, 1.0, 0.125] + list(rng.uniform(0, 1, 10))
    if model.name == "AbsoluteMarginal":
        u[4] = model.beta * t[4]   # at the kink
    got = model.derivative_1d(np.array(t), np.array(u))
    assert got.shape == (len(u),)
    # where at_times has a gradient, an override of derivative_1d keeps
    # its bits: dE/du has one value whichever body computes it
    grad = model.at_times(np.array(t))(np.array(u)[:, None])[1]
    if grad is not None:
        assert bits(got) == bits(grad()[:, 0])
    for b in range(len(u)):
        one = model.derivative_1d(np.array(t[b:b + 1]), np.array(u[b:b + 1]))
        assert bits(one) == bits(got[b:b + 1])
        assert bits(one) == bits([one_point_derivative(model, t[b], u[b])])


# ---------------------------------------------------------------------------
# the radius search


def scalar_radius(p, tau, budget):
    """rate_bound_radius as the scalar doubling loop it replaced."""
    if budget <= 0.0:
        return max(1e-12, 1e-9 * tau)
    r = max(tau, 1e-6)
    for _ in range(400):
        with np.errstate(over="ignore"):   # a doubling whose Psi is inf hits
            if tau * float(p.scalar(r / tau)) >= budget:
                return r
        r *= 2.0
    return r


RADIUS_BASES = [potentials.Quadratic(1.0), potentials.Quadratic(1e-40),
                potentials.Quadratic(1e-300), potentials.PNorm(1.0, 3.0),
                potentials.OneHomPlusQuad(0.5, 2.0)]


@pytest.mark.parametrize("base", RADIUS_BASES, ids=repr)
def test_radius_rows_are_their_one_row_calls(base):
    # budgets <= 0 and tiny, and budgets that need the second and third
    # passes and the 400-doubling cap
    tau = np.array([2.0 ** -5, 2.0 ** -7, 1e-9, 0.25, 0.01, 2.0 ** -5,
                    0.01, 0.3, 1e-3, 2.0 ** -10])
    budget = np.array([0.0, -1.0, 1e-300, 1e-12, 0.5, 1e10, 1e3, 1e300,
                       np.nan, 3.0])
    got = potentials.rate_bound_radius(base, tau, budget)
    for b in range(len(tau)):
        (one,) = potentials.rate_bound_radius(base, tau[b:b + 1],
                                              budget[b:b + 1])
        assert bits([got[b]]) == bits([one])
        assert bits([one]) == bits([scalar_radius(base, tau[b], budget[b])])
    # a weight row: each row under its own weight
    w = np.array([1e-300, 0.5, 1.0, 2.0, 400.0, 1e-3, 3.0, 1.0, 7.0, 0.25])
    p = potentials.Scaled(base, w)
    got = potentials.rate_bound_radius(p, tau, budget)
    for b in range(len(tau)):
        (one,) = potentials.rate_bound_radius(p[b:b + 1], tau[b:b + 1],
                                              budget[b:b + 1])
        assert bits([got[b]]) == bits([one])
        assert bits([one]) == bits([scalar_radius(p[b], tau[b], budget[b])])


@pytest.mark.parametrize("pnorm", [potentials.PNorm(1.3, 1.5),
                                   potentials.PNorm(0.7, 3.0)], ids=repr)
def test_pnorm_rows_against_the_scalar_power(pnorm):
    # the row forms take numpy's array power, the scalar forms they
    # replaced a float's pow, and the two differ in the last bit at about
    # 0.1% of rates: the polish derivative stays within two ulps of its
    # scalar form (pow's one, then the product with c), and the radius
    # search, a first hit of a comparison, gives the scalar loop's radius
    # on every rate
    rng = np.random.default_rng(5)
    s = rng.uniform(-3.0, 3.0, 20000) * 10.0 ** rng.integers(-6, 6, 20000)
    row = potentials.scalar_derivative(pnorm, s)
    scalar = np.array([float(pnorm.smooth_scalar_grad(float(x))) for x in s])
    assert np.all(np.abs(row - scalar) <= 2.0 * np.spacing(np.abs(scalar)))
    for b in range(0, len(s), 499):
        one = potentials.scalar_derivative(pnorm, s[b:b + 1])
        assert bits(one) == bits(row[b:b + 1])
    tau = 10.0 ** rng.uniform(-6.0, 0.0, 2000)
    budget = 10.0 ** rng.uniform(-12.0, 12.0, 2000)
    got = potentials.rate_bound_radius(pnorm, tau, budget)
    assert bits(got) == bits([scalar_radius(pnorm, h, e)
                              for h, e in zip(tau.tolist(), budget.tolist())])
