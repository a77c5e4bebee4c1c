"""The in-package Brent methods against scipy.optimize, bit for bit.

_bounded_brent_rows, on one problem as max_scalar drives it and on many in
lockstep, and max_scalar are compared with
minimize_scalar(method="bounded"), and _brent_root, run on one problem by
_lockstep, and polish_root with brentq, on smooth, kinked, flat,
NaN-returning, root-at-endpoint and sign-underflow functions. Besides the
results, the sequence of abscissae each method evaluates must agree. scipy
is needed only here (the `test` extra).
"""

import math

import numpy as np
import pytest

from dnevolve import _optim, potentials

optimize = pytest.importorskip("scipy.optimize")


def bits(x):
    return float(x).hex()


def recording(f, log):
    def wrapped(x):
        log.append(bits(x))
        return f(x)
    return wrapped


# ---------------------------------------------------------------------------
# bounded Brent


def bounded_brent(f, a, b, xatol, maxiter):
    """Brent's bounded method on f over [a, b]: one problem of
    _bounded_brent_rows, driven as max_scalar drives it; returns the best
    abscissa found."""
    x, _ = _optim._bounded_brent_rows(lambda x, rows: [f(float(x[0]))],
                                      [a], [b], xatol, maxiter)
    return x[0]


def scipy_max_scalar(g, a, b, xtol=1e-12):
    """max_scalar as it was built on minimize_scalar."""
    res = optimize.minimize_scalar(lambda x: -g(x), bounds=(a, b),
                                   method="bounded",
                                   options={"xatol": xtol, "maxiter": 500})
    x = float(res.x)
    candidates = [(a, g(a)), (b, g(b)), (x, g(x))]
    return max(candidates, key=lambda p: p[1])


def _nan_right(x):
    return math.nan if x > 0.5 else (x - 0.2) ** 2


def _nan_everywhere(x):
    return math.nan


_PNORM = potentials.PNorm(1.0, 1.5)

MIN_CASES = {
    "smooth_quadratic": (lambda x: (x - 0.3) ** 2, -1.0, 2.0),
    "smooth_cos": (math.cos, 0.0, 6.0),
    "smooth_exp": (lambda x: math.exp(x) - 2.0 * x, -3.0, 4.0),
    "kink": (lambda x: abs(x - 0.37) + 0.1 * x, -1.0, 1.0),
    "kink_asymmetric": (lambda x: max(x, -2.0 * x), -5.0, 3.0),
    "flat": (lambda x: 1.0, -1.0, 1.0),
    "plateau": (lambda x: min(abs(x), 0.5), -2.0, 2.0),
    "monotone_min_at_endpoint": (lambda x: x, 0.0, 1.0),
    "nan_right_half": (_nan_right, 0.0, 1.0),
    "nan_everywhere": (_nan_everywhere, 0.0, 1.0),
    "point_interval": (lambda x: (x - 0.3) ** 2, 0.4, 0.4),
    "pnorm_conjugate": (lambda s: float(_PNORM.scalar(s)) - 0.7 * s,
                        0.0, 3.0),
    "huge_interval": (lambda x: (x - 1e3) ** 2, -1e8, 1e8),
}


@pytest.mark.parametrize("name", sorted(MIN_CASES))
@pytest.mark.parametrize("xatol,maxiter", [(1e-12, 500), (1e-5, 500),
                                           (1e-12, 6)])
def test_bounded_brent_matches_scipy_bitwise(name, xatol, maxiter):
    f, a, b = MIN_CASES[name]
    ours_log, theirs_log = [], []
    ours = bounded_brent(recording(f, ours_log), a, b, xatol, maxiter)
    res = optimize.minimize_scalar(recording(f, theirs_log), bounds=(a, b),
                                   method="bounded",
                                   options={"xatol": xatol,
                                            "maxiter": maxiter})
    assert ours_log == theirs_log
    assert bits(ours) == bits(res.x)


@pytest.mark.parametrize("name", sorted(MIN_CASES))
def test_max_scalar_matches_scipy_bitwise(name):
    f, a, b = MIN_CASES[name]

    def g(x):
        return -f(x)

    x, gx = _optim.max_scalar(g, a, b)
    x_ref, gx_ref = scipy_max_scalar(g, a, b)
    assert (bits(x), bits(gx)) == (bits(x_ref), bits(gx_ref))


def min_scalar(f, a, b, xtol=1e-12):
    """Bounded Brent on [a, b]; returns (x, f(x)) at the abscissa Brent
    settles on, f(x) taken from Brent's own evaluation, as the package's
    scan took it before its basins were refined in lockstep; the ends are
    left to the caller."""
    seen = {}

    def recorded(x):
        fx = seen[x] = f(x)
        return fx

    x = float(bounded_brent(recorded, a, b, xtol, 500))
    return x, seen[x]


def composed_min_scalar(f, a, b, xtol=1e-12):
    """min_scalar as it was built on max_scalar, negating twice."""
    x, gx = _optim.max_scalar(lambda s: -f(s), a, b, xtol=xtol)
    return x, -gx


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("name", sorted(MIN_CASES))
def test_min_scalar_matches_composition_bitwise(name, sign):
    f0, a, b = MIN_CASES[name]

    def f(x):
        return sign * f0(x)

    ours_log, ref_log = [], []
    ours = recording(f, ours_log)
    brent = min_scalar(ours, a, b)
    x, fx = min([(a, ours(a)), (b, ours(b)), brent], key=lambda p: p[1])
    x_ref, fx_ref = composed_min_scalar(recording(f, ref_log), a, b)
    # the reference evaluates Brent's abscissa once more, last; min_scalar
    # takes that value from Brent's own evaluation and leaves the ends to
    # its caller
    assert ours_log == ref_log[:-1]
    assert ref_log[-1] in ref_log[:-3]
    assert (bits(x), bits(fx)) == (bits(x_ref), bits(fx_ref))


def test_bounded_brent_random_cubics_match_scipy():
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        c = rng.normal(size=4)
        a = float(rng.uniform(-3.0, 0.0))
        b = a + float(rng.uniform(1e-6, 5.0))

        def f(x, c=c):
            return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

        ours = bounded_brent(f, a, b, 1e-12, 500)
        res = optimize.minimize_scalar(f, bounds=(a, b), method="bounded",
                                       options={"xatol": 1e-12,
                                                "maxiter": 500})
        assert bits(ours) == bits(res.x)


@pytest.mark.parametrize("xatol,maxiter", [(1e-12, 500), (1e-5, 500),
                                           (1e-12, 6), (1e-12, 2)])
def test_bounded_brent_rows_match_scipy_bitwise(xatol, maxiter):
    # every case is one row of one lockstep call: the rows stop at
    # different rounds, and at maxiter = 6 or 2 some are cut off
    names = sorted(MIN_CASES)
    logs = {name: [] for name in names}

    def rows_f(x, rows):
        out = []
        for xk, k in zip(x.tolist(), rows.tolist()):
            logs[names[k]].append(bits(xk))
            out.append(MIN_CASES[names[k]][0](xk))
        return np.array(out, dtype=float)

    xs, fxs = _optim._bounded_brent_rows(
        rows_f, [MIN_CASES[n][1] for n in names],
        [MIN_CASES[n][2] for n in names], xatol, maxiter)
    stops = set()
    for k, name in enumerate(names):
        f, a, b = MIN_CASES[name]
        theirs_log = []
        res = optimize.minimize_scalar(recording(f, theirs_log),
                                       bounds=(a, b), method="bounded",
                                       options={"xatol": xatol,
                                                "maxiter": maxiter})
        assert logs[name] == theirs_log, name
        assert bits(xs[k]) == bits(res.x), name
        # the value f gave at the abscissa, as min_scalar takes it
        assert bits(fxs[k]) == bits(f(float(xs[k]))), name
        stops.add(len(theirs_log))
    assert len(stops) > 1


def test_bounded_brent_rows_random_cubics_match_scipy():
    rng = np.random.default_rng(20261019)
    c = rng.normal(size=(200, 4))
    a = rng.uniform(-3.0, 0.0, 200)
    b = a + rng.uniform(1e-6, 5.0, 200)

    def rows_f(x, rows):
        k = c[rows]
        return ((k[:, 0] * x + k[:, 1]) * x + k[:, 2]) * x + k[:, 3]

    xs, fxs = _optim._bounded_brent_rows(rows_f, a, b, 1e-12, 500)
    for j in range(200):
        def f(x, j=j):
            return ((c[j, 0] * x + c[j, 1]) * x + c[j, 2]) * x + c[j, 3]

        res = optimize.minimize_scalar(f, bounds=(a[j], b[j]),
                                       method="bounded",
                                       options={"xatol": 1e-12,
                                                "maxiter": 500})
        assert bits(xs[j]) == bits(res.x)
        assert bits(fxs[j]) == bits(f(xs[j]))


@pytest.mark.parametrize("a,b", [(1.0, 0.0), (-math.inf, 1.0),
                                 (0.0, math.inf), (math.nan, 1.0),
                                 (0.0, math.nan)])
def test_bad_bounds_raise_like_scipy(a, b):
    with pytest.raises(ValueError):
        optimize.minimize_scalar(lambda x: x * x, bounds=(a, b),
                                 method="bounded")
    with pytest.raises(ValueError):
        _optim.max_scalar(lambda x: -x * x, a, b)
    with pytest.raises(ValueError):
        min_scalar(lambda x: x * x, a, b)
    with pytest.raises(ValueError):
        _optim._bounded_brent_rows(lambda x, rows: x * x, [0.0, a],
                                   [1.0, b], 1e-12, 500)


# ---------------------------------------------------------------------------
# brentq and polish_root


def brentq(f, xa, xb, fa, fb, xtol, rtol, maxiter):
    """Brent's root finder on one problem, f a function of one float: one
    _brent_root run by _lockstep. The root, or None where it finds none;
    exceptions raised by f propagate."""
    return _optim._lockstep(
        [_optim._brent_root(xa, xb, fa, fb, xtol, rtol, maxiter)],
        lambda x, rows: [f(float(x[0]))])[0]


def scipy_polish_root(dphi, x, radius):
    """polish_root as it was built on brentq."""
    a, b = x - radius, x + radius
    try:
        fa, fb = dphi(a), dphi(b)
    except Exception:
        return x
    if not (np.isfinite(fa) and np.isfinite(fb)) or fa == fb:
        return x
    if fa * fb > 0.0:
        return x
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    try:
        return float(optimize.brentq(dphi, a, b, xtol=1e-15, rtol=1e-15,
                                     maxiter=200))
    except Exception:
        return x


def _raises_inside(x):
    if -0.5 < x < 0.5:
        raise ArithmeticError("no derivative here")
    return x


ROOT_CASES = {
    # name: (dphi, x, radius)
    "smooth_cubic": (lambda x: x ** 3 - 2.0, 1.2, 0.5),
    "smooth_exp": (lambda x: math.exp(x) - 3.0, 1.0, 0.3),
    "smooth_atan": (lambda x: math.atan(x - 0.123), 0.0, 2.0),
    "steep_tanh": (lambda x: math.tanh(50.0 * (x - 0.01)), 0.0, 1.0),
    "kink_sign": (lambda x: math.copysign(1.0, x - 0.3), 0.25, 0.2),
    "kink_slopes": (lambda x: (x - 0.3) if x < 0.3 else 3.0 * (x - 0.3),
                    0.2, 0.5),
    "pole_tan": (lambda x: -1.0 / math.tan(x), 1.5, 0.2),
    "flat_zero": (lambda x: 0.0, 0.5, 0.1),
    "no_sign_change": (lambda x: x * x + 1.0, 0.0, 1.0),
    "nan_inside": (lambda x: (x - 0.3) if abs(x) > 0.79 else math.nan,
                   0.2, 1.0),
    "nan_at_end": (lambda x: math.nan if x > 1.0 else x, 0.5, 0.6),
    "inf_at_end": (lambda x: math.inf if x > 1.0 else x - 0.5, 0.5, 0.6),
    "raises_inside": (_raises_inside, 0.1, 1.0),
    "root_at_left_end": (lambda x: x - 0.5, 0.75, 0.25),
    "root_at_right_end": (lambda x: x - 0.5, 0.25, 0.25),
    "sign_underflow_same": (lambda x: 1e-200 * (2.0 + x), 0.0, 1.0),
    "sign_underflow_opposite": (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),
    "negative_zero_end": (lambda x: -0.0 if x > 0.9 else x - 1.0, 0.5, 0.5),
    "tiny_values": (lambda x: 1e-300 * math.sin(x), 0.1, 0.5),
}


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
def test_polish_root_matches_brentq_bitwise(name):
    dphi, x, radius = ROOT_CASES[name]
    assert bits(_optim.polish_root(dphi, x, radius)) == \
        bits(scipy_polish_root(dphi, x, radius))


def rows_of(dphis):
    """dphi(x, rows) of polish_rows, row k's derivative dphis[k]."""
    return lambda x, rows: [dphis[k](v) for v, k in zip(x.tolist(),
                                                        rows.tolist())]


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
def test_polish_root_is_the_one_row_call_of_polish_rows(name):
    dphi, x, radius = ROOT_CASES[name]
    one = _optim.polish_rows(rows_of([dphi]), np.array([x]),
                             np.array([radius]))
    assert bits(_optim.polish_root(dphi, x, radius)) == bits(one[0])


def test_polish_rows_of_every_root_case_match_brentq_bitwise():
    # every case as one row of a single lockstep block
    cases = [ROOT_CASES[name] for name in sorted(ROOT_CASES)]
    got = _optim.polish_rows(rows_of([f for f, _, _ in cases]),
                             np.array([x for _, x, _ in cases]),
                             np.array([r for _, _, r in cases]))
    assert [bits(v) for v in got] == [bits(scipy_polish_root(*case))
                                      for case in cases]


@pytest.mark.parametrize("scale", [1.0, 1e-300])
def test_brentq_random_cubics_match_scipy(scale):
    # at scale 1e-300 the extrapolation denominator underflows to 0
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(1000):
        c = rng.normal(size=4)
        a = float(rng.uniform(-3.0, 0.0))
        b = a + float(rng.uniform(1e-3, 5.0))

        def f(x, c=c):
            return scale * (((c[0] * x + c[1]) * x + c[2]) * x + c[3])

        fa, fb = f(a), f(b)
        if math.copysign(1.0, fa) == math.copysign(1.0, fb):
            continue
        found += 1
        ours_log, theirs_log = [], []
        ours = brentq(recording(f, ours_log), a, b, fa, fb, 1e-15, 1e-15,
                      200)
        theirs = optimize.brentq(recording(f, theirs_log), a, b,
                                 xtol=1e-15, rtol=1e-15, maxiter=200)
        # scipy evaluates f(a) and f(b) itself; the port is handed them
        assert theirs_log[2:] == ours_log
        assert bits(ours) == bits(theirs)
    assert found > 200


@pytest.mark.parametrize("maxiter", [1, 3, 8])
def test_brentq_without_convergence_returns_none(maxiter):
    def f(x):
        return math.exp(x) - 3.0

    with pytest.raises(RuntimeError):
        optimize.brentq(f, 0.0, 2.0, xtol=1e-15, rtol=1e-15, maxiter=maxiter)
    assert brentq(f, 0.0, 2.0, f(0.0), f(2.0), 1e-15, 1e-15,
                  maxiter) is None


def test_brentq_same_sign_bits_return_none():
    # 1e-200 * 1e-200 underflows to 0, so only the sign bits tell
    def f(x):
        return 1e-200 * (2.0 + x)

    with pytest.raises(ValueError):
        optimize.brentq(f, 0.0, 1.0)
    assert brentq(f, 0.0, 1.0, f(0.0), f(1.0), 1e-15, 1e-15, 200) is None


def test_brentq_nan_returns_none():
    def f(x):
        return x - 0.3 if abs(x) > 0.79 else math.nan

    with pytest.raises(ValueError):
        optimize.brentq(f, -0.8, 1.2, xtol=1e-15, rtol=1e-15)
    assert brentq(f, -0.8, 1.2, f(-0.8), f(1.2), 1e-15, 1e-15,
                  200) is None
