"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen once at import time from the env flag
DNEVOLVE_BACKEND (values: "numba", "numpy"; default "numba" when numba
imports, "numpy" otherwise). Both implementations compute identical
formulas.

Kernels here are the inner-loop costs of the solver: the Allen-Cahn grid
energy and gradient (called once per objective/gradient evaluation of the
proximal-gradient inner solver) and the two double-well nonlinearities.
"""

from __future__ import annotations

import os

import numpy as np

_requested = os.environ.get("DNEVOLVE_BACKEND", "numba").strip().lower()

HAS_NUMBA = False
if _requested != "numpy":
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False

BACKEND = "numba" if HAS_NUMBA else "numpy"


# quartic well W(s) = (s^2-1)^2/4 and W'(s) = s(s^2-1): the Allen-Cahn
# on-site nonlinearity


def _quartic_well_np(u):
    s = u * u - 1.0
    return 0.25 * s * s


def _quartic_well_prime_np(u):
    return u * (u * u - 1.0)


def _ac_energy_np(u: np.ndarray, dx: float, q: float, load: np.ndarray) -> float:
    # forward differences with ghost zeros at both ends (Dirichlet)
    g = np.empty(u.shape[0] + 1)
    g[0] = u[0] / dx
    g[1:-1] = (u[1:] - u[:-1]) / dx
    g[-1] = -u[-1] / dx
    grad_term = np.sum(np.abs(g) ** q) * dx / q
    well_term = np.sum(_quartic_well_np(u)) * dx
    load_term = np.dot(load, u) * dx
    return float(grad_term + well_term - load_term)


def _ac_grad_np(u: np.ndarray, dx: float, q: float, load: np.ndarray) -> np.ndarray:
    g = np.empty(u.shape[0] + 1)
    g[0] = u[0] / dx
    g[1:-1] = (u[1:] - u[:-1]) / dx
    g[-1] = -u[-1] / dx
    if q == 2.0:
        beta = g
    else:
        # sign(g) |g|^(q-1): the well-defined form of |g|^(q-2) g at g = 0
        beta = np.sign(g) * np.abs(g) ** (q - 1.0)
    out = beta[:-1] - beta[1:]
    out += (_quartic_well_prime_np(u) - load) * dx
    return out


if HAS_NUMBA:

    @njit(cache=True, fastmath=False)
    def _ac_energy_nb(u, dx, q, load):  # pragma: no cover - jitted
        n = u.shape[0]
        grad_term = 0.0
        prev = 0.0
        for i in range(n + 1):
            cur = u[i] if i < n else 0.0
            gi = (cur - prev) / dx
            grad_term += abs(gi) ** q
            prev = cur
        grad_term *= dx / q
        well = 0.0
        work = 0.0
        for i in range(n):
            s = u[i] * u[i] - 1.0
            well += 0.25 * s * s
            work += load[i] * u[i]
        return grad_term + (well - work) * dx

    @njit(cache=True, fastmath=False)
    def _ac_grad_nb(u, dx, q, load):  # pragma: no cover - jitted
        n = u.shape[0]
        out = np.empty(n)
        prev = 0.0
        beta_prev = 0.0
        for i in range(n + 1):
            cur = u[i] if i < n else 0.0
            gi = (cur - prev) / dx
            if q == 2.0:
                beta = gi
            elif gi >= 0.0:
                beta = gi ** (q - 1.0)
            else:
                beta = -((-gi) ** (q - 1.0))
            if i > 0:
                out[i - 1] = beta_prev - beta
            beta_prev = beta
            prev = cur
        for i in range(n):
            out[i] += (u[i] * (u[i] * u[i] - 1.0) - load[i]) * dx
        return out

    ac_energy = _ac_energy_nb
    ac_grad = _ac_grad_nb
else:
    ac_energy = _ac_energy_np
    ac_grad = _ac_grad_np

# numpy reference implementations stay importable under both backends so the
# benchmark (and tests) can compare them directly
ac_energy_numpy = _ac_energy_np
ac_grad_numpy = _ac_grad_np


def double_well(eta):
    """Piecewise-quadratic double well:

        W(eta) = (eta+1)^2        for eta < -1/2
                 -eta^2 + 1/2     for |eta| <= 1/2
                 (eta-1)^2        for eta > 1/2

    Continuous at +-1/2 (both branches give 1/4); wells at eta = +-1.
    Vectorized over eta.
    """
    e = np.asarray(eta, dtype=float)
    out = np.where(
        e < -0.5,
        (e + 1.0) ** 2,
        np.where(e > 0.5, (e - 1.0) ** 2, 0.5 - e * e),
    )
    return out if out.ndim else float(out)


def double_well_prime(eta):
    """Branch derivative of double_well: 2(eta+1) / -2 eta / 2(eta-1)."""
    e = np.asarray(eta, dtype=float)
    out = np.where(
        e < -0.5,
        2.0 * (e + 1.0),
        np.where(e > 0.5, 2.0 * (e - 1.0), -2.0 * e),
    )
    return out if out.ndim else float(out)
