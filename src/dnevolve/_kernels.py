"""Hot numeric kernels, in numpy.

These are the inner-loop costs of the solver: the Allen-Cahn grid energy
and gradient (called once per objective/gradient evaluation of the
proximal-gradient inner solver) and the piecewise-quadratic double well of
PhaseField1D. numpy is the only backend, so one config writes the same
bytes wherever it runs; BACKEND names it for benchmark records.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


# quartic well W(s) = (s^2-1)^2/4 and W'(s) = s(s^2-1): the Allen-Cahn
# on-site nonlinearity


def _quartic_well(u):
    s = u * u - 1.0
    return 0.25 * s * s


def _quartic_well_prime(u):
    return u * (u * u - 1.0)


def _forward_diff(u: np.ndarray, dx: float) -> np.ndarray:
    """D+ u with ghost zeros at both ends (Dirichlet): N + 1 differences."""
    g = np.empty(u.shape[0] + 1)
    g[0] = u[0] / dx
    g[1:-1] = (u[1:] - u[:-1]) / dx
    g[-1] = -u[-1] / dx
    return g


def ac_energy(u: np.ndarray, dx: float, q: float, load: np.ndarray) -> float:
    g = _forward_diff(u, dx)
    # ndarray.sum is np.sum without its Python wrapper: the same sum
    grad_term = (np.abs(g) ** q).sum() * dx / q
    well_term = _quartic_well(u).sum() * dx
    load_term = np.dot(load, u) * dx
    return float(grad_term + well_term - load_term)


def ac_grad(u: np.ndarray, dx: float, q: float, load: np.ndarray) -> np.ndarray:
    g = _forward_diff(u, dx)
    if q == 2.0:
        beta = g
    else:
        # sign(g) |g|^(q-1): the well-defined form of |g|^(q-2) g at g = 0
        beta = np.sign(g) * np.abs(g) ** (q - 1.0)
    out = beta[:-1] - beta[1:]
    out += (_quartic_well_prime(u) - load) * dx
    return out


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
