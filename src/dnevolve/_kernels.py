"""Hot numeric kernels, in numpy.

These are the inner-loop costs of the solver: the Allen-Cahn grid energy
and gradient (called once per objective/gradient evaluation of the
proximal-gradient inner solver, which computes their shared grid terms
once per state, for every row of a row batch of step problems in one
call) and the piecewise-quadratic double well of PhaseField1D. numpy is
the only backend, so one config writes the same bytes wherever it runs;
BACKEND names it for benchmark records.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _forward_diff(u: np.ndarray, dx: float, buf=None) -> np.ndarray:
    """D+ u with ghost zeros at both ends (Dirichlet): N + 1 differences
    along the last axis, of a state (N,) or of each row of a (B, N) array.
    The states go in the middle of a ghost_buffer, so the differences are
    one subtraction; buf, if given, is one for u's shape, reused from call
    to call."""
    if buf is None:
        buf = ghost_buffer(u.shape)
    buf[..., 1:-1] = u
    return (buf[..., 1:] - buf[..., :-1]) / dx


def ghost_buffer(shape) -> np.ndarray:
    """The buffer _forward_diff puts states of the given shape in: their
    last axis padded with the ghosts +0.0 and -0.0, so that the end
    differences are u[0] / dx and -u[-1] / dx bit for bit, the sign of a
    zero included."""
    buf = np.zeros(shape[:-1] + (shape[-1] + 2,))
    buf[..., -1] = -0.0
    return buf


def ac_terms(u: np.ndarray, dx: float, buf=None):
    """The grid terms that ac_energy and ac_grad share: D+ u and u^2 - 1.
    A caller that needs both at one state computes them once and passes
    them to each."""
    return _forward_diff(u, dx, buf), u * u - 1.0


# the Allen-Cahn on-site nonlinearity is the quartic well
# W(s) = (s^2-1)^2/4, with W'(s) = s(s^2-1)
#
# Both kernels take a state u of shape (N,), with a load of shape (N,), or
# B states as the rows of a (B, N) array, with a load of shape (B, N): a
# state gives a float energy, plus the constant offset, and an (N,)
# gradient, rows a list of B energies and a (B, N) array. Each row gets
# the bits of its one-state call: the sums over the last axis are
# np.add.reduce's pairwise sums of that row, and np.vecdot is np.dot per
# row.


def ac_energy(u: np.ndarray, dx: float, q: float, load: np.ndarray,
              offset: float, terms=None):
    g, s = ac_terms(u, dx) if terms is None else terms
    # np.add.reduce is ndarray.sum without its Python frame: the same sum.
    # |g|^2 is g * g, and sum(s^2 / 4) dx is sum(s^2) (dx / 4) bit for bit:
    # s = u^2 - 1 is 0 or at least 2^-53 in size, so every term and
    # partial sum is a normal number, which a power of two scales exactly.
    # The sums of a row combine on Python floats, as cheap as numpy
    # scalars and cheaper than arrays of a few rows
    c = 0.25 * dx
    grad = np.add.reduce(g * g if q == 2.0 else np.abs(g) ** q, -1).tolist()
    well = np.add.reduce(s * s, -1).tolist()
    pairing = np.vecdot(load, u).tolist()
    if u.ndim == 1:
        return grad * dx / q + well * c - pairing * dx + offset
    return [a * dx / q + b * c - f * dx + offset
            for a, b, f in zip(grad, well, pairing)]


def ac_grad(u: np.ndarray, dx: float, q: float, load: np.ndarray,
            terms=None) -> np.ndarray:
    g, s = ac_terms(u, dx) if terms is None else terms
    if q == 2.0:
        beta = g
    else:
        # sign(g) |g|^(q-1): the well-defined form of |g|^(q-2) g at g = 0
        beta = np.sign(g) * np.abs(g) ** (q - 1.0)
    out = beta[..., :-1] - beta[..., 1:]
    out += (u * s - load) * dx
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
