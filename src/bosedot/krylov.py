"""Action of exp(scale * H) on a vector for Hermitian H.

One algorithm at every dimension, dense or sparse H: a segmented Lanczos
iteration.  The scale is split into segments, each segment is approximated in
a small Krylov space with full reorthogonalization, and the whole computation
is verified by halving the segment length until two successive refinements
agree to the requested tolerance.  The scale may be complex, so the same
routine serves thermal weights (negative real scale) and unitary evolution
(imaginary scale).
"""

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from .fock import SolverConvergenceError

# largest Krylov space of one segment
M_MAX = 80
# segment halvings before the action is declared unstable
MAX_REFINE = 12


def _lanczos_segment(matvec, v, scale, tol):
    beta0 = np.linalg.norm(v)
    if beta0 == 0:
        return v.copy()
    basis = [v / beta0]
    alphas, betas = [], []
    for j in range(M_MAX):
        w = matvec(basis[j])
        a = float(np.real(np.vdot(basis[j], w)))
        alphas.append(a)
        w = w - a * basis[j]
        if j > 0:
            w = w - betas[-1] * basis[j - 1]
        for u in basis:
            w = w - np.vdot(u, w) * u
        b = np.linalg.norm(w)
        evals, q = eigh_tridiagonal(np.array(alphas), np.array(betas))
        small = q @ (np.exp(scale * evals) * q[0])
        if b < 1e-14 or abs(b * small[-1]) * abs(scale) < 0.1 * tol:
            break
        betas.append(b)
        basis.append(w / b)
    out = np.zeros_like(v)
    for c, u in zip(beta0 * small, basis):
        out = out + c * u
    return out


def _segmented(matvec, v, scale, tol, nseg):
    u = v
    for _ in range(nseg):
        u = _lanczos_segment(matvec, u, scale / nseg, tol)
    return u


def expm_action(matrix, v, scale, tol=1e-10):
    """exp(scale * matrix) v for Hermitian matrix, scale real or complex.

    The result verifies itself by segment halving: it is accepted once two
    successive segment counts agree within tol relative to the larger norm.
    """
    v = np.asarray(v, dtype=complex)
    matvec = (matrix.dot if sparse.issparse(matrix) else
              np.asarray(matrix).dot)
    nseg = 1
    prev = _segmented(matvec, v, scale, tol, nseg)
    for _ in range(MAX_REFINE):
        nseg *= 2
        cur = _segmented(matvec, v, scale, tol, nseg)
        scale_norm = max(np.linalg.norm(cur), np.linalg.norm(prev), 1e-300)
        if np.linalg.norm(cur - prev) <= tol * scale_norm:
            return cur
        prev = cur
    raise SolverConvergenceError(
        "matrix exponential action did not stabilize under segment halving")
