"""Finite-level quantum dot and the doubled-space objects built on it.

The dot is a d-level system with nondegenerate energies E_0 < ... < E_{d-1}
(default 0, 1, ..., d-1).  Its thermal doubled space is C^d (x) C^d with the
product basis phi_i (x) phi_j ordered as index i*d + j.  On that space live

* the dot part of the free Liouvillian,  H1 (x) 1 - 1 (x) H1,
* the normalized Gibbs vector  sum_j e^{-beta E_j / 2} phi_j (x) phi_j / sqrt(Z),
* the left half K^1_xi (x) 1 of the condensate-induced perturbation, a
  purely dot-local operator parametrized by a point xi = (r, theta) of the
  condensate phase space and by the zero-momentum coupling value g(0).

The right half 1 (x) conj(K^1_xi) is the image of the left half under the
swap-and-conjugate map, which the Liouvillian assembly applies to the whole
doubled space (liouville.swap_image).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DotSpec:
    """Dot dimension and energy levels.

    energies must be strictly increasing; the default ladder couplings are
    fixed nearest-neighbor shifts, independent of the energy values.
    """

    d: int
    energies: tuple = None

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError("dot dimension d must be a positive integer")
        if self.energies is None:
            object.__setattr__(self, "energies", tuple(float(j) for j in range(self.d)))
        else:
            e = tuple(float(x) for x in self.energies)
            if len(e) != self.d:
                raise ValueError("need exactly d energies")
            if any(b - a <= 0 for a, b in zip(e, e[1:])):
                raise ValueError("energies must be strictly increasing (nondegenerate)")
            object.__setattr__(self, "energies", e)

    @property
    def energy_array(self):
        return np.asarray(self.energies, dtype=float)

    def bohr_frequencies(self):
        """Sorted distinct positive transition frequencies E_i - E_j, i > j."""
        e = self.energy_array
        diffs = {round(float(ei - ej), 12) for i, ei in enumerate(e) for ej in e[:i]}
        return tuple(sorted(diffs))


@dataclass(frozen=True)
class CondensatePoint:
    """One extremal condensate state: radial density r and phase angle theta.

    r is an absolute particle density; it must weakly exceed the critical
    density of the reservoir it is used with, which is checked at use sites.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        # a config's integer phase is written back as the float it stands for
        object.__setattr__(self, "theta", float(self.theta))
        if not np.isfinite(self.r) or self.r < 0:
            raise ValueError("condensate density r must be finite and nonnegative")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")

    @staticmethod
    def from_excess(excess, rho_crit, theta=0.0):
        """Build the point with density rho_crit + excess."""
        if excess < 0:
            raise ValueError("density excess above critical must be nonnegative")
        return CondensatePoint(r=float(rho_crit) + float(excess), theta=theta)


def lower_raise(spec):
    """Ladder pair (G_minus, G_plus) with G_plus = ones on the subdiagonal.

    G_plus raises the level index by one, G_minus = G_plus^dagger lowers it,
    and H1 G_pm = G_pm (H1 pm 1) holds exactly for the default unit-spaced
    energies.
    """
    gp = np.zeros((spec.d, spec.d))
    for j in range(spec.d - 1):
        gp[j + 1, j] = 1.0
    return gp.T.copy(), gp


def doubled_free_part(spec):
    """H1 (x) 1 - 1 (x) H1 as a real diagonal of length d^2."""
    e = spec.energy_array
    return (e[:, None] - e[None, :]).reshape(-1)


def gibbs_vector(spec, beta):
    """Normalized thermal vector sum_j e^{-beta E_j / 2} phi_j (x) phi_j / sqrt(Z).

    The smallest energy is subtracted before exponentiation so large beta
    underflows gracefully instead of overflowing; beta = 0 gives the uniform
    maximally mixed purification.
    """
    if beta < 0 or not np.isfinite(beta):
        raise ValueError("beta must be finite and nonnegative")
    e = spec.energy_array
    w = np.exp(-0.5 * beta * (e - e.min()))
    coeff = w / np.sqrt(np.sum(w * w))
    vec = np.zeros(spec.d * spec.d)
    idx = np.arange(spec.d) * spec.d + np.arange(spec.d)
    vec[idx] = coeff
    return vec


PHASE_NORM = (2.0 * np.pi) ** (-1.5)


def condensate_block(spec, xi, rho_crit, g0):
    """Single-factor condensate coupling K^1_xi (d x d, Hermitian).

    K^1 = -2 (2 pi)^{-3/2} sqrt(r - rho_crit)
          (G_plus conj(g0) e^{i theta} + G_minus g0 e^{-i theta}).
    Vanishes when the density sits exactly at critical or when g(0) = 0.
    """
    if xi.r < rho_crit - 1e-15 * max(1.0, abs(rho_crit)):
        raise ValueError("condensate point density below critical density")
    excess = max(xi.r - rho_crit, 0.0)
    gm, gp = lower_raise(spec)
    amp = -2.0 * PHASE_NORM * np.sqrt(excess)
    return amp * (gp * (np.conj(g0) * np.exp(1j * xi.theta))
                  + gm * (g0 * np.exp(-1j * xi.theta)))


def condensate_left_term(spec, xi, rho_crit, g0):
    """Left-factor half K^1 (x) 1 of the doubled condensate term K_xi =
    K^1 (x) 1 - 1 (x) conj(K^1); the field factor is the identity and is
    attached by the Liouvillian assembly."""
    k1 = condensate_block(spec, xi, rho_crit, g0)
    return np.kron(k1, np.eye(spec.d))
