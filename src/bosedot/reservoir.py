"""Infinitely extended free Bose gas with a condensate: thermodynamics,
generating functionals, and reduction to a finite mode grid.

Conventions.  The one-particle space is L^2(R^3, d^3k).  Momentum densities
carry the phase-space factor (2 pi)^{-3}; dimensionless thermal occupations do
not:

    occupation  n(k) = 1 / (e^{beta omega(k)} - 1),
    density     rho(k) = (2 pi)^{-3} n(k).

The critical density is rho_crit(beta) = (2 pi)^{-3} int d^3k n(k), with
closed forms zeta(3)/(pi^2 beta^3) for omega = |k| and
zeta(3/2) (4 pi beta)^{-3/2} for omega = |k|^2.  Above critical density the
equilibrium states decompose over extremal condensate states labelled by
xi = (r, theta): the radial part r is distributed with the exponential
density K(r) = e^{-(r - rho_crit)/rho0} / rho0 (r > rho_crit,
rho0 = rho_bar - rho_crit) and theta is uniform on the circle.

Weyl generating functionals are normalized so that a quasi-free gas at
occupation n gives E(f) = exp[-1/4 <f, (1 + 2 n) f>]; a condensate
contributes a Bessel J0 factor after averaging over theta.  Test functions
are FormFactor profiles read as f, with the carried zero-momentum value
f(0).  The critical density is a fixed Gauss rule; quad, imported where it
is called, does the radial integrals and the density equation below
critical.  A quadrature that quad flags, that misses its accuracy target
or whose integrand is not integrable at k = 0 raises QuadratureError.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .dot import CondensatePoint, PHASE_NORM

FOUR_PI3 = 4.0 * np.pi ** 3


class QuadratureError(RuntimeError):
    """A radial integral did not reach its accuracy target."""


# ---------------------------------------------------------------------------
# dispersion and form factor

@dataclass(frozen=True)
class Dispersion:
    """Isotropic dispersion relation, either omega = |k| or omega = |k|^2."""

    kind: str = "relativistic"

    def __post_init__(self):
        if self.kind not in ("relativistic", "nonrelativistic"):
            raise ValueError("dispersion kind must be relativistic or nonrelativistic")

    def omega(self, k):
        k = np.asarray(k, dtype=float)
        return k if self.kind == "relativistic" else k * k

    def k_of_omega(self, w):
        w = np.asarray(w, dtype=float)
        return w if self.kind == "relativistic" else np.sqrt(w)

    def dk_domega(self, w):
        w = np.asarray(w, dtype=float)
        if self.kind == "relativistic":
            return np.ones_like(w)
        return 0.5 / np.sqrt(w)


RELATIVISTIC = Dispersion("relativistic")
NONRELATIVISTIC = Dispersion("nonrelativistic")


@dataclass(frozen=True)
class FormFactor:
    """Radial coupling function g(k), complex valued, with its k = 0 value.

    profile must accept numpy arrays of k >= 0.  tail_cut bounds the support
    used by quadratures (the profile must be negligible beyond it).
    """

    profile: object
    g0: complex
    tail_cut: float = 50.0

    def at(self, k):
        return np.asarray(self.profile(np.asarray(k, dtype=float)), dtype=complex)

    @classmethod
    def gaussian(cls, amplitude=1.0, width=1.0):
        a, s = complex(amplitude), float(width)
        return cls(profile=lambda k: a * np.exp(-(k * k) / (2.0 * s * s)),
                   g0=a, tail_cut=14.0 * s)

    @staticmethod
    def power_law(amplitude=1.0, exponent=1.0, width=1.0):
        """g(k) = A k^p e^{-k^2 / (2 w^2)}; vanishes at k = 0 for p > 0."""
        a, p, s = complex(amplitude), float(exponent), float(width)
        if p <= -1.5:
            raise ValueError("exponent must exceed -3/2 for square integrability")
        g0 = a if p == 0 else 0.0 + 0.0j
        return FormFactor(profile=lambda k: a * np.power(np.maximum(k, 1e-300), p)
                          * np.exp(-(k * k) / (2.0 * s * s)),
                          g0=g0, tail_cut=14.0 * s)

    @staticmethod
    def from_csv(path):
        """Tabulated form factor: CSV columns k, Re g, Im g; zero beyond table."""
        tab = np.loadtxt(path, delimiter=",", comments="#")
        if tab.ndim != 2 or tab.shape[1] != 3:
            raise ValueError("form factor table needs columns k, Re g, Im g")
        k = tab[:, 0]
        if np.any(np.diff(k) <= 0) or k[0] < 0:
            raise ValueError("table nodes must be nonnegative and strictly increasing")
        re, im = tab[:, 1], tab[:, 2]

        def prof(kk):
            kk = np.asarray(kk, dtype=float)
            return (np.interp(kk, k, re, left=re[0], right=0.0)
                    + 1j * np.interp(kk, k, im, left=im[0], right=0.0))

        return FormFactor(profile=prof, g0=complex(re[0], im[0]) if k[0] == 0 else 0j,
                          tail_cut=float(k[-1]))

    def norm_sq(self):
        """|| g ||^2 over R^3 (radial measure 4 pi k^2 dk)."""
        return _radial(lambda k: 4.0 * np.pi * k * k * abs(self.at(k)) ** 2,
                       0.0, self.tail_cut, "norm")

    def weighted_norm_sq(self, weight, name="weighted norm"):
        """int 4 pi k^2 |g|^2 weight(k) dk for a scalar weight function."""
        return _radial(lambda k: 4.0 * np.pi * k * k * abs(self.at(k)) ** 2 * weight(k),
                       0.0, self.tail_cut, name)

    def check_infrared(self, dispersion):
        """|| g / sqrt(omega) ||^2, the domain condition for the interaction.

        The integrand 4 pi k^2 |g|^2 / omega behaves as k^s at k -> 0; for
        s <= -1 the integral diverges (logarithmically at s = -1, which quad
        does not flag), and QuadratureError is raised.  s is read off the
        integrand at k = 1e-10 and 1e-8, and within 1e-9 of -1 counts as -1.
        """
        def weight(k):
            return 1.0 / dispersion.omega(max(k, 1e-12))
        near, far = (k * k * abs(self.at(k)) ** 2 * weight(k)
                     for k in (1e-10, 1e-8))
        if near > 0 and far > 0:
            power = math.log(far / near) / math.log(100.0)
            if power <= -1.0 + 1e-9:
                raise QuadratureError(
                    f"radial integral diverges: integrand ~ k^{power:.3g} "
                    "at k -> 0")
        return self.weighted_norm_sq(weight, "infrared norm")


# ---------------------------------------------------------------------------
# scalar quadrature helpers

def _radial(fn, a, b, name):
    """int_a^b fn, or QuadratureError (say, for a divergent integrand) that
    names the integral and gives the first sentence of quad's warning."""
    from scipy.integrate import quad
    val, err, _, *failure = quad(fn, a, b, epsabs=1e-12, epsrel=1e-11,
                                 limit=200, full_output=1)
    if failure:
        sentence = " ".join(failure[0].split()).split(". ")[0].rstrip(".")
        raise QuadratureError(f"radial integral ({name}): {sentence}.")
    if err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureError(
            f"radial integral ({name}) error estimate {err:.2e} too large")
    return val


def excess_integral(fn, start, width):
    """int_start^inf fn, in the scaled excess u = (r - start) / width: a peak
    of width `width` at start is resolved however narrow it is.  Checked as
    _radial is, so a flagged integral raises QuadratureError."""
    return width * _radial(lambda u: fn(start + width * u), 0.0, np.inf, "Kac excess")


def occupation(beta, omega_value):
    """Dimensionless thermal occupation 1/(e^{beta omega} - 1)."""
    x = beta * omega_value
    if x <= 0:
        raise ValueError("beta * omega must be positive")
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def planck_density(beta, omega_value):
    """Phase-space density (2 pi)^{-3} / (e^{beta omega} - 1)."""
    return (2.0 * np.pi) ** (-3) * occupation(beta, omega_value)


def _thermal(beta, dispersion):
    """Thermal occupation as a function of |k|, zero at k = 0."""
    return lambda k: occupation(beta, float(dispersion.omega(k))) if k > 0 else 0.0


@functools.cache
def _scaled_shell_integral(dispersion):
    """int_0^inf u^2 / (e^{omega(u)} - 1) du, u = beta^{1/p} k for omega = |k|^p,
    by Gauss-Laguerre (p = 1, on u^2 / (1 - e^{-u})) or half of Gauss-Hermite
    (p = 2, on the even u^2 / (1 - e^{-u^2}); no node at u = 0) at two sizes:
    the larger, or QuadratureError when they differ by more than 1e-9 (they
    differ by 4e-14 relative for p = 1 and 1e-14 for p = 2)."""
    rule, sizes, factor = {
        "relativistic": (np.polynomial.laguerre.laggauss, (24, 32), 1.0),
        "nonrelativistic": (np.polynomial.hermite.hermgauss, (48, 64), 0.5),
    }[dispersion.kind]
    coarse, fine = (factor * np.sum(w * u * u / -np.expm1(-dispersion.omega(u)))
                    for u, w in map(rule, sizes))
    if abs(fine - coarse) > 1e-9:
        raise QuadratureError("critical density quadrature did not converge")
    return float(fine)


def critical_density(beta, dispersion=RELATIVISTIC):
    """rho_crit(beta) = (2 pi)^{-3} int d^3k / (e^{beta omega(k)} - 1).

    Radial reduction in the scaled momentum, so one fixed Gauss rule serves
    every beta.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    power = 3.0 if dispersion.kind == "relativistic" else 1.5
    return _scaled_shell_integral(dispersion) / (2.0 * np.pi ** 2 * beta ** power)


def _subcritical_occupation(beta, z, w):
    """z / (e^{beta omega} - z), written to stay stable for z near 1."""
    ez = z * math.exp(-beta * w)
    return ez / (1.0 - ez)


def fugacity(beta, rho_bar, dispersion=RELATIVISTIC):
    """Solve rho_bar = (2 pi)^{-3} int d^3k z/(e^{beta omega} - z) for z.

    Returns z in (0, 1) below critical density and exactly 1.0 at or above it.
    Its density integrals are checked as _radial's are, and a density that
    the integrals do not bracket in z raises QuadratureError as well.
    """
    if rho_bar < 0:
        raise ValueError("density must be nonnegative")
    if rho_bar == 0:
        return 0.0
    rc = critical_density(beta, dispersion)
    if rho_bar >= rc:
        return 1.0

    from scipy.optimize import brentq
    split = 1.0 / beta if dispersion.kind == "relativistic" else 1.0 / math.sqrt(beta)

    def dens(z):
        fn = lambda k: k * k * _subcritical_occupation(beta, z, dispersion.omega(k))
        return (2.0 * np.pi) ** (-3) * 4.0 * np.pi * sum(
            _radial(fn, a, b, "density equation")
            for a, b in ((0.0, split), (split, np.inf)))

    try:
        return brentq(lambda z: dens(z) - rho_bar, 1e-300, 1.0 - 1e-13,
                      xtol=1e-15, rtol=8.9e-16, maxiter=200)
    except ValueError:
        raise QuadratureError("density equation: rho_bar is above the density "
                              "at fugacity 1 - 1e-13, the largest solved "
                              "for.") from None


@dataclass(frozen=True)
class ReservoirThermo:
    """Resolved thermodynamic point of the gas at (beta, rho_bar)."""

    beta: float
    rho_bar: float
    dispersion: Dispersion
    rho_crit: float
    rho0: float
    z_inf: float

    @staticmethod
    def compute(beta, rho_bar, dispersion=RELATIVISTIC):
        rc = critical_density(beta, dispersion)
        rho0 = max(rho_bar - rc, 0.0)
        z = fugacity(beta, rho_bar, dispersion) if rho_bar < rc else 1.0
        return ReservoirThermo(beta=float(beta), rho_bar=float(rho_bar),
                               dispersion=dispersion, rho_crit=rc, rho0=rho0, z_inf=z)

    @property
    def supercritical(self):
        return self.rho_bar > self.rho_crit


def kac_density(r, beta, rho_bar, dispersion=RELATIVISTIC, rho_crit=None):
    """Density of the radial condensate distribution at total density rho_bar.

    e^{-(r - rho_crit)/rho0} / rho0 above critical, zero below; defined only
    for supercritical rho_bar.
    """
    rc = critical_density(beta, dispersion) if rho_crit is None else float(rho_crit)
    rho0 = rho_bar - rc
    if rho0 <= 0:
        raise ValueError("Kac density needs a supercritical total density")
    r = np.asarray(r, dtype=float)
    out = np.where(r >= rc, np.exp(-np.clip((r - rc) / rho0, 0, 700)) / rho0, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# condensate phase and measures over xi

def uniform_phase_average(f0, r, rho_crit):
    """Average of e^{-i Phi} over uniform theta, against its Bessel closed form.

    Returns (average, closed_form); the closed form is
    J0((2 pi)^{-3/2} sqrt(2 (r - rho_crit)) |f0|).  The periodic trapezoid
    average over 256 angles converges exponentially in the angle count.
    """
    thetas = 2.0 * np.pi * np.arange(256) / 256
    amp = PHASE_NORM * math.sqrt(2.0 * max(r - rho_crit, 0.0))
    phis = amp * (f0.real * np.cos(thetas) + f0.imag * np.sin(thetas))
    avg = np.mean(np.exp(-1j * phis))
    from scipy.special import j0
    return complex(avg), float(j0(amp * abs(f0)))


@dataclass(frozen=True)
class XiMeasure:
    """Finite quadrature measure on condensate points: ((xi, weight), ...).
    With uniform_circle the phases at each density stand for the uniform
    measure on the circle; without it they are atoms."""

    points: tuple
    uniform_circle: bool = False

    def __post_init__(self):
        if not self.points:
            raise ValueError("measure needs at least one point")
        w = np.array([p[1] for p in self.points], dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to one")

    @staticmethod
    def uniform_theta(r, n_theta=8):
        """The uniform circle at the radial density r, held as n_theta
        equally spaced phases of equal weight."""
        pts = tuple((CondensatePoint(r=r, theta=2.0 * np.pi * j / n_theta),
                     1.0 / n_theta) for j in range(n_theta))
        return XiMeasure(points=pts, uniform_circle=True)

    @staticmethod
    def kac_theta(beta, rho_bar, dispersion=RELATIVISTIC, n_r=8, n_theta=4):
        """Product measure: Gauss-Laguerre in the radial excess, the uniform
        circle in theta, held as n_theta phases per radial node.

        The radial weight e^{-s/rho0} ds / rho0 maps to the Laguerre weight
        after s = rho0 x, so nodes are r = rho_crit + rho0 x_i.
        """
        th = ReservoirThermo.compute(beta, rho_bar, dispersion)
        if not th.supercritical:
            raise ValueError("Kac measure needs a supercritical density")
        x, wx = np.polynomial.laguerre.laggauss(n_r)
        wx = wx / wx.sum()
        pts = tuple((CondensatePoint(r=th.rho_crit + th.rho0 * x_i,
                                     theta=2.0 * np.pi * j / n_theta),
                     w_i / n_theta) for x_i, w_i in zip(x, wx)
                    for j in range(n_theta))
        return XiMeasure(points=pts, uniform_circle=True)

    def phase_moments(self, r, h):
        """m(h) = int e^{i theta h} dnu(theta) on an integer array h, for the
        measure's weight nu over the phase at the density r: W_r at h = 0
        and 0 elsewhere on the uniform circle, else sum_j w_j e^{i theta_j h}
        over the atoms at r."""
        theta, w = np.array([(p.theta, wp) for p, wp in self.points
                             if p.r == r]).T
        if self.uniform_circle:
            return np.where(h == 0, w.sum(), 0.0)
        return np.exp(1j * np.multiply.outer(h, theta)) @ w


# ---------------------------------------------------------------------------
# test functions and generating functionals

class TestFunction(FormFactor):
    """Radial Weyl test function f: a FormFactor profile whose carried
    zero-momentum value g0 is read as f(0)."""

    @property
    def f0(self):
        return self.g0


def _gauss_exponent(f, occ):
    """1/4 <f, f> + 1/2 <f, n f> for the occupation n = occ(|k|)."""
    return 0.25 * f.norm_sq() + 0.5 * f.weighted_norm_sq(occ)


def generating_functional(f, thermo):
    """Expectation of the Weyl operator W(f) in the grand canonical state of
    the gas at the ReservoirThermo thermo: below critical the fugacity z
    solves the density equation, above critical the condensate factor
    e^{-4 pi^3 rho0 |f0|^2} appears.  The value has modulus at most one.
    """
    dispersion = thermo.dispersion
    if not thermo.supercritical:
        z = thermo.z_inf
        expo = _gauss_exponent(f, lambda k: _subcritical_occupation(
            thermo.beta, z, float(dispersion.omega(k))))
        return math.exp(-expo)
    expo = _gauss_exponent(f, _thermal(thermo.beta, dispersion))
    return math.exp(-expo) * math.exp(-FOUR_PI3 * thermo.rho0 * abs(f.f0) ** 2)


def kac_superposition_residual(f, beta, rho_bar, dispersion=RELATIVISTIC):
    """Residual of the radial-mixture identity for the condensed gas:

    int_0^inf K(r) E_canonical(beta, r)(f) dr  vs  E_grand_canonical(beta, rho_bar)(f).

    The Gaussian factor is r independent, so the left side is that factor
    times a Laplace transform of the Bessel factor in the excess, integrated
    here directly; only the right side goes through generating_functional.
    """
    th = ReservoirThermo.compute(beta, rho_bar, dispersion)
    if not th.supercritical:
        raise ValueError("identity is stated for supercritical density")
    from scipy.special import j0
    gauss = math.exp(-_gauss_exponent(f, _thermal(beta, dispersion)))
    c = math.sqrt(2.0 * (2.0 * np.pi) ** 3) * abs(f.f0)

    def integrand(s):
        return math.exp(-s / th.rho0) / th.rho0 * j0(c * math.sqrt(s))

    lhs = gauss * excess_integral(integrand, 0.0, th.rho0)
    rhs = generating_functional(f, th)
    return abs(lhs - rhs), lhs, rhs


# ---------------------------------------------------------------------------
# reduction to a finite mode grid

@dataclass(frozen=True)
class GridSpec:
    """Requested mode grid: count, frequency window, node spacing rule."""

    n_modes: int
    omega_max: float
    omega_min: float = None
    spacing: str = "linear"

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be linear or log")
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")
        if self.omega_min is None:
            lo = 0.0 if self.spacing == "linear" else self.omega_max / 100.0
            object.__setattr__(self, "omega_min", lo)
        if self.spacing == "log" and self.omega_min <= 0:
            raise ValueError("log spacing needs omega_min > 0")
        if self.omega_min >= self.omega_max:
            raise ValueError("omega_min must lie below omega_max")


@dataclass(frozen=True)
class ModeGrid:
    """Finite radial frequency grid with quadrature weights and couplings.

    couplings g_j absorb the angular measure and the dispersion Jacobian, so
    sum_j w_j |g_j|^2 approximates the full three-dimensional || g ||^2.  The
    zero-momentum coupling g0 rides along for the condensate sector.  Thermal
    occupations rho_j refer to the grid frequencies; the pairs

        (sqrt(1 + rho_j) g_j,   sqrt(rho_j) conj(g_j))

    are the left and right coupling functions of the doubled field, and the
    smearing vectors additionally absorb sqrt(w_j) so that discrete modes are
    canonical.
    """

    omegas: np.ndarray
    weights: np.ndarray
    couplings: np.ndarray
    beta: float
    dispersion: Dispersion
    spacing: str
    step: float
    g0: complex
    shifted: tuple = ()

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        if np.any(w <= 0):
            raise ValueError("mode frequencies must be strictly positive")
        if len(np.unique(w)) != len(w):
            raise ValueError("mode frequencies must be distinct")

    @property
    def n_modes(self):
        return len(self.omegas)

    @property
    def occupations(self):
        return 1.0 / np.expm1(self.beta * self.omegas)

    @property
    def left_pair(self):
        return np.sqrt(1.0 + self.occupations) * self.couplings

    @property
    def right_pair(self):
        return np.sqrt(self.occupations) * np.conj(self.couplings)

    @property
    def left_smearing(self):
        return np.sqrt(self.weights) * self.left_pair

    @property
    def right_smearing(self):
        return np.sqrt(self.weights) * self.right_pair

    def coupling_mass(self):
        """Discrete || g ||^2 = sum_j w_j |g_j|^2."""
        return float(np.sum(self.weights * np.abs(self.couplings) ** 2))

    def manifest(self):
        return {
            "n_modes": int(self.n_modes),
            "omega_min": float(self.omegas.min()),
            "omega_max": float(self.omegas.max()),
            "spacing": self.spacing,
            "step": float(self.step),
            "beta": float(self.beta),
            "dispersion": self.dispersion.kind,
            "g0": [float(np.real(self.g0)), float(np.imag(self.g0))],
            "coupling_mass": self.coupling_mass(),
            "shifted_nodes": list(self.shifted),
        }


def discretize(form_factor, beta, grid_spec, dispersion=RELATIVISTIC,
               bohr_frequencies=()):
    """Reduce the radial one-particle problem to a finite frequency grid.

    Midpoint composite rule in omega (linear) or log omega; for dispersion
    omega(k) the coupling at node j is

        g_j = g(k_j) k_j sqrt(4 pi dk/domega),

    which makes w_j |g_j|^2 the three-dimensional shell mass of |g|^2.

    Nodes within 1e-9 max(1, omega) of a dot Bohr frequency collide with
    it, and are shifted by half a step, which keeps the free-generator
    kernel at its intended dimension.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    gs = grid_spec
    if gs.spacing == "linear":
        edges = np.linspace(gs.omega_min, gs.omega_max, gs.n_modes + 1)
        nodes = 0.5 * (edges[1:] + edges[:-1])
        weights = np.diff(edges)
        step = float(weights[0])
    else:
        u = np.linspace(math.log(gs.omega_min), math.log(gs.omega_max),
                        gs.n_modes + 1)
        centers = 0.5 * (u[1:] + u[:-1])
        nodes = np.exp(centers)
        step = float(u[1] - u[0])
        weights = nodes * step

    bohr = np.asarray(bohr_frequencies, dtype=float)
    hit = np.any(np.abs(nodes[:, None] - bohr)
                 <= 1e-9 * np.maximum(1.0, nodes)[:, None], axis=1)
    if gs.spacing == "linear":
        nodes[hit] += 0.5 * step
    else:
        nodes[hit] *= math.exp(0.5 * step)
    shifted = tuple(np.flatnonzero(hit).tolist())

    k_nodes = dispersion.k_of_omega(nodes)
    jac = dispersion.dk_domega(nodes)
    couplings = form_factor.at(k_nodes) * k_nodes * np.sqrt(4.0 * np.pi * jac)
    return ModeGrid(omegas=nodes, weights=weights, couplings=couplings,
                    beta=float(beta), dispersion=dispersion, spacing=gs.spacing,
                    step=step, g0=complex(form_factor.g0), shifted=shifted)
