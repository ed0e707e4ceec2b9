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
occupation n gives E(f) = exp[-1/4 <f, (1 + 2 n) f>]; condensates contribute
either a Bessel J0 factor (after averaging) or a linear phase e^{-i Phi}
(extremal states).  All test functions used here are radial profiles with an
explicitly carried zero-momentum value f(0).
"""

from dataclasses import dataclass, field
import math

import numpy as np
from scipy import integrate
from scipy.special import j0

from .dot import CondensatePoint, PHASE_NORM

EIGHT_PI3 = 8.0 * np.pi ** 3
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
    label: str = "custom"

    def at(self, k):
        return np.asarray(self.profile(np.asarray(k, dtype=float)), dtype=complex)

    @staticmethod
    def gaussian(amplitude=1.0, width=1.0):
        a, s = complex(amplitude), float(width)
        return FormFactor(profile=lambda k: a * np.exp(-(k * k) / (2.0 * s * s)),
                          g0=a, tail_cut=14.0 * s, label="gaussian")

    @staticmethod
    def power_law(amplitude=1.0, exponent=1.0, width=1.0):
        """g(k) = A k^p e^{-k^2 / (2 w^2)}; vanishes at k = 0 for p > 0."""
        a, p, s = complex(amplitude), float(exponent), float(width)
        if p <= -1.5:
            raise ValueError("exponent must exceed -3/2 for square integrability")
        g0 = a if p == 0 else 0.0 + 0.0j
        return FormFactor(profile=lambda k: a * np.power(np.maximum(k, 1e-300), p)
                          * np.exp(-(k * k) / (2.0 * s * s)),
                          g0=g0, tail_cut=14.0 * s, label="power_law")

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
                          tail_cut=float(k[-1]), label="table")

    def norm_sq(self):
        """|| g ||^2 over R^3 (radial measure 4 pi k^2 dk)."""
        return _radial(lambda k: 4.0 * np.pi * k * k * abs(self.at(k)) ** 2,
                       0.0, self.tail_cut)

    def weighted_norm_sq(self, weight):
        """int 4 pi k^2 |g|^2 weight(k) dk for a scalar weight function."""
        return _radial(lambda k: 4.0 * np.pi * k * k * abs(self.at(k)) ** 2 * weight(k),
                       0.0, self.tail_cut)

    def check_infrared(self, dispersion):
        """|| g / sqrt(omega) ||^2, the domain condition for the interaction."""
        return self.weighted_norm_sq(lambda k: 1.0 / dispersion.omega(max(k, 1e-12)))


# ---------------------------------------------------------------------------
# scalar quadrature helpers

def _radial(fn, a, b, epsabs=1e-12, epsrel=1e-11, limit=200):
    val, err = integrate.quad(fn, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    if err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureError(f"radial integral error estimate {err:.2e} too large")
    return val


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


def critical_density(beta, dispersion=RELATIVISTIC):
    """rho_crit(beta) = (2 pi)^{-3} int d^3k / (e^{beta omega(k)} - 1).

    Radial reduction; the integrand k^2/(e^{beta omega}-1) is regular at the
    origin (it vanishes linearly for omega = |k| and approaches 1/beta for
    omega = |k|^2), so a split adaptive rule reaches absolute 1e-10 easily.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")

    def integrand(k):
        x = beta * dispersion.omega(k)
        if x > 700.0:
            # expm1 overflows; the occupation is e^{-x} to double precision
            return k * k * math.exp(-x)
        return k * k / math.expm1(x)

    split = 1.0 / beta if dispersion.kind == "relativistic" else 1.0 / math.sqrt(beta)
    head = integrate.quad(integrand, 0.0, split, epsabs=1e-13, epsrel=1e-12)
    tail = integrate.quad(integrand, split, np.inf, epsabs=1e-13, epsrel=1e-12)
    if head[1] + tail[1] > 1e-9:
        raise QuadratureError("critical density quadrature did not converge")
    return (2.0 * np.pi) ** (-3) * 4.0 * np.pi * (head[0] + tail[0])


def _subcritical_occupation(beta, z, w):
    """z / (e^{beta omega} - z), written to stay stable for z near 1."""
    ez = z * math.exp(-beta * w)
    return ez / (1.0 - ez)


def fugacity(beta, rho_bar, dispersion=RELATIVISTIC):
    """Solve rho_bar = (2 pi)^{-3} int d^3k z/(e^{beta omega} - z) for z.

    Returns z in (0, 1) below critical density and exactly 1.0 at or above it.
    """
    if rho_bar < 0:
        raise ValueError("density must be nonnegative")
    if rho_bar == 0:
        return 0.0
    rc = critical_density(beta, dispersion)
    if rho_bar >= rc:
        return 1.0

    def dens(z):
        fn = lambda k: k * k * _subcritical_occupation(beta, z, dispersion.omega(k))
        split = 1.0 / beta if dispersion.kind == "relativistic" else 1.0 / math.sqrt(beta)
        head = integrate.quad(fn, 0.0, split, epsabs=1e-13, epsrel=1e-11)[0]
        tail = integrate.quad(fn, split, np.inf, epsabs=1e-13, epsrel=1e-11)[0]
        return (2.0 * np.pi) ** (-3) * 4.0 * np.pi * (head + tail)

    from scipy.optimize import brentq
    return brentq(lambda z: dens(z) - rho_bar, 1e-300, 1.0 - 1e-13,
                  xtol=1e-15, rtol=8.9e-16, maxiter=200)


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

def phase(f0, xi, rho_crit):
    """Linear phase Phi picked up by a Weyl operator on an extremal state:

    Phi = (2 pi)^{-3/2} sqrt(2 (r - rho_crit)) (Re f0 cos theta + Im f0 sin theta).
    """
    if xi.r < rho_crit:
        raise ValueError("extremal state needs r >= rho_crit")
    amp = PHASE_NORM * math.sqrt(2.0 * (xi.r - rho_crit))
    return amp * (f0.real * math.cos(xi.theta) + f0.imag * math.sin(xi.theta))


def uniform_phase_average(f0, r, rho_crit, n_theta=256):
    """Average of e^{-i Phi} over uniform theta, against its Bessel closed form.

    Returns (average, closed_form); the closed form is
    J0((2 pi)^{-3/2} sqrt(2 (r - rho_crit)) |f0|).  The periodic trapezoid
    average converges exponentially in n_theta.
    """
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    amp = PHASE_NORM * math.sqrt(2.0 * max(r - rho_crit, 0.0))
    phis = amp * (f0.real * np.cos(thetas) + f0.imag * np.sin(thetas))
    avg = np.mean(np.exp(-1j * phis))
    return complex(avg), float(j0(amp * abs(f0)))


@dataclass(frozen=True)
class XiMeasure:
    """Finite quadrature measure on condensate points: ((xi, weight), ...)."""

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("measure needs at least one point")
        w = np.array([p[1] for p in self.points], dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to one")

    @staticmethod
    def single(xi):
        return XiMeasure(points=((xi, 1.0),))

    @staticmethod
    def uniform_theta(r, n_theta):
        """Uniform circle quadrature at fixed radial density r."""
        if n_theta < 1:
            raise ValueError("need at least one angle")
        w = 1.0 / n_theta
        pts = tuple((CondensatePoint(r=r, theta=2.0 * np.pi * j / n_theta), w)
                    for j in range(n_theta))
        return XiMeasure(points=pts)

    @staticmethod
    def kac_theta(beta, rho_bar, dispersion=RELATIVISTIC, n_r=24, n_theta=16):
        """Product quadrature: Gauss-Laguerre in the radial excess, uniform theta.

        The radial weight e^{-s/rho0} ds / rho0 maps to the Laguerre weight
        after s = rho0 x, so nodes are r = rho_crit + rho0 x_i.
        """
        th = ReservoirThermo.compute(beta, rho_bar, dispersion)
        if not th.supercritical:
            raise ValueError("Kac measure needs a supercritical density")
        x, wx = np.polynomial.laguerre.laggauss(n_r)
        wx = wx / wx.sum()
        pts = []
        for xi_r, wr in zip(x, wx):
            r = th.rho_crit + th.rho0 * xi_r
            for j in range(n_theta):
                pts.append((CondensatePoint(r=r, theta=2.0 * np.pi * j / n_theta),
                            wr / n_theta))
        return XiMeasure(points=tuple(pts))

    def mean_r(self):
        return sum(p.r * w for p, w in self.points)


# ---------------------------------------------------------------------------
# test functions and generating functionals

@dataclass(frozen=True)
class TestFunction:
    """Radial Weyl test function: profile f(k), carried f(0), support bound."""

    profile: object
    f0: complex
    tail_cut: float = 50.0
    label: str = "custom"

    def at(self, k):
        return np.asarray(self.profile(np.asarray(k, dtype=float)), dtype=complex)

    @staticmethod
    def gaussian(amplitude=1.0, width=1.0):
        a, s = complex(amplitude), float(width)
        return TestFunction(profile=lambda k: a * np.exp(-(k * k) / (2.0 * s * s)),
                            f0=a, tail_cut=14.0 * s, label="gaussian")

    def norm_sq(self):
        return _radial(lambda k: 4.0 * np.pi * k * k * abs(self.at(k)) ** 2,
                       0.0, self.tail_cut)

    def weighted_sq(self, weight):
        return _radial(lambda k: 4.0 * np.pi * k * k * abs(self.at(k)) ** 2 * weight(k),
                       0.0, self.tail_cut)


def _gauss_exponent(f, beta, dispersion, occupation_fn=None):
    """1/4 <f, f> + 1/2 <f, n f> with n the thermal (or given) occupation."""
    n = occupation_fn if occupation_fn is not None else (
        lambda k: occupation(beta, float(dispersion.omega(k))) if k > 0 else 0.0)
    return 0.25 * f.norm_sq() + 0.5 * f.weighted_sq(n)


def generating_functional(f, ensemble, beta=None, dispersion=RELATIVISTIC,
                          rho_bar=None, rho=None, rho0=None, xi=None,
                          occupation_fn=None, thermo=None):
    """Expectation of the Weyl operator W(f) in the requested gas state.

    ensemble:
      "araki_woods"     quasi-free state at thermal occupation (beta needed
                        unless occupation_fn is given) with condensate density
                        rho0 >= 0; Bessel factor J0(sqrt(2 (2 pi)^3 rho0) |f0|).
      "grand_canonical" mean density rho_bar; below critical the fugacity
                        z solves the density equation, above critical the
                        condensate factor e^{-4 pi^3 rho0 |f0|^2} appears.
      "canonical"       density rho; below critical identical to the grand
                        canonical state, above critical the Araki-Woods state
                        at rho0 = rho - rho_crit.
      "extremal"        one condensate point xi: Gaussian factor times the
                        linear phase e^{-i Phi(f, xi)}.

    Every value has modulus at most one.
    """
    if ensemble == "araki_woods":
        if rho0 is None or rho0 < 0:
            raise ValueError("araki_woods needs rho0 >= 0")
        expo = _gauss_exponent(f, beta, dispersion, occupation_fn)
        bessel = j0(math.sqrt(2.0 * (2.0 * np.pi) ** 3 * rho0) * abs(f.f0))
        return math.exp(-expo) * bessel

    if ensemble == "grand_canonical":
        th = thermo if thermo is not None else ReservoirThermo.compute(
            beta, rho_bar, dispersion)
        if not th.supercritical:
            z = th.z_inf
            expo = 0.25 * f.norm_sq() + 0.5 * f.weighted_sq(
                lambda k: _subcritical_occupation(th.beta, z, float(dispersion.omega(k))))
            return math.exp(-expo)
        expo = _gauss_exponent(f, th.beta, dispersion)
        return math.exp(-expo) * math.exp(-FOUR_PI3 * th.rho0 * abs(f.f0) ** 2)

    if ensemble == "canonical":
        th = thermo if thermo is not None else ReservoirThermo.compute(
            beta, rho if rho_bar is None else rho_bar, dispersion)
        if not th.supercritical:
            return generating_functional(f, "grand_canonical", thermo=th,
                                         dispersion=dispersion)
        return generating_functional(f, "araki_woods", beta=th.beta,
                                     dispersion=dispersion, rho0=th.rho0)

    if ensemble == "extremal":
        if xi is None or beta is None:
            raise ValueError("extremal needs beta and xi")
        rc = critical_density(beta, dispersion)
        expo = _gauss_exponent(f, beta, dispersion)
        return math.exp(-expo) * np.exp(-1j * phase(f.f0, xi, rc))

    raise ValueError(f"unknown ensemble {ensemble!r}")


def kac_superposition_residual(f, beta, rho_bar, dispersion=RELATIVISTIC):
    """Residual of the radial-mixture identity for the condensed gas:

    int_0^inf K(r) E_canonical(beta, r)(f) dr  vs  E_grand_canonical(beta, rho_bar)(f).

    The Gaussian factor is r independent, so the integral reduces to a Laplace
    transform of the Bessel factor; both sides are nevertheless evaluated
    through the public functionals.
    """
    th = ReservoirThermo.compute(beta, rho_bar, dispersion)
    if not th.supercritical:
        raise ValueError("identity is stated for supercritical density")
    gauss = math.exp(-_gauss_exponent(f, beta, dispersion))
    c = math.sqrt(2.0 * (2.0 * np.pi) ** 3) * abs(f.f0)

    def integrand(s):
        return math.exp(-s / th.rho0) / th.rho0 * j0(c * math.sqrt(s))

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-11,
                              limit=400)
    if err > 1e-9:
        raise QuadratureError("Kac superposition quadrature did not converge")
    lhs = gauss * val
    rhs = generating_functional(f, "grand_canonical", thermo=th, dispersion=dispersion)
    return abs(lhs - rhs), lhs, rhs


@dataclass(frozen=True)
class ClusterReport:
    """Spatial clustering of two Weyl operators at separation x."""

    x: float
    value: complex
    product: complex
    ratio: complex
    condensate_factor: complex


def two_point_cluster(f, g, x, beta, rho_bar=None, dispersion=RELATIVISTIC,
                      ensemble="grand_canonical", xi=None):
    """omega(W(f) W(g translated by x)) against the factorized product.

    For radial profiles the translation only enters through 1-D oscillatory
    overlaps (4 pi / x) int k sin(k x) conj(f) g [n] dk; the zero-momentum
    values add without any phase, which is what leaves the long-range
    condensate factor exp[-8 pi^3 rho0 Re(conj(f0) g0)] behind in the
    supercritical grand canonical state.  Extremal states and subcritical
    states cluster to factor one.
    """
    if x <= 0:
        raise ValueError("separation x must be positive")
    th = ReservoirThermo.compute(beta, rho_bar, dispersion) if rho_bar is not None \
        else None
    cut = min(f.tail_cut, g.tail_cut)

    def overlap(weight=None):
        def base(k):
            v = np.conj(f.at(k)) * g.at(k) * k
            if weight is not None:
                v = v * weight(k)
            return v
        re = integrate.quad(lambda k: float(np.real(base(k))), 0.0, cut,
                            weight="sin", wvar=x, limit=400)[0]
        im = integrate.quad(lambda k: float(np.imag(base(k))), 0.0, cut,
                            weight="sin", wvar=x, limit=400)[0]
        return (4.0 * np.pi / x) * (re + 1j * im)

    s_plain = overlap()
    weyl_phase = np.exp(-0.5j * s_plain.imag)
    f0_tot = f.f0 + g.f0

    if ensemble == "extremal":
        if xi is None:
            raise ValueError("extremal clustering needs xi")
        rc = critical_density(beta, dispersion)
        occ = lambda k: occupation(beta, float(dispersion.omega(k))) if k > 0 else 0.0
        s_th = overlap(occ)
        expo_f = _gauss_exponent(f, beta, dispersion)
        expo_g = _gauss_exponent(g, beta, dispersion)
        cross = 0.5 * s_plain.real + s_th.real
        value = weyl_phase * math.exp(-(expo_f + expo_g) - cross) \
            * np.exp(-1j * phase(f0_tot, xi, rc))
        product = generating_functional(f, "extremal", beta=beta, xi=xi,
                                        dispersion=dispersion) \
            * generating_functional(g, "extremal", beta=beta, xi=xi,
                                    dispersion=dispersion)
        factor = 1.0 + 0.0j
    elif ensemble == "grand_canonical":
        if th is None:
            raise ValueError("grand_canonical clustering needs rho_bar")
        if th.supercritical:
            occ = lambda k: occupation(beta, float(dispersion.omega(k))) if k > 0 else 0.0
            factor = complex(math.exp(-EIGHT_PI3 * th.rho0
                                      * (np.conj(f.f0) * g.f0).real))
            cond = math.exp(-FOUR_PI3 * th.rho0 * abs(f0_tot) ** 2)
        else:
            z = th.z_inf
            occ = lambda k: _subcritical_occupation(beta, z, float(dispersion.omega(k)))
            factor = 1.0 + 0.0j
            cond = 1.0
        s_th = overlap(occ)
        expo_f = 0.25 * f.norm_sq() + 0.5 * f.weighted_sq(occ)
        expo_g = 0.25 * g.norm_sq() + 0.5 * g.weighted_sq(occ)
        cross = 0.5 * s_plain.real + s_th.real
        value = weyl_phase * math.exp(-(expo_f + expo_g) - cross) * cond
        product = generating_functional(f, "grand_canonical", thermo=th,
                                        dispersion=dispersion) \
            * generating_functional(g, "grand_canonical", thermo=th,
                                    dispersion=dispersion)
    else:
        raise ValueError(f"unsupported ensemble {ensemble!r} for clustering")

    return ClusterReport(x=float(x), value=complex(value), product=complex(product),
                         ratio=complex(value / product),
                         condensate_factor=complex(factor))


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
               bohr_frequencies=(), resonance="shift", collision_tol=1e-9):
    """Reduce the radial one-particle problem to a finite frequency grid.

    Midpoint composite rule in omega (linear) or log omega; for dispersion
    omega(k) the coupling at node j is

        g_j = g(k_j) k_j sqrt(4 pi dk/domega),

    which makes w_j |g_j|^2 the three-dimensional shell mass of |g|^2.

    Nodes that collide with a dot Bohr frequency are shifted by half a step
    (resonance="shift", the default, keeping the free-generator kernel at its
    intended dimension), kept in place (resonance="keep"), or rejected
    (resonance="reject").
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
                 <= collision_tol * np.maximum(1.0, nodes)[:, None], axis=1)
    if resonance == "reject" and hit.any():
        raise ValueError(
            f"grid node {nodes[hit][0]} collides with a Bohr frequency")
    shifted = ()
    if resonance == "shift":
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


def resonance_weights(grid, gaps, half_width=None):
    """Coupling density seen by each dot gap: averaged |g|^2 mass per unit
    frequency in a window of the given half width around the gap.

    As the window and the grid spacing shrink together this converges to the
    angular shell integral of |g|^2 at the gap (for omega = |k|); a zero value
    flags an ineffective coupling at that transition.
    """
    if half_width is None:
        half_width = max(5.0 * grid.step, 1e-3)
    out = {}
    mass = grid.weights * np.abs(grid.couplings) ** 2
    for gap in gaps:
        sel = np.abs(grid.omegas - gap) < half_width
        out[float(gap)] = float(mass[sel].sum() / (2.0 * half_width))
    return out
