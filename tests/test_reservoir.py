import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import zeta

import bosedot as bd
from bosedot.reservoir import (occupation, planck_density, critical_density,
                               fugacity, kac_density, uniform_phase_average,
                               kac_superposition_residual,
                               generating_functional, ReservoirThermo,
                               TestFunction as WeylFunction)
from bosedot.dot import CondensatePoint


def test_occupation_half_filling():
    # e^{beta omega} = 2 puts exactly one particle per phase-space cell
    assert occupation(1.0, math.log(2.0)) == pytest.approx(1.0, abs=1e-15)
    assert occupation(2.0, 0.5 * math.log(2.0)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        occupation(1.0, 0.0)


def test_occupation_deep_quantum_tail():
    # far beyond the expm1 overflow threshold the Boltzmann tail survives
    assert occupation(1.0, 650.0) == pytest.approx(math.exp(-650.0), rel=1e-12)
    assert occupation(1.0, 1e6) == 0.0


def test_planck_density_value():
    val = planck_density(1.0, 1.0)
    ref = (2.0 * np.pi) ** (-3) / (math.e - 1.0)
    assert val == pytest.approx(ref, rel=1e-14)
    assert val == pytest.approx(2.34622e-3, rel=1e-4)


def test_critical_density_closed_forms():
    beta = 0.9
    rel = critical_density(beta, bd.RELATIVISTIC)
    assert rel == pytest.approx(zeta(3.0) / (np.pi ** 2 * beta ** 3), rel=1e-10)
    nonrel = critical_density(beta, bd.NONRELATIVISTIC)
    assert nonrel == pytest.approx(zeta(1.5) * (4.0 * np.pi * beta) ** (-1.5),
                                   rel=1e-8)


@pytest.mark.parametrize("kind", ["relativistic", "nonrelativistic"])
def test_critical_density_matches_closed_form_and_quad(kind):
    # the fixed Gauss rule against the zeta closed forms and against the
    # adaptive rule it replaced: quad in k, split where beta omega = 1
    disp = bd.Dispersion(kind)
    for beta in (0.05, 0.5, 1.0, 2.0, 20.0):
        rc = critical_density(beta, disp)
        if kind == "relativistic":
            closed = zeta(3.0) / (np.pi ** 2 * beta ** 3)
        else:
            closed = zeta(1.5) * (4.0 * np.pi * beta) ** (-1.5)

        def shell(k):
            x = beta * float(disp.omega(k))
            return k * k * math.exp(-x) / -math.expm1(-x) if k > 0 else 0.0

        split = float(disp.k_of_omega(1.0 / beta))
        ref = sum(integrate.quad(shell, a, b, epsabs=0.0, epsrel=1e-13,
                                 limit=200)[0]
                  for a, b in ((0.0, split), (split, np.inf))) / (2 * np.pi ** 2)
        assert rc == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert rc == pytest.approx(ref, rel=1e-13 if beta == 1.0 else 1e-12,
                                   abs=0.0)


def test_fugacity_against_polylog():
    beta, rho_bar = 1.3, 0.02
    z = fugacity(beta, rho_bar, bd.RELATIVISTIC)
    assert 0.0 < z < 1.0
    # Li_3(z) / (pi^2 beta^3) is the independent series form of the density
    n = np.arange(1, 400)
    li3 = np.sum(z ** n / n ** 3)
    assert li3 / (np.pi ** 2 * beta ** 3) == pytest.approx(rho_bar, rel=1e-9)


def test_fugacity_saturates_at_critical():
    beta = 1.0
    rc = critical_density(beta)
    assert fugacity(beta, rc * 1.5) == 1.0
    assert fugacity(beta, 0.0) == 0.0


def test_kac_density_normalization_and_mean():
    beta, rho_bar = 1.0, 0.5
    rc = critical_density(beta)
    assert rho_bar > rc
    norm = integrate.quad(lambda r: kac_density(r, beta, rho_bar), 0, np.inf,
                          limit=200)[0]
    assert norm == pytest.approx(1.0, abs=1e-8)
    mean = integrate.quad(lambda r: r * kac_density(r, beta, rho_bar), 0,
                          np.inf, limit=200)[0]
    assert mean == pytest.approx(rho_bar, abs=1e-8)
    assert kac_density(rc / 2.0, beta, rho_bar) == 0.0
    with pytest.raises(ValueError):
        kac_density(1.0, beta, rc / 2.0)


def test_uniform_phase_average_matches_bessel():
    avg, closed = uniform_phase_average(0.7 + 0.4j, r=0.9, rho_crit=0.1)
    assert abs(avg - closed) < 1e-10
    assert abs(avg.imag) < 1e-10


def test_xi_measures():
    m = bd.XiMeasure.uniform_theta(r=0.5, n_theta=8)
    assert len(m.points) == 8
    assert sum(w for _, w in m.points) == pytest.approx(1.0, abs=1e-12)
    assert sum(p.r * w for p, w in m.points) == pytest.approx(0.5)
    # the uniform circle has no moment at h != 0; its 8 phases read as
    # atoms have one at h = 8
    h = np.array([0, 1, -3, 8])
    np.testing.assert_array_equal(m.phase_moments(0.5, h), [1, 0, 0, 0])
    np.testing.assert_allclose(bd.XiMeasure(points=m.points).phase_moments(
        0.5, h), [1.0, 0.0, 0.0, 1.0], atol=1e-15)

    beta, rho_bar = 1.0, 0.4
    mk = bd.XiMeasure.kac_theta(beta, rho_bar, n_r=24, n_theta=4)
    # Laguerre quadrature integrates the linear moment exactly
    mean_r = sum(p.r * w for p, w in mk.points)
    assert mean_r == pytest.approx(rho_bar, rel=1e-10)

    with pytest.raises(ValueError):
        bd.XiMeasure(points=((CondensatePoint(r=1.0), 0.5),))
    with pytest.raises(ValueError, match="at least one point"):
        bd.XiMeasure.uniform_theta(r=0.5, n_theta=0)


def test_generating_functional_bounds_and_identities():
    # the grand canonical state below and above the critical density
    f = WeylFunction.gaussian(0.6, 1.2)
    beta = 1.0
    rc = critical_density(beta)
    sub = ReservoirThermo.compute(beta, rc / 3.0)
    sup = ReservoirThermo.compute(beta, rc + 0.3)
    for th in (sub, sup):
        assert 0.0 < generating_functional(f, th) <= 1.0

    def gaussian_factor(occ):
        # exp[-1/4 <f, (1 + 2 n) f>] for the occupation n = occ(k), with
        # <f, f> = a^2 pi^{3/2} s^3 for f = a e^{-k^2 / (2 s^2)}
        thermal = integrate.quad(
            lambda k: 4.0 * math.pi * k * k * abs(complex(f.at(k))) ** 2
            * occ(k), 0.0, f.tail_cut, epsabs=1e-13, limit=200)[0]
        return math.exp(-0.25 * 0.6 ** 2 * math.pi ** 1.5 * 1.2 ** 3
                        - 0.5 * thermal)

    # below critical: the occupation z / (e^{beta omega} - z) at the fugacity
    z = sub.z_inf
    assert 0.0 < z < 1.0
    assert generating_functional(f, sub) == pytest.approx(
        gaussian_factor(lambda k: z / (math.exp(beta * k) - z)), rel=1e-10)
    # above critical: the Planck occupation times the condensate factor
    # e^{-4 pi^3 rho0 |f0|^2}
    condensate = math.exp(-4.0 * math.pi ** 3 * sup.rho0 * abs(f.f0) ** 2)
    assert condensate < 0.5
    assert generating_functional(f, sup) == pytest.approx(
        gaussian_factor(lambda k: occupation(beta, k)) * condensate, rel=1e-10)


def test_kac_superposition_identity():
    f = WeylFunction.gaussian(1.0, 1.0)
    resid, lhs, rhs = kac_superposition_residual(f, 1.0, 0.5)
    assert resid < 1e-8
    assert 0.0 < rhs <= 1.0


@pytest.mark.parametrize("rho_bar", [0.3, 1.0, 3.0])
def test_kac_superposition_identity_relative_on_order_one_sides(rho_bar):
    # amplitude 0.1 keeps both sides of order one (0.77, 0.33, 0.027), well
    # above the radial integrals' absolute tolerance, so the relative gap is
    # a check of the identity itself
    f = WeylFunction.gaussian(0.1, 1.0)
    resid, lhs, rhs = kac_superposition_residual(f, 1.0, rho_bar)
    assert 0.02 < rhs < 1.0
    assert resid < 1e-12 * abs(rhs)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        bd.GridSpec(n_modes=0, omega_max=1.0)
    with pytest.raises(ValueError):
        bd.GridSpec(n_modes=2, omega_max=1.0, spacing="cubic")
    with pytest.raises(ValueError):
        bd.GridSpec(n_modes=2, omega_max=1.0, omega_min=2.0)
    log = bd.GridSpec(n_modes=2, omega_max=1.0, spacing="log")
    assert log.omega_min == pytest.approx(0.01)


def test_discretize_linear_midpoints(gauss_ff):
    gs = bd.GridSpec(n_modes=4, omega_max=2.0)
    grid = bd.discretize(gauss_ff, 1.0, gs)
    np.testing.assert_allclose(grid.omegas, [0.25, 0.75, 1.25, 1.75])
    np.testing.assert_allclose(grid.weights, 0.5)
    assert grid.shifted == ()


def test_discretize_coupling_mass_matches_shell_norm(gauss_ff):
    # sum w_j |g_j|^2 over the full window reproduces || g ||^2 over R^3;
    # the integrand is even with dead endpoints, so the midpoint rule is
    # accurate beyond all polynomial orders already at modest n
    target = gauss_ff.norm_sq()
    gs = bd.GridSpec(n_modes=40, omega_max=14.0)
    mass = bd.discretize(gauss_ff, 1.0, gs).coupling_mass()
    assert mass == pytest.approx(target, rel=1e-12)
    # a short window misses the closed-form Gaussian tail (up to the live
    # right-endpoint h^2 correction of the midpoint rule)
    short = bd.discretize(gauss_ff, 1.0, bd.GridSpec(n_modes=200, omega_max=2.0))
    tail = np.pi ** 1.5 * math.erfc(2.0) + 4.0 * np.pi * math.exp(-4.0)
    assert target - short.coupling_mass() == pytest.approx(tail, rel=1e-4)


@pytest.mark.parametrize("spacing, omega_min, order, bound", [
    ("log", 0.05, 2.0, 2e-5), ("linear", 0.0, 1.5, 3e-4)])
def test_discretize_nonrelativistic_coupling_mass_converges(
        gauss_ff, spacing, omega_min, order, bound):
    # with omega = k^2 the grid carries dk/domega = 1 / (2 sqrt(omega)); the
    # mass on [omega_min, 3] is int 4 pi k^2 |g|^2 dk over [sqrt(omega_min),
    # sqrt(3)].  The log grid's midpoint rule is of order 2; on the linear
    # grid from 0 the sqrt(omega) of the integrand leaves order 1.5
    target = integrate.quad(
        lambda k: 4.0 * np.pi * k * k * abs(complex(gauss_ff.at(k))) ** 2,
        math.sqrt(omega_min), math.sqrt(3.0), epsabs=0.0, epsrel=1e-13)[0]
    errors = []
    for n in (40, 80, 160):
        grid = bd.discretize(gauss_ff, 1.0,
                             bd.GridSpec(n, 3.0, omega_min, spacing),
                             bd.NONRELATIVISTIC)
        errors.append(abs(grid.coupling_mass() - target) / target)
    rates = np.log2(np.array(errors[:-1]) / errors[1:])
    np.testing.assert_allclose(rates, order, atol=0.02)
    assert errors[-1] < bound


def test_discretize_resonance_shift(gauss_ff):
    # 2 cells on [0, 4] put a node exactly on the unit Bohr gap
    gs = bd.GridSpec(n_modes=2, omega_max=4.0)
    hit = bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=())
    assert np.any(np.abs(hit.omegas - 1.0) < 1e-12)
    moved = bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=(1.0,))
    assert np.all(np.abs(moved.omegas - 1.0) > 1e-3)
    assert moved.shifted != ()


def test_discretize_resonance_log_grid(gauss_ff):
    # 3 log cells on [0.25, 4] put the middle node on the unit Bohr gap
    gs = bd.GridSpec(n_modes=3, omega_max=4.0, omega_min=0.25, spacing="log")
    kept = bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=())
    assert kept.omegas[1] == pytest.approx(1.0, rel=1e-14)
    assert kept.shifted == ()
    moved = bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=(1.0,))
    assert moved.shifted == (1,)
    assert moved.omegas[1] == kept.omegas[1] * math.exp(0.5 * kept.step)
    np.testing.assert_array_equal(moved.omegas[[0, 2]], kept.omegas[[0, 2]])


def test_smearing_channels_unit_difference(grid2):
    # (1 + rho) - rho = 1 per mode: the channel split preserves the shell mass
    left = np.abs(grid2.left_smearing) ** 2
    right = np.abs(grid2.right_smearing) ** 2
    mass = grid2.weights * np.abs(grid2.couplings) ** 2
    np.testing.assert_allclose(left - right, mass, rtol=1e-13)


def test_resonance_weights_density(gauss_ff):
    gs = bd.GridSpec(n_modes=400, omega_max=4.0)
    grid = bd.discretize(gauss_ff, 1.0, gs)
    # the coupling weight within delta of the gap, per unit frequency,
    # approaches the angular shell integral at the gap
    delta = 0.05
    sel = np.abs(grid.omegas - 1.0) < delta
    dens = np.sum(grid.weights[sel] * np.abs(grid.couplings[sel]) ** 2) \
        / (2.0 * delta)
    k = bd.RELATIVISTIC.k_of_omega(1.0)
    shell = 4.0 * np.pi * k ** 2 * abs(gauss_ff.at(k)) ** 2 \
        * bd.RELATIVISTIC.dk_domega(1.0)
    assert dens == pytest.approx(float(shell), rel=2e-3)


def test_form_factor_from_csv_roundtrip(tmp_path):
    k = np.linspace(0.0, 5.0, 21)
    g = 0.7 * np.exp(-k)
    path = tmp_path / "ff.csv"
    np.savetxt(path, np.column_stack([k, g, 0.0 * g]), delimiter=",")
    ff = bd.FormFactor.from_csv(path)
    assert ff.g0 == pytest.approx(0.7)
    assert ff.at(1.0) == pytest.approx(0.7 * math.exp(-1.0), rel=1e-6)
    assert ff.at(10.0) == 0.0


def test_infrared_norm_finite(gauss_ff):
    val = gauss_ff.check_infrared(bd.RELATIVISTIC)
    assert np.isfinite(val) and val > 0


def test_thermo_compute_branches():
    beta = 1.0
    rc = critical_density(beta)
    sub = ReservoirThermo.compute(beta, rc / 2.0)
    assert not sub.supercritical and 0 < sub.z_inf < 1 and sub.rho0 == 0.0
    sup = ReservoirThermo.compute(beta, rc + 0.2)
    assert sup.supercritical and sup.z_inf == 1.0
    assert sup.rho0 == pytest.approx(0.2, rel=1e-10)
