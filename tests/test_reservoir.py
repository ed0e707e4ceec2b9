import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import zeta

import bosedot as bd
from bosedot.reservoir import (occupation, planck_density, critical_density,
                               fugacity, kac_density, phase,
                               uniform_phase_average, kac_superposition_residual,
                               generating_functional, two_point_cluster,
                               resonance_weights, ReservoirThermo,
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


def test_phase_scaling():
    rc = 0.1
    f0 = 0.8 - 0.3j
    p1 = phase(f0, CondensatePoint(r=rc + 0.04, theta=0.5), rc)
    p4 = phase(f0, CondensatePoint(r=rc + 0.16, theta=0.5), rc)
    assert p4 == pytest.approx(2.0 * p1, rel=1e-12)
    with pytest.raises(ValueError):
        phase(f0, CondensatePoint(r=rc / 2.0), rc)


def test_uniform_phase_average_matches_bessel():
    avg, closed = uniform_phase_average(0.7 + 0.4j, r=0.9, rho_crit=0.1)
    assert abs(avg - closed) < 1e-10
    assert abs(avg.imag) < 1e-10


def test_xi_measures():
    m = bd.XiMeasure.uniform_theta(r=0.5, n_theta=8)
    assert len(m.points) == 8
    assert sum(w for _, w in m.points) == pytest.approx(1.0, abs=1e-12)
    assert m.mean_r() == pytest.approx(0.5)

    beta, rho_bar = 1.0, 0.4
    mk = bd.XiMeasure.kac_theta(beta, rho_bar, n_r=24, n_theta=4)
    # Laguerre quadrature integrates the linear moment exactly
    assert mk.mean_r() == pytest.approx(rho_bar, rel=1e-10)

    with pytest.raises(ValueError):
        bd.XiMeasure(points=((CondensatePoint(r=1.0), 0.5),))


def test_generating_functional_bounds_and_identities():
    f = WeylFunction.gaussian(0.6, 1.2)
    beta = 1.0
    rc = critical_density(beta)

    aw = generating_functional(f, "araki_woods", beta=beta, rho0=0.0)
    assert 0.0 < aw <= 1.0

    sup = rc + 0.3
    gc = generating_functional(f, "grand_canonical", beta=beta, rho_bar=sup)
    can = generating_functional(f, "canonical", beta=beta, rho=sup)
    aw_ex = generating_functional(f, "araki_woods", beta=beta, rho0=sup - rc)
    assert can == pytest.approx(aw_ex, rel=1e-12)
    assert abs(gc) <= 1.0 and abs(can) <= 1.0

    sub = rc / 3.0
    assert generating_functional(f, "canonical", beta=beta, rho=sub) == \
        pytest.approx(generating_functional(f, "grand_canonical", beta=beta,
                                            rho_bar=sub), rel=1e-12)

    xi = CondensatePoint(r=sup, theta=0.9)
    ex = generating_functional(f, "extremal", beta=beta, xi=xi)
    ex0 = generating_functional(f, "extremal", beta=beta,
                                xi=CondensatePoint(r=sup, theta=2.1))
    # the extremal phase moves only the argument, never the modulus
    assert abs(ex) == pytest.approx(abs(ex0), rel=1e-12)

    with pytest.raises(ValueError):
        generating_functional(f, "no_such_ensemble", beta=beta)


def test_kac_superposition_identity():
    f = WeylFunction.gaussian(1.0, 1.0)
    resid, lhs, rhs = kac_superposition_residual(f, 1.0, 0.5)
    assert resid < 1e-8
    assert 0.0 < rhs <= 1.0


def test_two_point_clustering_supercritical():
    f = WeylFunction.gaussian(0.8, 1.0)
    g = WeylFunction.gaussian(0.5, 1.3)
    beta, rho_bar = 1.0, 0.6
    near = two_point_cluster(f, g, 2.0, beta, rho_bar=rho_bar)
    far = two_point_cluster(f, g, 40.0, beta, rho_bar=rho_bar)
    # the connected part dies off; the condensate factor survives
    assert abs(far.ratio - far.condensate_factor) < \
        abs(near.ratio - near.condensate_factor)
    assert abs(far.ratio - far.condensate_factor) < 1e-6
    assert abs(far.condensate_factor - 1.0) > 1e-3


def test_two_point_clustering_subcritical_factorizes():
    f = WeylFunction.gaussian(0.8, 1.0)
    beta = 1.0
    sub = critical_density(beta) / 4.0
    near = two_point_cluster(f, f, 10.0, beta, rho_bar=sub)
    far = two_point_cluster(f, f, 40.0, beta, rho_bar=sub)
    assert far.condensate_factor == 1.0
    # endpoint of the thermal weight limits the decay to polynomial in x
    assert abs(far.ratio - 1.0) < 1e-5
    assert abs(far.ratio - 1.0) < abs(near.ratio - 1.0) / 10.0


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


def test_discretize_resonance_shift(gauss_ff):
    # 2 cells on [0, 4] put a node exactly on the unit Bohr gap
    gs = bd.GridSpec(n_modes=2, omega_max=4.0)
    hit = bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=(1.0,),
                        resonance="keep")
    assert np.any(np.abs(hit.omegas - 1.0) < 1e-12)
    moved = bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=(1.0,))
    assert np.all(np.abs(moved.omegas - 1.0) > 1e-3)
    assert moved.shifted != ()
    with pytest.raises(ValueError):
        bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=(1.0,),
                      resonance="reject")


def test_discretize_resonance_log_grid(gauss_ff):
    # 3 log cells on [0.25, 4] put the middle node on the unit Bohr gap
    gs = bd.GridSpec(n_modes=3, omega_max=4.0, omega_min=0.25, spacing="log")
    kept = bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=(1.0,),
                         resonance="keep")
    assert kept.omegas[1] == pytest.approx(1.0, rel=1e-14)
    assert kept.shifted == ()
    moved = bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=(1.0,))
    assert moved.shifted == (1,)
    assert moved.omegas[1] == kept.omegas[1] * math.exp(0.5 * kept.step)
    np.testing.assert_array_equal(moved.omegas[[0, 2]], kept.omegas[[0, 2]])
    with pytest.raises(ValueError, match="collides"):
        bd.discretize(gauss_ff, 1.0, gs, bohr_frequencies=(1.0,),
                      resonance="reject")


def test_smearing_channels_unit_difference(grid2):
    # (1 + rho) - rho = 1 per mode: the channel split preserves the shell mass
    left = np.abs(grid2.left_smearing) ** 2
    right = np.abs(grid2.right_smearing) ** 2
    mass = grid2.weights * np.abs(grid2.couplings) ** 2
    np.testing.assert_allclose(left - right, mass, rtol=1e-13)


def test_resonance_weights_density(gauss_ff):
    gs = bd.GridSpec(n_modes=400, omega_max=4.0)
    grid = bd.discretize(gauss_ff, 1.0, gs)
    dens = resonance_weights(grid, (1.0,), half_width=0.05)
    # fine-grid density approaches the angular shell integral at the gap
    k = bd.RELATIVISTIC.k_of_omega(1.0)
    shell = 4.0 * np.pi * k ** 2 * abs(gauss_ff.at(k)) ** 2 \
        * bd.RELATIVISTIC.dk_domega(1.0)
    assert dens[1.0] == pytest.approx(float(shell), rel=2e-3)


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
