import dataclasses
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import simpson

import bosedot as bd
from bosedot import dynamics
from bosedot.dot import lower_raise
from bosedot.liouville import build_bundle
from bosedot.reservoir import CondensatePoint, XiMeasure


def hop_matrix(d):
    gm, gp = lower_raise(bd.DotSpec(d=d))
    return gm + gp


def test_dot_observable_index_layout(bundle2):
    x = np.array([[0.0, 2.0], [3.0, 0.0]])
    full = dynamics.dot_observable(bundle2, x).toarray()
    d, f = bundle2.dot_dim, bundle2.field_dim
    ref = np.kron(np.kron(x, np.eye(d)), np.eye(f))
    np.testing.assert_array_equal(full, ref)


def test_dot_observable_shape_check(bundle2):
    with pytest.raises(ValueError):
        dynamics.dot_observable(bundle2, np.eye(3))


def test_operator_norm_dense_and_sparse_paths(rng):
    m = rng.standard_normal((40, 40))
    assert dynamics.operator_norm(m) == pytest.approx(
        np.linalg.norm(m, 2), rel=1e-12)
    diag = sparse.diags(np.linspace(0.1, 7.3, 800))
    assert dynamics.operator_norm(diag) == pytest.approx(7.3, rel=1e-6)


def test_evolve_zero_time_and_unitarity(bundle2, rng):
    v = rng.standard_normal(bundle2.dim) + 1j * rng.standard_normal(bundle2.dim)
    out0 = dynamics.evolve(bundle2, v, 0.0)
    np.testing.assert_array_equal(out0.amplitudes, v)
    out = dynamics.evolve(bundle2, v, 1.7)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(
        np.linalg.norm(v), rel=1e-12)


def test_evolve_matches_dense_exponential(bundle2, rng):
    from scipy.linalg import expm
    v = rng.standard_normal(bundle2.dim) + 1j * rng.standard_normal(bundle2.dim)
    ref = expm(-0.6j * bundle2.L.matrix.toarray()) @ v
    out = dynamics.evolve(bundle2, v, 0.6)
    np.testing.assert_allclose(out.amplitudes, ref, atol=1e-10)


def test_ergodic_mean_against_time_quadrature(bundle2):
    a = dynamics.dot_observable(bundle2, np.diag([0.0, 1.0]))
    b = dynamics.dot_observable(bundle2, hop_matrix(2))
    omega, _, _ = dynamics.equilibrium_vector(bundle2)
    T = 20.0
    rep = dynamics.ergodic_mean(bundle2, a, b, omega, T)

    # independent oracle: propagate B omega and Simpson-integrate the
    # expectation on a fine grid
    v = b @ omega.amplitudes
    ts = np.linspace(0.0, T, 1601)
    samples = np.empty_like(ts)
    for i, t in enumerate(ts):
        w = dynamics.evolve(bundle2, v, t).amplitudes
        samples[i] = np.vdot(w, a @ w).real
    brute = simpson(samples, x=ts) / T
    assert rep.finite_mean == pytest.approx(brute, abs=2e-8)


def test_ergodic_mean_converges_to_closed_form(bundle2):
    a = dynamics.dot_observable(bundle2, np.diag([0.0, 1.0]))
    b = dynamics.dot_observable(bundle2, hop_matrix(2))
    omega, _, _ = dynamics.equilibrium_vector(bundle2)
    errs = []
    for T in (100.0, 3000.0):
        rep = dynamics.ergodic_mean(bundle2, a, b, omega, T)
        errs.append(abs(rep.finite_mean - rep.closed_form))
    # coupling-split near-degeneracies (~4e-4 gap) keep T=3000 marginal,
    # so expect clear decay but not the full 1/30
    assert errs[1] < 0.12 * errs[0]


def test_ergodic_mean_on_exact_eigenvector(bundle2):
    evals, evecs = bundle2.eigensystem()
    psi = evecs[:, 3]
    a = dynamics.dot_observable(bundle2, hop_matrix(2))
    eye = sparse.identity(bundle2.dim, format="csr", dtype=complex)
    rep = dynamics.ergodic_mean(bundle2, a, eye, psi, 50.0)
    expect = np.vdot(psi, a @ psi).real
    assert rep.closed_form == pytest.approx(expect, abs=1e-10)
    assert rep.finite_mean == pytest.approx(expect, abs=1e-9)


def test_ergodic_report_to_dict(bundle2):
    a = dynamics.dot_observable(bundle2, np.diag([0.0, 1.0]))
    eye = sparse.identity(bundle2.dim, format="csr", dtype=complex)
    omega, _, _ = dynamics.equilibrium_vector(bundle2)
    d = dynamics.ergodic_mean(bundle2, a, eye, omega, 200.0).to_dict()
    for key in ("finite_mean", "T", "extrapolated", "closed_form",
                "min_cluster_gap", "n_clusters", "messages"):
        assert key in d


def test_ergodic_mean_short_window_flagged_in_messages(bundle2):
    # B = hop puts about half of the weight on cluster pairs with gap * T < 10
    a = dynamics.dot_observable(bundle2, np.diag([0.0, 1.0]))
    b = dynamics.dot_observable(bundle2, hop_matrix(2))
    omega, _, _ = dynamics.equilibrium_vector(bundle2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = dynamics.ergodic_mean(bundle2, a, b, omega, 1e-3)
    assert rep.messages
    assert "weight share" in rep.messages[0]


def test_ergodic_mean_stationary_state_short_window_not_flagged(bundle2):
    # omega is stationary, so with B = 1 every window gives the limit and
    # no weight sits on pairs in different clusters
    a = dynamics.dot_observable(bundle2, np.diag([0.0, 1.0]))
    eye = sparse.identity(bundle2.dim, format="csr", dtype=complex)
    omega, _, _ = dynamics.equilibrium_vector(bundle2)
    rep = dynamics.ergodic_mean(bundle2, a, eye, omega, 1e-3)
    assert rep.messages == ()
    assert rep.finite_mean == pytest.approx(rep.closed_form, abs=1e-12)


def test_short_window_share_ignores_basis_inside_a_cluster(bundle2, rng):
    # a unitary mix of the 6-dimensional kernel cluster changes the entries
    # of W but neither its cluster-pair block sums nor the finite-T mean
    a = dynamics.dot_observable(bundle2, np.diag([0.0, 1.0]))
    evals, evecs = bundle2.eigensystem()
    kernel = np.flatnonzero(np.abs(evals) < 1e-9 * max(bundle2.norm_L(), 1.0))
    assert len(kernel) == 6
    u, _ = np.linalg.qr(rng.standard_normal((6, 6))
                        + 1j * rng.standard_normal((6, 6)))
    mixed = evecs.copy()
    mixed[:, kernel] = evecs[:, kernel] @ u
    other = dataclasses.replace(bundle2, _eigensystem=(evals, mixed))
    omega, _, _ = dynamics.equilibrium_vector(bundle2)
    rep = dynamics.ergodic_mean(bundle2, a, a, omega, 1e-3)
    rep_mixed = dynamics.ergodic_mean(other, a, a, omega, 1e-3)
    assert rep.messages
    assert rep_mixed.messages == rep.messages
    assert rep_mixed.finite_mean == pytest.approx(rep.finite_mean, abs=1e-12)


def test_rte_deviation_windows_match_ergodic_mean(bundle2):
    a = dynamics.dot_observable(bundle2, np.diag([0.0, 1.0]))
    b = dynamics.dot_observable(bundle2, hop_matrix(2))
    out = dynamics.rte_deviation(bundle2, a, b, T=[40.0, 300.0])
    omega, _, _ = dynamics.equilibrium_vector(bundle2)
    assert [f["T"] for f in out["finite_T"]] == [40.0, 300.0]
    for entry, T in zip(out["finite_T"], (40.0, 300.0)):
        assert entry == dynamics.ergodic_mean(bundle2, a, b, omega,
                                              T).to_dict()
        assert entry["closed_form"] == out["ergodic_limit"]


def test_equilibrium_vector_near_stationary(bundle2):
    state, energy, captured = dynamics.equilibrium_vector(bundle2)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert captured > 0.999
    assert abs(energy) < 1e-8
    resid = np.linalg.norm(bundle2.L.matrix @ state.amplitudes)
    assert resid < 1e-8 * bundle2.norm_L()


def test_rte_deviation_identity_is_exactly_zero(bundle2):
    eye = sparse.identity(bundle2.dim, format="csr", dtype=complex)
    b = dynamics.dot_observable(bundle2, hop_matrix(2))
    out = dynamics.rte_deviation(bundle2, eye, b, a_norm=1.0)
    assert out["deviation"] == 0.0
    assert out["deviation_normalized"] == 0.0


def test_rte_deviation_fields(bundle2):
    a = dynamics.dot_observable(bundle2, np.diag([0.0, 1.0]))
    b = dynamics.dot_observable(bundle2, hop_matrix(2))
    out = dynamics.rte_deviation(bundle2, a, b, T=[300.0])
    for key in ("deviation", "deviation_normalized", "ergodic_limit",
                "omega_bb", "omega_a", "a_norm", "lambda", "manifest",
                "finite_T"):
        assert key in out
    assert out["lambda"] == bundle2.lam
    assert out["deviation"] >= 0.0
    assert out["a_norm"] == pytest.approx(1.0, rel=1e-8)
    assert [f["T"] for f in out["finite_T"]] == [300.0]


def small_xi_bundle(gauss_ff, theta, rho_bar=0.3):
    dspec = bd.DotSpec(d=2)
    grid = bd.discretize(gauss_ff, 1.0, bd.GridSpec(n_modes=2, omega_max=2.2),
                         bd.RELATIVISTIC,
                         bohr_frequencies=dspec.bohr_frequencies())
    rc = bd.critical_density(1.0)
    xi = CondensatePoint.from_excess(rho_bar - rc, rc, theta=theta)
    return build_bundle(dspec, grid, bd.TruncationSpec(2, 1), lam=0.1, xi=xi,
                        rho_crit=rc)


def test_superpose_xi_aggregates(gauss_ff):
    measure = XiMeasure.uniform_theta(0.4, 2)
    results = []
    for (xi, _w) in measure.points:
        b = small_xi_bundle(gauss_ff, xi.theta)
        a = dynamics.dot_observable(b, np.diag([0.0, 1.0]))
        bb = dynamics.dot_observable(b, hop_matrix(2))
        results.append(dynamics.rte_deviation(b, a, bb))
    out = dynamics.superpose_xi(measure, results)
    mean_limit = 0.5 * (results[0]["ergodic_limit"] +
                        results[1]["ergodic_limit"])
    assert out["aggregate_limit"] == pytest.approx(mean_limit, rel=1e-12)
    assert len(out["per_xi"]) == 2
    assert out["aggregate_deviation"] >= 0.0


def test_superpose_xi_rejects_mixed_manifests(gauss_ff):
    measure = XiMeasure.uniform_theta(0.4, 2)
    b0 = small_xi_bundle(gauss_ff, measure.points[0][0].theta)
    b1 = small_xi_bundle(gauss_ff, measure.points[1][0].theta, rho_bar=0.3)
    b1 = build_bundle(b1.dot_spec, b1.grid, b1.trunc, lam=0.2, xi=b1.xi,
                      rho_crit=bd.critical_density(1.0))
    res = []
    for b in (b0, b1):
        a = dynamics.dot_observable(b, np.diag([0.0, 1.0]))
        bb = dynamics.dot_observable(b, hop_matrix(2))
        res.append(dynamics.rte_deviation(b, a, bb))
    with pytest.raises(ValueError):
        dynamics.superpose_xi(measure, res)
    with pytest.raises(ValueError):
        dynamics.superpose_xi(measure, res[:1])


def test_dyson_truncated_tracks_exact_at_weak_coupling(gauss_ff):
    dspec = bd.DotSpec(d=2)
    grid = bd.discretize(gauss_ff, 1.0, bd.GridSpec(n_modes=2, omega_max=2.2),
                         bd.RELATIVISTIC,
                         bohr_frequencies=dspec.bohr_frequencies())
    errs = []
    for lam in (0.1, 0.05):
        b = build_bundle(dspec, grid, bd.TruncationSpec(2, 1), lam=lam)
        a = dynamics.dot_observable(b, np.diag([0.0, 1.0])).toarray()
        exact = dynamics.heisenberg_exact(b, a, 0.8)
        approx = dynamics.dyson_truncated(b, a, 0.8, order=4, n_steps=128)
        errs.append(np.linalg.norm(approx - exact))
    assert errs[0] < 1e-2
    # halving the coupling should shrink the residual like 2^(order+1)
    ratio = errs[0] / errs[1]
    assert 16.0 < ratio < 64.0


def test_heisenberg_exact_properties(bundle2):
    a = dynamics.dot_observable(bundle2, hop_matrix(2)).toarray()
    out = dynamics.heisenberg_exact(bundle2, a, 1.3)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-11)
    np.testing.assert_allclose(np.trace(out), np.trace(a), atol=1e-10)
    np.testing.assert_allclose(dynamics.heisenberg_exact(bundle2, a, 0.0), a,
                               atol=1e-12)


def test_dyson_comparison_exponents(gauss_ff):
    dspec = bd.DotSpec(d=2)
    grid = bd.discretize(gauss_ff, 1.0, bd.GridSpec(n_modes=2, omega_max=2.2),
                         bd.RELATIVISTIC,
                         bohr_frequencies=dspec.bohr_frequencies())

    def make_bundle(lam):
        return build_bundle(dspec, grid, bd.TruncationSpec(2, 1), lam=lam)

    def a_of_bundle(b):
        return dynamics.dot_observable(b, np.diag([0.0, 1.0]))

    out = dynamics.dyson_comparison(make_bundle, a_of_bundle, 0.4, 1.0,
                                    halvings=2, order=2, n_steps=128)
    assert len(out["errors"]) == 3
    assert len(out["exponents"]) == 2
    assert out["order"] == 2
    for e in out["exponents"]:
        assert 2.4 < e < 3.6
