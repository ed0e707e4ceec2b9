import numpy as np
import pytest
from scipy import sparse

import bosedot as bd
from bosedot.dot import CondensatePoint, gibbs_vector
from bosedot.liouville import (build_bundle, assemble_conjugate, kms_vector,
                               dilation_one_body, antisymmetric_one_body)
from bosedot.reservoir import critical_density


def hermiticity_defect(op):
    delta = (op.matrix - op.matrix.getH()).tocoo()
    return float(np.max(np.abs(delta.data))) if delta.nnz else 0.0


def swap_conjugation_permutation(bundle):
    """Index permutation of the doubled-space conjugation: swap the dot pair
    factors and swap the left and right field copies."""
    d = bundle.dot_dim
    basis = bundle.basis
    m = bundle.trunc.n_modes
    fock_perm = np.empty(basis.dim, dtype=np.int64)
    for i, st in enumerate(basis.states):
        swapped = tuple(sorted((g + m if g < m else g - m, c) for g, c in st))
        fock_perm[i] = basis.index[swapped]
    pair_perm = np.array([j * d + i for i in range(d) for j in range(d)])
    return (pair_perm[:, None] * basis.dim + fock_perm[None, :]).ravel()


def test_build_bundle_validates_mode_count(dot2, grid2):
    with pytest.raises(ValueError):
        build_bundle(dot2, grid2, bd.TruncationSpec(3, 2), lam=0.1)


def test_bundle_dimensions(bundle2):
    assert bundle2.dot_dim == 2
    assert bundle2.field_dim == bundle2.basis.dim
    assert bundle2.dim == 4 * bundle2.field_dim
    assert bundle2.beta == 1.0


def test_free_generator_annihilates_equilibrium(bundle2):
    feq = bundle2.free_equilibrium()
    out = bundle2.L0.matrix @ feq
    assert np.all(out == 0.0)
    np.testing.assert_allclose(np.linalg.norm(feq), 1.0, atol=1e-14)


def test_generator_is_declared_sum(bundle2):
    ref = bundle2.L0.matrix \
        + bundle2.lam * (bundle2.I_op.matrix + bundle2.K.matrix)
    delta = (bundle2.L.matrix - ref).tocoo()
    assert delta.nnz == 0 or np.max(np.abs(delta.data)) == 0.0


def test_all_blocks_exactly_hermitian(bundle2):
    for op in (bundle2.L0, bundle2.I_op, bundle2.K, bundle2.L, bundle2.Q,
               bundle2.Lambda):
        assert hermiticity_defect(op) == 0.0


def test_interaction_splits_into_hermitian_blocks(bundle2):
    # the second block is the swap image P conj(I_first) P of the first
    perm = swap_conjugation_permutation(bundle2)
    first = bundle2.I_first
    second = first.conj()[perm][:, perm]
    for block in (first, second):
        delta = (block - block.getH()).tocoo()
        assert delta.nnz == 0 or np.max(np.abs(delta.data)) == 0.0
    total = (first - second) - bundle2.I_op.matrix
    assert total.count_nonzero() == 0


def test_charge_commutes_without_condensate(bundle2):
    lq = bundle2.L.matrix @ bundle2.Q.matrix
    ql = bundle2.Q.matrix @ bundle2.L.matrix
    delta = (lq - ql).tocoo()
    assert delta.nnz == 0 or np.max(np.abs(delta.data)) == 0.0


def test_charge_broken_by_condensate(dot2, grid2):
    rc = critical_density(1.0)
    xi = CondensatePoint.from_excess(0.1, rc, theta=0.3)
    b = build_bundle(dot2, grid2, bd.TruncationSpec(2, 2), lam=0.1, xi=xi,
                     rho_crit=rc)
    delta = (b.L.matrix @ b.Q.matrix - b.Q.matrix @ b.L.matrix).tocoo()
    assert delta.nnz > 0


def test_swap_conjugation_flips_generator_sign(dot2, grid2):
    rc = critical_density(1.0)
    xi = CondensatePoint.from_excess(0.2, rc, theta=1.2)
    b = build_bundle(dot2, grid2, bd.TruncationSpec(2, 2), lam=0.3, xi=xi,
                     rho_crit=rc)
    perm = swap_conjugation_permutation(b)
    mat = b.L.matrix.tocsr()
    conj = mat.conj()[perm][:, perm]
    delta = (conj + mat).tocoo()
    assert delta.nnz == 0 or np.max(np.abs(delta.data)) == 0.0


def test_spectrum_symmetric_about_zero(bundle2):
    evals = bundle2.eigensystem().evals
    np.testing.assert_allclose(np.sort(evals), -np.sort(-evals)[::-1],
                               atol=1e-10)


def test_eigensystem_is_cached(bundle2):
    e1 = bundle2.eigensystem()
    e2 = bundle2.eigensystem()
    assert e1 is e2


def test_lambda_diag_matches_field_energy(bundle2):
    omegas = bundle2.grid.omegas
    fe = (bundle2.basis.dgamma_diag(omegas, "left")
          + bundle2.basis.dgamma_diag(omegas, "right"))
    np.testing.assert_array_equal(bundle2.lambda_diag, np.tile(fe, 4))
    assert np.all(bundle2.lambda_diag >= 0)


def test_charge_diag_integer_spaced(bundle2):
    q = bundle2.q_diag
    np.testing.assert_allclose(q, np.round(q), atol=1e-12)


def test_kms_vector_free_case_is_exact(dot2, grid2):
    b = build_bundle(dot2, grid2, bd.TruncationSpec(2, 2), lam=0.0)
    psi, resid = kms_vector(b)
    assert resid == 0.0
    ref = b.free_equilibrium()
    np.testing.assert_array_equal(psi.amplitudes, ref / np.linalg.norm(ref))


def test_kms_vector_small_residual_at_weak_coupling(bundle2):
    psi, resid = kms_vector(bundle2)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < resid < 1e-3


def test_kms_vector_with_condensate(dot2, grid2):
    rc = critical_density(1.0)
    xi = CondensatePoint.from_excess(0.1, rc, theta=0.7)
    b = build_bundle(dot2, grid2, bd.TruncationSpec(2, 2), lam=0.05, xi=xi,
                     rho_crit=rc)
    psi, resid = kms_vector(b)
    assert 0.0 < resid < 1e-4


def test_dilation_one_body_needs_log_grid(gauss_ff, dot2, grid2):
    with pytest.raises(ValueError):
        dilation_one_body(grid2)
    log_grid = bd.discretize(gauss_ff, 1.0,
                             bd.GridSpec(n_modes=4, omega_max=2.0,
                                         spacing="log", omega_min=0.2))
    h = dilation_one_body(log_grid)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)


def test_antisymmetric_one_body_seeded(grid2):
    h1 = antisymmetric_one_body(grid2, seed=7)
    h2 = antisymmetric_one_body(grid2, seed=7)
    np.testing.assert_array_equal(h1, h2)
    h3 = antisymmetric_one_body(grid2, seed=8)
    assert np.any(h1 != h3)
    np.testing.assert_allclose(h1, h1.conj().T, atol=1e-15)


@pytest.mark.parametrize("scheme", ["log_dilation", "custom_antisymmetric"])
def test_conjugate_commutator_identity(gauss_ff, dot2, scheme):
    log_grid = bd.discretize(gauss_ff, 1.0,
                             bd.GridSpec(n_modes=2, omega_max=2.0,
                                         spacing="log", omega_min=0.3),
                             bohr_frequencies=dot2.bohr_frequencies())
    b = build_bundle(dot2, log_grid, bd.TruncationSpec(2, 2), lam=0.2)
    A, C1 = assemble_conjugate(b, scheme=scheme, seed=5)
    assert hermiticity_defect(A) == 0.0
    assert hermiticity_defect(C1) == 0.0
    # C1 is i [L, A] up to the rounding of a single sparse product
    lmat = b.L.matrix.toarray()
    amat = A.matrix.toarray()
    ref = 1j * (lmat @ amat - amat @ lmat)
    scale = np.linalg.norm(ref) + 1.0
    assert np.linalg.norm(C1.matrix.toarray() - ref) < 1e-12 * scale
    # the declared split C1 = Lambda + lam * I1 with I1 = (C1 - Lambda) / lam
    i1 = (C1.matrix - b.Lambda.matrix) / b.lam
    recon = sparse.diags(b.lambda_diag.astype(complex)) + b.lam * i1
    assert np.abs((C1.matrix - recon).toarray()).max() < 1e-12


def test_manifest_round_trip(bundle2):
    man = bundle2.manifest()
    for key in ("dot", "grid", "truncation", "lambda", "dim"):
        assert key in man
    assert man["dim"] == bundle2.dim
