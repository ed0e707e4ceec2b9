import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse

import bosedot as bd
from bosedot import liouville, spectral
from bosedot.dot import gibbs_vector
from bosedot.fock import SolverConvergenceError
from bosedot.liouville import (assemble_first, build_bundle, kernel_index,
                               real_if_exact, symmetry_blocks)


def test_level_shift_gap_closed_form_d2():
    for beta in (0.5, 1.0, 2.0, 10.0):
        rep = spectral.level_shift(bd.DotSpec(d=2), beta)
        a = 1.0 / math.expm1(beta)
        assert rep.gap == pytest.approx(1.0 + 2.0 * a, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 10.0])
def test_level_shift_kernel_is_gibbs(d, beta):
    rep = spectral.level_shift(bd.DotSpec(d=d), beta)
    coeff = np.exp(-0.5 * beta * np.arange(d))
    coeff /= np.linalg.norm(coeff)
    assert np.linalg.norm(rep.gamma_tilde @ coeff) < 1e-12
    assert rep.gap > 0
    np.testing.assert_allclose(np.abs(rep.kernel_vector), coeff, atol=1e-10)


def test_level_shift_low_temperature_limit():
    rep = spectral.level_shift(bd.DotSpec(d=4), 10.0)
    ref = np.diag([0.0, 1.0, 1.0, 1.0])
    assert np.max(np.abs(rep.gamma_tilde - ref)) < 0.05


def test_level_shift_shell_weight_scales_gamma():
    r1 = spectral.level_shift(bd.DotSpec(d=3), 1.0, shell_weight=1.0)
    r2 = spectral.level_shift(bd.DotSpec(d=3), 1.0, shell_weight=2.5)
    np.testing.assert_allclose(r2.gamma, 2.5 * r1.gamma, atol=1e-14)


def test_level_shift_validation():
    with pytest.raises(ValueError):
        spectral.level_shift(bd.DotSpec(d=1), 1.0)
    with pytest.raises(ValueError):
        spectral.level_shift(bd.DotSpec(d=2), 0.0)
    with pytest.raises(ValueError):
        # non unit level spacing has no single resonance shell
        spectral.level_shift(bd.DotSpec(d=3, energies=(0.0, 1.0, 2.7)), 1.0)


def test_solve_near_zero_dense_small_kernel(bundle2):
    rep = spectral.solve_near_zero(bundle2, k=8)
    # matched-occupation states under total cap 2: vacuum plus one
    # left/right pair in either mode, times the two diagonal dot pairs
    assert rep.kernel_dim == 6
    assert rep.kernel_basis.shape == (bundle2.dim, 6)
    assert np.all(rep.residuals <= 1e-8 * max(rep.norm_L, 1.0))
    order = np.abs(rep.eigenvalues)
    assert np.all(np.diff(order) >= -1e-12)


def test_solve_near_zero_sparse_path_self_consistent(gauss_ff):
    # 2720-dimensional composite forces the shift-invert branch
    dspec = bd.DotSpec(d=2)
    gs = bd.GridSpec(n_modes=7, omega_max=2.8)
    grid = bd.discretize(gauss_ff, 1.0, gs, bd.RELATIVISTIC,
                         bohr_frequencies=dspec.bohr_frequencies())
    b = build_bundle(dspec, grid, bd.TruncationSpec(7, 3), lam=0.05)
    assert b.dim == 2720
    rep = spectral.solve_near_zero(b, k=10)
    assert np.all(rep.residuals <= 1e-7 * rep.norm_L)
    assert rep.kernel_dim == rep.kernel_index == 16
    assert not rep.messages
    # the linear grid puts L0 zeros in the sectors +-1 and +-2 as well, so
    # those sectors start at more than one pair
    zeros = b.q_diag[b.l0_diag == 0]
    assert set(np.unique(zeros)) == {-2, -1, 0, 1, 2}
    assert len(rep.eigenvalues) == len(zeros) == 60
    assert rep.solver["path"] == "sector-shift-invert"
    assert rep.solver["mirrored"] == 4

    # against eigh of the whole (real) matrix: every eigenvalue in a window
    # just past the farthest reported pair, with the kernel's vectors
    scale = rep.norm_L
    edge = np.max(np.abs(rep.eigenvalues)) * (1 + 1e-9)
    ref, vecs = sla.eigh(b.L.matrix.real.toarray(),
                         subset_by_value=(-edge, edge))
    np.testing.assert_allclose(np.sort(rep.eigenvalues), ref,
                               rtol=0, atol=1e-10 * scale)
    kernel = vecs[:, np.abs(ref) < rep.kernel_tol]
    np.testing.assert_allclose(rep.kernel_basis @ rep.kernel_basis.T,
                               kernel @ kernel.T, rtol=0, atol=1e-9)


def test_overlap_below_the_floor_gets_a_message(gauss_ff, monkeypatch):
    # the fixed-state labels of the kernel frame are flagged once
    # overlap_sigma_min is below spectral.OVERLAP_FLOOR: not at this
    # bundle's reading, and with the floor raised above it
    b = _log_bundle(gauss_ff, 2, 4, 2, 0.1)
    rep = spectral.solve_near_zero(b, k=12)
    sigma = rep.solver["overlap_sigma_min"]
    assert sigma > spectral.OVERLAP_FLOOR
    assert not any("overlap_sigma_min" in m for m in rep.messages)
    monkeypatch.setattr(spectral, "OVERLAP_FLOOR", 2 * sigma)
    rep = spectral.solve_near_zero(b, k=12)
    assert [m for m in rep.messages if "overlap_sigma_min" in m] == [
        f"overlap_sigma_min {sigma:.3g} < {2 * sigma:g}: ill-conditioned "
        "fixed-state labels"]


def _log_bundle(gauss_ff, d, n_modes, n_max, lam, xi=None):
    dspec = bd.DotSpec(d=d)
    grid = bd.discretize(gauss_ff, 1.0,
                         bd.GridSpec(n_modes=n_modes, omega_max=2.3,
                                     spacing="log", omega_min=0.35),
                         bd.RELATIVISTIC,
                         bohr_frequencies=dspec.bohr_frequencies())
    rho_crit = None
    if xi is not None:
        rho_crit = bd.critical_density(1.0, bd.RELATIVISTIC)
        xi = bd.CondensatePoint(r=rho_crit + 0.2, theta=xi)
    return build_bundle(dspec, grid, bd.TruncationSpec(n_modes, n_max),
                        lam=lam, xi=xi, rho_crit=rho_crit)


def test_dense_kernel_dimension_not_capped_by_k(gauss_ff):
    # vacuum and 4 matched one-quantum pairs per diagonal dot pair: the kernel
    # is 10-dimensional, as in the dense factorisation, and k = 6 must not
    # cut it
    b = _log_bundle(gauss_ff, 2, 4, 2, 0.1)
    assert b.dim == 180
    rep = spectral.solve_near_zero(b, k=6)
    assert rep.kernel_dim == 10 == np.sum(
        np.abs(b.eigensystem().evals) < rep.kernel_tol)
    assert len(rep.eigenvalues) == 10
    # dot-pair charges -1..1 plus field charges -2..2 (n_max 2): sector 0,
    # the largest, by its chiral LU with one kernel vector per fixed state,
    # sectors 1 and 2 by shift-invert, and sector 3 past Weyl's bound; and
    # the smallest singular value of the kernel basis at the swap-fixed
    # states
    fixed = b.swap == np.arange(b.dim)
    assert rep.solver["path"] == "sector-shift-invert"
    assert [(e["charge"], e["path"]) for e in rep.solver["blocks"]] == [
        (0, "chiral-lu"), (1, "shift-invert"), (2, "shift-invert"),
        (3, "skipped")]
    assert rep.solver["blocks"][0]["size"] == 42
    assert rep.solver["blocks"][0]["fixed"] == 10
    assert rep.solver["mirrored"] == 3
    assert rep.solver["overlap_sigma_min"] == pytest.approx(np.linalg.svd(
        rep.kernel_basis[fixed], compute_uv=False).min(), rel=1e-12)
    assert any("kernel fills" in m for m in rep.messages)
    # k above the kernel still means "pairs reported", with no message
    rep = spectral.solve_near_zero(b, k=14)
    assert rep.kernel_dim == 10 and len(rep.eigenvalues) == 14
    assert not any("kernel fills" in m for m in rep.messages)


def test_degenerate_kernel_is_not_flagged_near_degenerate(gauss_ff):
    # a 10-fold kernel whose eigenvalues sit ~1e-17 apart; the pairs outside
    # it are at least 1.8e-2 apart, so nothing is near-degenerate
    b = _log_bundle(gauss_ff, 2, 4, 2, 0.1)
    rep = spectral.solve_near_zero(b, k=12)
    assert rep.kernel_dim == 10
    assert not any("near-degenerate" in m for m in rep.messages)


def test_near_degenerate_pairs_get_a_message(gauss_ff):
    # at lambda = 1e-12 the degenerate eigenvalues of L0 split only at
    # order lambda, so pairs outside the kernel come closer than
    # spectral.NEAR_DEGENERATE
    b = _log_bundle(gauss_ff, 2, 3, 2, 1e-12)
    rep = spectral.solve_near_zero(b, k=30)
    spacings = np.diff(np.sort(rep.eigenvalues[rep.kernel_dim:]))
    assert np.any((spacings > 0) & (spacings < spectral.NEAR_DEGENERATE))
    assert (f"near-degenerate pairs: spacing < {spectral.NEAR_DEGENERATE:g}"
            in rep.messages)


def test_residual_above_the_flag_gets_a_message(bundle2, monkeypatch):
    # one solved column pushed off its eigenvector: its residual ||(L - e)v||
    # is reported and flagged, and no other is
    solved = spectral.near_zero_eigensystem

    def perturbed(bundle, want, norm_l):
        eig, solver = solved(bundle, want, norm_l)
        blocks = list(eig.blocks)
        j = next(j for j, (_, e, _) in enumerate(blocks)
                 if np.any(np.abs(e) > 1e-3))
        idx, e, v = blocks[j]
        col = int(np.argmax(np.abs(e)))
        v = v.copy()
        v[:, col] += 1e-3 * np.eye(len(idx))[:, 0]
        v[:, col] /= np.linalg.norm(v[:, col])
        blocks[j] = (idx, e, v)
        return liouville.BlockedEigensystem(tuple(blocks), eig.gauge,
                                            eig.path, eig.chiral), solver

    clean = spectral.solve_near_zero(bundle2, k=8)
    assert not any("verification bound" in m for m in clean.messages)
    monkeypatch.setattr(spectral, "near_zero_eigensystem", perturbed)
    rep = spectral.solve_near_zero(bundle2, k=8)
    flag = spectral.RESIDUAL_FLAG * max(rep.norm_L, 1.0)
    assert int(np.sum(rep.residuals > flag)) == 1
    assert "1 residuals above verification bound" in rep.messages


def test_shift_invert_factor_of_a_singular_matrix_raises():
    # the shift is relative to max(||L||, 1): a diagonal with SHIFT itself
    # on it is exactly singular once shifted
    mat = sparse.diags([spectral.SHIFT, 1.0, 2.0], format="csr")
    with pytest.raises(SolverConvergenceError,
                       match="shift-invert factorisation"):
        spectral.shift_invert_factor(mat, 0.5)


def _assert_near_zero_pairs(b, evals, evecs, reference):
    """Residuals within the block bound, eigenvalues equal to the reference
    eigenvalues of eigh, and the kernel projector equal to the dense one."""
    norm_l = b.norm_L()
    residuals = np.linalg.norm(b.L.matrix @ evecs - evecs * evals, axis=0)
    assert np.all(residuals <= spectral.RESIDUAL_BOUND * norm_l)
    np.testing.assert_allclose(np.sort(evals), np.sort(reference),
                               rtol=0, atol=1e-10 * norm_l)
    eig = b.eigensystem()
    kernel_tol = spectral.CLUSTER_TOL * max(norm_l, 1.0)
    zero = np.flatnonzero(np.abs(eig.evals) < kernel_tol)
    in_kernel = np.abs(evals) < kernel_tol
    assert int(in_kernel.sum()) == len(zero)
    block_kernel = evecs[:, in_kernel]
    dense_kernel = eig.vectors(zero)
    np.testing.assert_allclose(block_kernel @ block_kernel.conj().T,
                               dense_kernel @ dense_kernel.conj().T,
                               rtol=0, atol=1e-9)


def _near_zero_pairs(b, k, norm_l):
    """The pairs that solve_near_zero reports from near-zero blocks: the
    max(k, #zeros of L0) nearest zero, by |e| and then by e."""
    want = max(k, int(np.sum(b.l0_diag == 0)))
    eig, solver = spectral.near_zero_eigensystem(b, want, norm_l)
    order = np.lexsort((eig.evals, np.abs(eig.evals)))[:want]
    return eig.evals[order], eig.vectors(order), solver


@pytest.mark.parametrize("n_modes, n_max, lam, xi, amplitude", [
    # real L, dim 660
    pytest.param(4, 3, 0.1, None, 1.0, id="4-3-0.1-None"),
    # strong coupling: pairs in charge sectors +-2
    pytest.param(4, 3, 1.0, None, 1.0, id="4-3-1.0-None"),
    # condensate: complex L that breaks the charge
    pytest.param(4, 2, 0.3, 0.7, 1.0, id="4-2-0.3-0.7"),
    # complex form factor: complex sectors
    pytest.param(4, 3, 0.1, None, 1 + 0.6j, id="4-3-0.1-None-complex"),
    # dim 20: the sectors Q = +-2 hold two states
    pytest.param(2, 1, 0.3, None, 1.0, id="2-1-0.3-None"),
])
def test_block_shift_invert_matches_dense(n_modes, n_max, lam, xi,
                                          amplitude):
    b = _log_bundle(bd.FormFactor.gaussian(amplitude, 1.0), 2, n_modes,
                    n_max, lam, xi)
    k = 12
    norm_l = b.norm_L()
    ref = b.eigensystem().evals
    want = max(k, int(np.sum(b.l0_diag == 0)))

    # the whole-space call: the reference for the per-block primitive
    evals, evecs, iterations = spectral.block_iteration(
        spectral.shift_invert_factor(real_if_exact(b.L.matrix), norm_l),
        want, b.l0_diag)[:3]
    assert iterations <= spectral.MAX_BLOCK_ITERATIONS
    assert len(evals) == want
    shift = spectral.SHIFT * norm_l
    _assert_near_zero_pairs(b, evals, evecs,
                            ref[np.argsort(np.abs(ref - shift))[:want]])

    # the per-block driver that solve_near_zero runs
    evals, evecs, solver = _near_zero_pairs(b, k, norm_l)
    assert len(evals) == want
    assert solver["path"] == ("sector" if xi is None else "gauge") + \
        "-shift-invert"
    assert solver["real"] == (amplitude.imag == 0)
    assert all(s["iterations"] <= spectral.MAX_BLOCK_ITERATIONS
               for s in solver["blocks"])
    _assert_near_zero_pairs(b, evals, evecs,
                            ref[np.lexsort((ref, np.abs(ref)))[:want]])


def test_orthonormalize_keeps_a_small_column_behind_a_spent_large_one():
    # a column of norm 1e8 whose remainder off the basis e_0 is 1e-15 of its
    # norm, set ahead of a genuine column of norm 1e-9: the large one is
    # dropped, and the small one is kept all the same
    eye = np.eye(6)
    w = np.column_stack([1e8 * (eye[:, 0] + 1e-15 * eye[:, 1]),
                         1e-9 * eye[:, 2]])
    q = spectral._orthonormalize(w, eye[:, :1])
    assert q.shape == (6, 1)
    np.testing.assert_allclose(np.abs(q[:, 0]), eye[:, 2], rtol=0,
                               atol=1e-15)


@pytest.mark.parametrize("xi", [None, 0.7], ids=["sector-0", "gauged"])
def test_chiral_block_entry(gauss_ff, xi):
    # sector 0, or the gauged L(0), is solved by its chiral LU: its kernel is
    # one orthonormal vector per fixed state, and its nonzero pairs come whole,
    # +-s, by the block iteration on the block's pseudo-inverse
    b = _log_bundle(gauss_ff, 2, 4, 2, 0.1, xi)
    norm_l = b.norm_L()
    nf = kernel_index(b.dot_spec, b.trunc)
    want = 15
    eig, solver = spectral.near_zero_eigensystem(b, want, norm_l)
    entry = solver["blocks"][0]
    (at,) = [i for i, (idx, _, _) in enumerate(eig.blocks)
             if xi is not None or b.q_diag[idx[0]] == 0]
    idx, evals, vecs = eig.blocks[at]
    assert entry["path"] == "chiral-lu"
    assert entry["charge"] == (0 if xi is None else None)
    assert entry["size"] == len(idx) == (b.dim if xi is not None
                                         else np.sum(b.q_diag == 0))
    assert entry["fixed"] == nf == 10
    assert entry["pairs"] == len(evals) == nf + 6
    assert 1 <= entry["iterations"] <= spectral.MAX_BLOCK_ITERATIONS
    assert 0 < entry["kernel_residual"] <= spectral.RESIDUAL_BOUND * norm_l
    assert "overlap_sigma_min" not in entry
    np.testing.assert_array_equal(evals[:nf], 0.0)
    nonzero = np.sort(evals[nf:])
    np.testing.assert_allclose(nonzero, -nonzero[::-1], rtol=0,
                               atol=1e-12 * norm_l)
    assert np.abs(nonzero).min() > 1e-3
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(len(evals)), rtol=0,
                               atol=1e-12)
    full = eig.vectors(np.arange(eig.offsets[at], eig.offsets[at + 1]))
    residuals = np.linalg.norm(b.L.matrix @ full - full * evals, axis=0)
    assert residuals.max() <= spectral.RESIDUAL_BOUND * norm_l


def test_doubling_starts_from_the_ritz_block_found_before(gauss_ff):
    # sector 1 of a dim-660 bundle: the doublings 1, 2, 4 on one factor,
    # each started from the Ritz block the one before ended with, against
    # a cold 4-pair solve
    b = _log_bundle(gauss_ff, 2, 4, 3, 0.1)
    norm_l = b.norm_L()
    _, _, blocks = symmetry_blocks(b.L.matrix, b.q_diag, b.theta)
    idx, block = next(blk for blk in blocks if b.q_diag[blk[0][0]] == 1)
    l0 = b.l0_diag[idx]
    factor = spectral.shift_invert_factor(block, norm_l)
    warm, ritz = [], None
    for k in (1, 2, 4):
        *pairs, ritz = spectral.block_iteration(factor, k, l0, start=ritz)
        warm.append(pairs)
    cold = spectral.block_iteration(factor, max(4, int(np.sum(l0 == 0))),
                                    l0)[:3]
    assert [w[2] for w in warm] == [2, 1, 1] and cold[2] == 3
    np.testing.assert_allclose(warm[-1][0], cold[0], rtol=0,
                               atol=1e-12 * norm_l)
    np.testing.assert_allclose(warm[-1][1] @ warm[-1][1].T,
                               cold[1] @ cold[1].T, rtol=0, atol=1e-10)


class FloorFactor(spectral.ShiftInvertFactor):
    """A shift-invert factor whose residuals never fall below three times
    the bound."""

    def rayleigh_ritz(self, span):
        evals, vecs, residuals = super().rayleigh_ritz(span)
        return evals, vecs, residuals + 3 * spectral.RESIDUAL_BOUND * self.scale

    def pairs(self, vecs):
        rq, vecs, residuals = super().pairs(vecs)
        return rq, vecs, residuals + 3 * spectral.RESIDUAL_BOUND * self.scale


def test_block_iteration_stops_when_its_residuals_stall(gauss_ff):
    # sector 1 of a dim-660 bundle, from the Ritz block of its converged
    # pairs: with a residual floor above the bound, the largest unlocked
    # residual stops falling at once, and the iteration gives up after
    # STAGNATION_WINDOW + 1 iterations, not MAX_BLOCK_ITERATIONS
    b = _log_bundle(gauss_ff, 2, 4, 3, 0.1)
    norm_l = b.L.norm_bound()
    _, _, blocks = symmetry_blocks(b.L.matrix, b.q_diag, b.theta)
    idx, block = next(blk for blk in blocks if b.q_diag[blk[0][0]] == 1)
    l0 = b.l0_diag[idx]
    factor = spectral.shift_invert_factor(block, norm_l)
    ritz = spectral.block_iteration(factor, 4, l0)[3]
    solves = []

    def solve(v):
        solves.append(v.shape[1])
        return factor.solve(v)

    bound = spectral.RESIDUAL_BOUND * factor.scale
    with pytest.raises(SolverConvergenceError,
                       match=f"above {bound:.3g} has not halved in "
                       f"{spectral.STAGNATION_WINDOW} iterations"):
        spectral.block_iteration(FloorFactor(block, solve, factor.scale), 4,
                                 l0, start=ritz)
    assert (len(solves) == spectral.KRYLOV_DEPTH
            * (spectral.STAGNATION_WINDOW + 1))


def test_dense_and_block_paths_report_the_same_signed_pairs(gauss_ff):
    # d = 3, one mode, n_max 1 (dim 27): k = 4 cuts between the pair +-e of
    # the sectors Q = +-1.  The block path and the dense factorisation both
    # take sector -1 from sector 1 through the swap, so the tie |e| = |-e|
    # is exact and both keep -e.
    b = _log_bundle(gauss_ff, 3, 1, 1, 0.3)
    norm_l = b.norm_L()
    rep = spectral.solve_near_zero(b, 4)
    eig = b.eigensystem()
    order = np.lexsort((eig.evals, np.abs(eig.evals)))[:4]
    dense_e, dense_v = eig.evals[order], eig.vectors(order)
    np.testing.assert_allclose(rep.eigenvalues, dense_e, rtol=0,
                               atol=1e-12 * norm_l)
    outside = np.abs(dense_e) >= rep.kernel_tol
    assert outside.sum() == 1 and dense_e[outside][0] < 0
    assert dense_e[outside][0] == pytest.approx(-1.50016751e-02, rel=1e-8)
    overlap = np.vdot(dense_v[:, outside][:, 0], rep.vectors[:, outside][:, 0])
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_kernel_below_the_swap_index_raises(gauss_ff, monkeypatch):
    b = _log_bundle(gauss_ff, 2, 2, 1, 0.1)
    monkeypatch.setattr(spectral, "CLUSTER_TOL", 0.0)
    with pytest.raises(SolverConvergenceError, match="below the swap index"):
        spectral.solve_near_zero(b, k=4)


def test_virial_value_real_and_small_for_eigenvectors(gauss_ff):
    dspec = bd.DotSpec(d=2)
    grid = bd.discretize(gauss_ff, 1.0,
                         bd.GridSpec(n_modes=2, omega_max=2.0, spacing="log",
                                     omega_min=0.3),
                         bohr_frequencies=dspec.bohr_frequencies())
    b = build_bundle(dspec, grid, bd.TruncationSpec(2, 2), lam=0.15)
    rep = spectral.solve_near_zero(b, k=6)
    from bosedot.liouville import assemble_conjugate
    assemble_conjugate(b, scheme="log_dilation")
    spectral.attach_diagnostics(b, rep)
    assert len(rep.diagnostics) == 6
    for row in rep.diagnostics:
        assert isinstance(row["virial_value"], float)
        assert abs(row["virial_value"]) < 1e-12


def test_kms_kernel_vector_is_captured(bundle2):
    rep = spectral.solve_near_zero(bundle2, k=6)
    psi, captured = spectral.kms_kernel_vector(bundle2, rep)
    assert captured == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # it really is annihilated by the generator
    assert np.linalg.norm(bundle2.L.matrix @ psi.amplitudes) < \
        1e-9 * bundle2.norm_L()


def test_kms_kernel_vector_rejects_an_empty_kernel(bundle2):
    rep = spectral.solve_near_zero(bundle2, k=6)
    rep.kernel_basis = rep.kernel_basis[:, :0]
    with pytest.raises(ValueError, match="empty kernel"):
        spectral.kms_kernel_vector(bundle2, rep)


def test_kernel_structure_overlap_range(bundle2):
    rep = spectral.solve_near_zero(bundle2, k=6)
    psi, _ = spectral.kms_kernel_vector(bundle2, rep)
    ks = spectral.kernel_structure(bundle2, psi)
    assert 0.9 < ks.overlap <= 1.0
    assert ks.cut == bundle2.lam
    assert ks.panel


def test_orthogonal_kernel_panel_bounded(bundle2):
    rep = spectral.solve_near_zero(bundle2, k=6)
    psi, _ = spectral.kms_kernel_vector(bundle2, rep)
    table = spectral.orthogonal_kernel_panel(bundle2, rep, psi)
    assert table
    for v in table.values():
        assert 0.0 <= v <= 1.0 + 1e-12


def test_attach_diagnostics_rows(bundle2):
    rep = spectral.solve_near_zero(bundle2, k=4)
    spectral.attach_diagnostics(bundle2, rep)
    # one row per reported pair; the 6-dimensional kernel raises k = 4 to 6
    assert len(rep.diagnostics) == len(rep.eigenvalues) == 6
    assert "eigenvalue" in rep.diagnostics[0]


def test_resolvent_sandwich_basic(gauss_ff):
    dspec = bd.DotSpec(d=2)
    gs = bd.GridSpec(n_modes=60, omega_max=3.0, spacing="log", omega_min=0.2)
    grid = bd.discretize(gauss_ff, 1.0, gs, bd.RELATIVISTIC,
                         bohr_frequencies=dspec.bohr_frequencies())
    b = build_bundle(dspec, grid, bd.TruncationSpec(60, 1), lam=1.0)
    rep = spectral.resolvent_sandwich(b, 0.2)
    m = rep.matrix
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    assert rep.fit_constant > 0
    assert rep.gibbs_overlap > 0.99
    assert rep.oracle_constant > 0


@pytest.mark.parametrize("d", [2, 3])
def test_sandwich_from_parts_is_the_bundle_interaction_bit_for_bit(gauss_ff,
                                                                   d):
    # the sandwich reads I_first and the swap; its matrix is the one the full
    # interaction of a bundle gives on the states e_ii (x) vacuum
    dspec = bd.DotSpec(d=d)
    gs = bd.GridSpec(n_modes=40, omega_max=3.0, spacing="log", omega_min=0.2)
    grid = bd.discretize(gauss_ff, 1.0, gs, bd.RELATIVISTIC,
                         bohr_frequencies=dspec.bohr_frequencies())
    trunc = bd.TruncationSpec(40, 1)
    bundle = build_bundle(dspec, grid, trunc, lam=0.3)
    eps = 0.2
    inv = 1.0 / (bundle.l0_diag ** 2 + eps ** 2)
    half = [bundle.I_op.matrix @ np.kron(np.eye(d * d)[i * d + i],
                                         bundle.basis.vacuum())
            for i in range(d)]
    m = eps * np.array([[np.vdot(a, inv * b) for b in half] for a in half])
    m = 0.5 * (m + m.conj().T)
    assert np.max(np.abs(m.imag)) < 1e-13
    for source in (assemble_first(dspec, grid, trunc), bundle):
        np.testing.assert_array_equal(
            spectral.resolvent_sandwich(source, eps).matrix, m.real)


def test_lorentzian_constant_stable_under_refinement(gauss_ff):
    vals = []
    for n in (200, 400):
        gs = bd.GridSpec(n_modes=n, omega_max=3.0, spacing="log",
                         omega_min=0.2)
        grid = bd.discretize(gauss_ff, 1.0, gs)
        vals.append(spectral.lorentzian_constant(grid, 0.1))
    assert vals[0] > 0
    assert abs(vals[1] - vals[0]) < 5e-3 * vals[0]
