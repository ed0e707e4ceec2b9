"""The blocked eigensystem against a complex eigh of the whole generator.

Without a condensate L conserves the charge Q, so the blocks are the charge
sectors; with one, L(theta) = e^{i theta Q} L(0) e^{-i theta Q} and the
gauged L(0) is one block.  The reference below is the whole-space path: one
complex eigh of L, its clusters, and the cluster projections of the
perturbative thermal vector and of B omega.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse

import bosedot as bd
from bosedot import dynamics, spectral
from bosedot.dot import lower_raise
from bosedot import liouville
from bosedot.fock import SolverConvergenceError
from bosedot.liouville import (BlockedEigensystem, antisymmetric_one_body,
                               assemble_conjugate, build_bundle, chiral_eigh,
                               chiral_kernel, chiral_split, condensate_gauge,
                               dilation_one_body, kernel_index, kms_vector,
                               symmetry_blocks)
from test_liouville import swap_conjugation_permutation

RHO_CRIT = bd.critical_density(1.0, bd.RELATIVISTIC)


def hop_matrix(d):
    gm, gp = lower_raise(bd.DotSpec(d=d))
    return gm + gp


# (d, spacing, n_modes, n_max, lam, theta or None, form-factor amplitude)
CASES = {
    "d2-log": (2, "log", 3, 2, 0.1, None, 1.0),
    "d3-log": (3, "log", 2, 2, 0.2, None, 1.0),
    "d2-linear": (2, "linear", 2, 3, 0.3, None, 1.0),
    "d2-log-xi": (2, "log", 3, 2, 0.1, 0.7, 1.0),
    "d3-linear-xi": (3, "linear", 2, 2, 0.2, 1.3, 1.0),
    "d2-log-complex": (2, "log", 3, 2, 0.1, None, 1.0 + 0.6j),
    "d2-log-xi-complex": (2, "log", 2, 2, 0.3, 0.7, 0.8 - 0.5j),
}


def make_bundle(d, spacing, n_modes, n_max, lam, theta, amplitude):
    dspec = bd.DotSpec(d=d)
    omega_min = 0.35 if spacing == "log" else None
    grid = bd.discretize(bd.FormFactor.gaussian(amplitude, 1.0), 1.0,
                         bd.GridSpec(n_modes=n_modes, omega_max=2.3,
                                     omega_min=omega_min, spacing=spacing),
                         bd.RELATIVISTIC,
                         bohr_frequencies=dspec.bohr_frequencies())
    xi = None if theta is None else bd.CondensatePoint(r=RHO_CRIT + 0.2,
                                                       theta=theta)
    return build_bundle(dspec, grid, bd.TruncationSpec(n_modes, n_max),
                        lam=lam, xi=xi,
                        rho_crit=None if xi is None else RHO_CRIT)


def on_blocks(bundle, eig):
    """bundle with the blocks of eig, the eigensystem of a bundle at another
    phase of the same density, in bundle's own gauge: no eigh runs."""
    return dataclasses.replace(bundle, _eigensystem=dataclasses.replace(
        eig, gauge=condensate_gauge(bundle.q_diag, bundle.theta)))


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    spec = CASES[request.param]
    bundle = make_bundle(*spec)
    evals, evecs = sla.eigh(bundle.L.matrix.toarray())
    # the clusters of the whole-space eigh, as one block of one eigensystem
    whole = BlockedEigensystem(((np.arange(bundle.dim), evals, evecs),),
                               np.ones(bundle.dim), "sector")
    labels, means = whole.clusters
    groups = [np.flatnonzero(labels == g) for g in range(len(means))]
    return spec, bundle, evals, evecs, groups


def test_charge_commutes_bitwise_without_condensate():
    for spec in CASES.values():
        if spec[5] is not None:
            continue
        b = make_bundle(*spec)
        comm = (b.L.matrix @ b.Q.matrix - b.Q.matrix @ b.L.matrix).tocoo()
        assert not np.any(comm.data)


def test_swap_anticommutes_with_the_conjugated_generator(case):
    # P maps the dot pair (i, j) to (j, i) and exchanges the left and right
    # occupations: P conj(L) P = -L exactly, and P maps sector Q to -Q
    _, b, _, _, _ = case
    perm = b.swap
    mat = b.L.matrix
    assert not np.any((mat[perm][:, perm].conj() + mat).data)
    np.testing.assert_array_equal(b.q_diag[perm], -b.q_diag)
    np.testing.assert_array_equal(perm[perm], np.arange(b.dim))


def test_swap_is_the_tuple_built_involution(case):
    # the bundle's swap is the oracle built from the tuple view of the basis,
    # an involution, and it fixes exactly the kernel_index states
    _, b, _, _, _ = case
    np.testing.assert_array_equal(b.swap, swap_conjugation_permutation(b))
    np.testing.assert_array_equal(b.swap[b.swap], np.arange(b.dim))
    assert (np.count_nonzero(b.swap == np.arange(b.dim))
            == kernel_index(b.dot_spec, b.trunc))


def test_right_halves_are_swap_images_of_the_left(case):
    # standard form V - J V J: I and K are their left half minus its image
    # P conj(.) P under the oracle swap, and A, whose one-body generator has
    # conj(a) = -a, is its left half plus it
    spec, b, _, _, _ = case
    perm = swap_conjugation_permutation(b)

    def image(mat):
        return mat.conj()[perm][:, perm]

    for op, left in ((b.I_op.matrix, b.I_first), (b.K.matrix, b.K_left)):
        assert (op - (left - image(left))).count_nonzero() == 0
    b = make_bundle(*spec)
    if b.grid.spacing == "log":
        scheme, one_body = "log_dilation", dilation_one_body(b.grid)
    else:
        scheme, one_body = ("custom_antisymmetric",
                            antisymmetric_one_body(b.grid, seed=11))
    assemble_conjugate(b, scheme=scheme, seed=11)
    eye_dot = sparse.identity(b.dot_dim ** 2, format="csr", dtype=complex)
    left = sparse.kron(eye_dot, b.basis.dgamma(one_body, "left"), format="csr")
    assert (b.A.matrix - (left + image(left))).count_nonzero() == 0


@pytest.mark.parametrize("spec", [
    (2, "linear", 3, 4, 0.5, None, 1.0),    # L0 has 32 zeros, the kernel 20
    (2, "linear", 3, 4, 0.5, 0.7, 1.0),
    (3, "log", 3, 3, 0.2, None, 1.0),
    (2, "log", 4, 2, 0.3, 1.3, 1.0),
])
def test_kernel_dim_is_the_swap_index(spec):
    b = make_bundle(*spec)
    rep = spectral.solve_near_zero(b, k=4)
    assert rep.kernel_index == kernel_index(b.dot_spec, b.trunc)
    assert rep.kernel_dim == rep.kernel_index
    assert rep.to_dict()["kernel_index"] == rep.kernel_index
    assert not any("swap index" in m for m in rep.messages)


def test_kernel_off_the_swap_index_gets_a_message():
    # at lambda = 0 the kernel is every zero of L0, which on a linear grid
    # are more than the index d * (1 + 3 + 6)
    b = make_bundle(2, "linear", 3, 4, 0.0, None, 1.0)
    rep = spectral.solve_near_zero(b, k=4)
    assert (rep.kernel_dim, rep.kernel_index) == (32, 20)
    assert "kernel_dim 32 differs from the swap index 20" in rep.messages


@pytest.mark.parametrize("theta", [0.0, 0.7, 1.3])
def test_gauged_condensate_block_is_real(theta):
    spec = (2, "log", 3, 2, 0.3, theta, 1.0)
    b = make_bundle(*spec)
    gauge = np.exp(1j * theta * b.q_diag)
    gauged = sparse.diags(gauge.conj()) @ b.L.matrix @ sparse.diags(gauge)
    scale = np.abs(b.L.matrix.data).max()
    assert np.abs(gauged.imag).max() <= 8 * np.finfo(float).eps * scale
    # and it is L(0): the condensate phase is a gauge of the charge
    at_zero = make_bundle(*spec[:5], 0.0, 1.0).L.matrix
    assert abs(gauged - at_zero).max() <= 8 * np.finfo(float).eps * scale
    assert b.eigensystem().telemetry() == {"path": "gauge", "blocks": 1,
                                           "largest_block": b.dim,
                                           "real": True, "chiral": 1}


def test_factorisation_path_and_dtype(case):
    (_, _, _, _, _, theta, amplitude), b, _, _, _ = case
    info = b.eigensystem().telemetry()
    assert info["path"] == ("sector" if theta is None else "gauge")
    assert info["real"] == (amplitude.imag == 0)
    # sector 0 or the gauged L(0) is the one block the swap maps to itself;
    # a complex form factor leaves it complex, and eigh solves it
    assert info["chiral"] == (amplitude.imag == 0)
    if theta is None:
        assert info["blocks"] == len(np.unique(b.q_diag))
        assert info["largest_block"] == np.sum(b.q_diag == 0)


def test_eigenvalues_and_cluster_projectors_match_full_eigh(case):
    _, b, evals, evecs, groups = case
    eig = b.eigensystem()
    norm_l = np.abs(evals).max()
    assert b.norm_L() == pytest.approx(norm_l, rel=1e-12)
    np.testing.assert_allclose(np.sort(eig.evals), evals, rtol=0,
                               atol=1e-12 * norm_l)
    labels, means = eig.clusters
    mine = [np.flatnonzero(labels == g) for g in range(len(means))]
    assert len(mine) == len(groups)
    for g, h in zip(groups, mine):
        ref = evecs[:, g] @ evecs[:, g].conj().T
        vecs = eig.vectors(h)
        np.testing.assert_allclose(vecs @ vecs.conj().T, ref, rtol=0,
                                   atol=1e-10)


def self_mapped_blocks(b):
    """(path, [(block, local swap)]) for the blocks of b's L that the swap
    maps to itself: sector 0, or the gauged L(0)."""
    path, _, blocks = symmetry_blocks(b.L.matrix, b.q_diag, b.theta)
    return path, [(block, np.searchsorted(idx, b.swap[idx]))
                  for idx, block in blocks
                  if path == "gauge" or not b.q_diag[idx[0]]]


@pytest.mark.parametrize("spec", list(CASES.values()), ids=list(CASES))
def test_solve_hook_gets_the_swap_of_the_real_self_mapped_block_alone(spec):
    # one hook solves every block; only a real block that the swap maps to
    # itself (sector 0, or the gauged L(0)) is handed its swap, and there it
    # is the permutation the swap makes of the block's own states
    b = make_bundle(*spec)
    handed = []

    def solve(charge, idx, block, swap):
        handed.append((charge, idx, np.iscomplexobj(block), swap))
        return sla.eigh(block.toarray())

    eig = BlockedEigensystem.of(b, solve)
    chiral = [(charge, idx, swap) for charge, idx, cplx, swap in handed
              if not charge and not cplx]
    assert len(chiral) == eig.chiral == (spec[6].imag == 0)
    for charge, idx, cplx, swap in handed:
        assert charge is None or charge >= 0
        if not charge and not cplx:
            np.testing.assert_array_equal(np.sort(swap), np.arange(len(idx)))
            np.testing.assert_array_equal(idx[swap], b.swap[idx])
        else:
            assert swap is None


@pytest.mark.parametrize("spec", list(CASES.values())
                         + [(3, "log", 3, 2, 0.2, 1.1, 1.0)],
                         ids=list(CASES) + ["d3-log-xi"])
def test_chiral_factorisation_matches_eigh_of_the_block(spec):
    b = make_bundle(*spec)
    path, blocks = self_mapped_blocks(b)
    assert len(blocks) == 1
    ((block, swap),) = blocks
    if np.iscomplexobj(block):
        assert spec[6].imag != 0
        assert b.eigensystem().chiral == 0
        return
    evals, evecs = sla.eigh(block.toarray())
    e, v = chiral_eigh(block, swap)
    norm_l = np.abs(evals).max()
    np.testing.assert_allclose(e, evals, rtol=0, atol=1e-12 * norm_l)
    np.testing.assert_allclose(v.T @ v, np.eye(len(e)), rtol=0, atol=1e-12)
    labels, means = BlockedEigensystem(((swap, evals, evecs),), np.ones(
        len(swap)), path).clusters
    mine, mine_means = BlockedEigensystem(((swap, e, v),), np.ones(
        len(swap)), path).clusters
    assert len(mine_means) == len(means)
    for g in range(len(means)):
        ref, got = evecs[:, labels == g], v[:, mine == g]
        np.testing.assert_allclose(got @ got.T, ref @ ref.T, rtol=0,
                                   atol=1e-10)
    # the fixed states number the exact zeros; on the gauge path they are
    # the whole space's
    assert np.count_nonzero(e == 0) == np.count_nonzero(swap == np.arange(
        len(swap)))
    if path == "gauge":
        assert (np.count_nonzero(b.eigensystem().evals == 0)
                == kernel_index(b.dot_spec, b.trunc))


def test_chiral_factorisation_refuses_a_broken_anticommutation():
    b = make_bundle(2, "log", 3, 2, 0.1, 0.7, 1.0)
    _, ((block, swap),) = self_mapped_blocks(b)
    chiral_eigh(block, swap)
    # one entry and its transpose grow: still symmetric, but P B P != -B
    coo = block.tocoo()
    i, j = next((i, j) for i, j in zip(coo.row, coo.col) if i != j)
    broken = block.tolil()
    broken[i, j] *= 1.5
    broken[j, i] *= 1.5
    with pytest.raises(ValueError, match="anticommute with the swap"):
        chiral_eigh(broken.tocsr(), swap)


REAL_SPECS = {name: spec for name, spec in CASES.items()
              if spec[6].imag == 0}


@pytest.mark.parametrize("spec", list(REAL_SPECS.values()),
                         ids=list(REAL_SPECS))
def test_chiral_kernel_is_the_loewdin_graph_frame(spec):
    # the kernel of x^T as the graph [I; -X_A^-T X_F^T] over the fixed
    # states, orthonormalised by G (G^T G)^-1/2, formed here densely and
    # taken to the block's states: the kernel basis that solve_near_zero
    # reports starts with it, one column per fixed state, and chiral_kernel's
    # kernel spans it
    b = make_bundle(*spec)
    path, gauge, blocks = symmetry_blocks(b.L.matrix, b.q_diag, b.theta)
    ((idx, block),) = [(idx, block) for idx, block in blocks
                       if path == "gauge" or not b.q_diag[idx[0]]]
    swap = np.searchsorted(idx, b.swap[idx])
    u, x = chiral_split(block, swap)
    nf = x.shape[0] - x.shape[1]
    assert nf == kernel_index(b.dot_spec, b.trunc)
    dense = x.toarray()
    graph = np.vstack([np.eye(nf),
                       -np.linalg.solve(dense[nf:].T, dense[:nf].T)])
    ev, vec = np.linalg.eigh(graph.T @ graph)
    loewdin = u[:, :x.shape[0]] @ (graph @ (vec / np.sqrt(ev)) @ vec.T)
    kernel, _, residual = chiral_kernel(block, swap, 1.0)
    np.testing.assert_allclose(kernel @ kernel.T, loewdin @ loewdin.T,
                               rtol=0, atol=1e-11)
    np.testing.assert_allclose(kernel.T @ kernel, np.eye(nf), rtol=0,
                               atol=1e-14)
    assert residual == pytest.approx(
        np.max(np.linalg.norm(block @ kernel, axis=0)), rel=0, abs=1e-15)
    frame = np.zeros((b.dim, nf), dtype=gauge.dtype)
    frame[idx] = loewdin
    frame *= gauge[:, None]
    fixed = b.swap == np.arange(b.dim)
    sigma_min = np.linalg.svd(frame[fixed], compute_uv=False).min()
    rep = spectral.solve_near_zero(b, k=nf + 2)
    assert rep.solver["path"] == f"{path}-shift-invert"
    assert rep.kernel_dim >= nf
    np.testing.assert_allclose(rep.kernel_basis[:, :nf], frame, rtol=0,
                               atol=1e-12)
    assert rep.solver["overlap_sigma_min"] == pytest.approx(sigma_min,
                                                            rel=1e-12)


def test_singular_pair_block_keeps_the_svd_kernel(monkeypatch):
    # at lambda = 0 a linear grid puts L0 zeros on pair states, so X_A is
    # singular: chiral_kernel refuses, and chiral_eigh, which needs no LU,
    # still gives every pair
    b = make_bundle(2, "linear", 3, 4, 0.0, None, 1.0)
    _, ((block, swap),) = self_mapped_blocks(b)
    with pytest.raises(SolverConvergenceError, match="pair x pair part"):
        chiral_kernel(block, swap, 1.0)
    e, v = chiral_eigh(block, swap)
    evals = sla.eigh(block.toarray(), eigvals_only=True)
    np.testing.assert_allclose(e, evals, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(len(e)), rtol=0, atol=1e-12)
    assert np.linalg.norm(block @ v - v * e, axis=0).max() < 1e-12
    # a kernel above the residual bound is refused the same way
    b = make_bundle(2, "log", 3, 2, 0.1, None, 1.0)
    _, ((block, swap),) = self_mapped_blocks(b)
    monkeypatch.setattr(liouville, "RESIDUAL_BOUND", 0.0)
    with pytest.raises(SolverConvergenceError, match="frame residual"):
        chiral_kernel(block, swap, 1.0)


@pytest.mark.parametrize("spec", list(REAL_SPECS.values()),
                         ids=list(REAL_SPECS))
def test_odd_half_pairs_are_the_chiral_svd_pairs(spec):
    # the chiral block's nonzero pairs come from the block iteration on
    # (X^T X)^-1 over the odd states, lifted to +-s: the same pairs as the
    # full SVD of chiral_eigh
    b = make_bundle(*spec)
    norm_l = b.norm_L()
    nf = kernel_index(b.dot_spec, b.trunc)
    eig, solver = spectral.near_zero_eigensystem(b, nf + 6, norm_l)
    (entry,) = [e for e in solver["blocks"] if not e["charge"]]
    assert entry["path"] == "chiral-lu" and entry["fixed"] == nf
    (at,) = [i for i, (idx, _, _) in enumerate(eig.blocks)
             if eig.path == "gauge" or not b.q_diag[idx[0]]]
    idx, evals, vecs = eig.blocks[at]
    assert entry["pairs"] == len(evals) >= nf + 6
    np.testing.assert_array_equal(evals[:nf], 0.0)
    nonzero = np.sort(evals[nf:])
    np.testing.assert_array_equal(nonzero, -nonzero[::-1])
    _, ((block, swap),) = self_mapped_blocks(b)
    ref_e, ref_v = chiral_eigh(block, swap)
    near = np.argsort(np.abs(ref_e), kind="stable")[nf:len(evals)]
    np.testing.assert_allclose(nonzero, np.sort(ref_e[near]), rtol=0,
                               atol=1e-12 * norm_l)
    for e, v in zip(evals[nf:], vecs[:, nf:].T):
        # each pair alone: its eigenvalue is apart from every other one
        ((j,),) = np.nonzero(np.abs(ref_e - e) < 1e-9 * norm_l)
        np.testing.assert_allclose(np.outer(v, v),
                                   np.outer(ref_v[:, j], ref_v[:, j]),
                                   rtol=0, atol=1e-9)
    residuals = np.linalg.norm(block @ vecs - vecs * evals, axis=0)
    assert residuals.max() <= spectral.RESIDUAL_BOUND * norm_l
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(len(evals)), rtol=0,
                               atol=1e-12)


def test_lift_takes_w_along_the_least_norm_solve():
    # an odd vector v_k of X's smallest pair with an error delta along the
    # largest: lifted with w along X+^T v, the pair +s is off by less than
    # delta, where w = X v / s would carry the error times s_max / s_k
    b = make_bundle(*CASES["d2-log-xi"])
    _, ((block, swap),) = self_mapped_blocks(b)
    _, half, _ = chiral_kernel(block, swap, 1.0)
    w, s, vt = np.linalg.svd(half.mat.toarray(), full_matrices=False)
    assert s[0] / s[-1] > 10
    delta = 1e-8
    v = (vt[-1] + delta * vt[0])[:, None] / np.hypot(1, delta)
    evals, vecs = half.lift(s[-1:], v)
    assert evals.tolist() == [-s[-1], s[-1]]
    u, _ = chiral_split(block, swap)
    exact = u @ np.r_[w[:, -1], vt[-1]] / np.sqrt(2)
    assert np.linalg.norm(vecs[:, 1] - exact) < delta
    residual = np.linalg.norm(block @ vecs[:, 1] - s[-1] * vecs[:, 1])
    assert half.pairs(v, s[-1:])[2][0] == pytest.approx(residual, rel=1e-6)


@pytest.mark.parametrize("name", ["d2-log", "d2-log-xi", "d2-log-complex",
                                  "d2-log-xi-complex"])
def test_near_zero_solve_reaches_the_whole_spectrum(name):
    # k = dim: the block path reports every eigenvalue of L, the kernel as
    # 0.0, as the multiset of a complex eigvalsh of the whole space
    b = make_bundle(*CASES[name])
    evals = sla.eigvalsh(b.L.matrix.toarray())
    rep = spectral.solve_near_zero(b, k=b.dim)
    assert len(rep.eigenvalues) == b.dim
    np.testing.assert_allclose(np.sort(rep.eigenvalues), evals, rtol=0,
                               atol=1e-12 * np.abs(evals).max())


def test_equilibrium_vector_is_the_kms_kernel_vector(case):
    # one projection: onto the eigensystem's zero cluster and onto the
    # near-zero report's kernel basis
    _, b, _, _, _ = case
    state, energy, captured = dynamics.equilibrium_vector(b)
    rep = spectral.solve_near_zero(b, k=4)
    psi, kernel_captured = spectral.kms_kernel_vector(b, rep)
    u, v = state.amplitudes, psi.amplitudes
    phase = np.vdot(v, u) / abs(np.vdot(v, u))
    assert np.linalg.norm(u - phase * v) <= 1e-12
    assert captured == pytest.approx(kernel_captured, rel=1e-12)
    assert abs(energy) < rep.kernel_tol


def test_orthogonal_kernel_panel_ignores_the_kernel_basis(rng):
    b = make_bundle(2, "log", 4, 3, 0.1, None, 1.0)
    rep = spectral.solve_near_zero(b, k=4)
    psi, _ = spectral.kms_kernel_vector(b, rep)
    table = spectral.orthogonal_kernel_panel(b, rep, psi)
    n = rep.kernel_dim
    unitary, _ = np.linalg.qr(rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))
    rotated = dataclasses.replace(rep, kernel_basis=rep.kernel_basis @ unitary)
    moved = spectral.orthogonal_kernel_panel(b, rotated, psi)
    assert moved.keys() == table.keys()
    assert max(table.values()) > 0.1
    for name, value in table.items():
        assert abs(moved[name] - value) <= 1e-12, name


def full_rte(b, evals, evecs, groups, a, bop, T):
    """Whole-space reference of dynamics.rte_deviation."""
    ref = kms_vector(b)[0].amplitudes
    c = evecs.conj().T @ ref
    proj = [evecs[:, g] @ c[g] for g in groups]
    w = max(proj, key=np.linalg.norm)
    w = w / np.linalg.norm(w)
    v = bop @ w
    c = evecs.conj().T @ v
    proj = [evecs[:, g] @ c[g] for g in groups]
    limit = sum(np.vdot(p, a @ p).real for p in proj)
    omega_bb = sum(np.vdot(p, p).real for p in proj)
    omega_a = np.vdot(w, a @ w).real
    weight = np.outer(c.conj(), c) * (evecs.conj().T @ (a @ evecs))
    x = evals[:, None] - evals[None, :]

    def mean(t):
        y = t * x
        small = np.abs(y) < 1e-8
        safe = np.where(small, 1.0, y)
        phi = np.where(small, 1.0 + 0.5j * y,
                       (np.exp(1j * safe) - 1.0) / (1j * safe))
        return np.sum(weight * phi).real

    return {"ergodic_limit": limit, "omega_bb": omega_bb, "omega_a": omega_a,
            "deviation": abs(limit - omega_bb * omega_a),
            "finite_T": [{"finite_mean": mean(t),
                          "extrapolated": 2 * mean(2 * t) - mean(t)}
                         for t in T]}


@pytest.mark.parametrize("observable", ["projector", "hop", "non-hermitian"])
def test_rte_deviation_matches_full_path(case, observable):
    (d, *_), b, evals, evecs, groups = case
    a = dynamics.dot_observable(b, np.diag(np.arange(d) == d - 1) * 1.0)
    gm, gp = lower_raise(bd.DotSpec(d=d))
    bop = a if observable == "projector" else dynamics.dot_observable(
        b, gm + gp)
    if observable == "non-hermitian":
        # A != A^H: W is not Hermitian, and both W_jk and W_kj enter
        a = dynamics.dot_observable(
            b, np.diag(np.arange(d) == d - 1) * (1.0 + 0.5j) + 0.4 * gm
            + 0.3j * gm @ gm + 0.2 * np.eye(d))
    T = [50.0, 400.0]
    out = dynamics.rte_deviation(b, a, bop, T=T, a_norm=1.0)
    ref = full_rte(b, evals, evecs, groups, a, bop, T)
    scale = max(abs(ref["ergodic_limit"]), abs(ref["omega_bb"]))
    for key in ("ergodic_limit", "omega_bb", "omega_a", "deviation"):
        assert out[key] == pytest.approx(ref[key], rel=1e-12,
                                         abs=1e-12 * scale), key
    for got, want in zip(out["finite_T"], ref["finite_T"]):
        for key in ("finite_mean", "extrapolated"):
            assert got[key] == pytest.approx(want[key], rel=1e-12,
                                             abs=1e-12 * scale), key


def test_evolve_matches_full_eigh(case, rng):
    _, b, evals, evecs, _ = case
    v = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    ref = evecs @ (np.exp(-1.3j * evals) * (evecs.conj().T @ v))
    out = dynamics.evolve(b, v, 1.3).amplitudes
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(v)


def test_norm_L_is_the_same_before_and_after_the_factorisation():
    # dim 2244, above the dense cutoff; its largest charge sector holds 546
    b = make_bundle(2, "log", 16, 2, 0.3, None, 1.0)
    assert b.dim == 2244
    before = b.norm_L()
    norm_l = np.abs(b.eigensystem().evals).max()
    assert b.norm_L() == before
    assert before == pytest.approx(norm_l, rel=1e-12)


@pytest.fixture
def no_factorisation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a symmetry block was factorised")

    monkeypatch.setattr(liouville, "eigh", refuse)
    monkeypatch.setattr(liouville, "chiral_eigh", refuse)


@pytest.mark.parametrize("name", list(CASES))
def test_norm_L_and_evolve_never_factorise(no_factorisation, rng, name):
    # nor do C10's exact propagator and its Dyson comparison: only rte
    # reads the factorisation
    d, spacing, n_modes, n_max, lam, theta, amplitude = CASES[name]
    b = make_bundle(*CASES[name])
    assert b.dim <= liouville.DENSE_CUTOFF
    assert b.norm_L() > 0
    v = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    dynamics.evolve(b, v, 1.3)
    x = np.diag(np.arange(d, dtype=float))
    dynamics.heisenberg_exact(b, dynamics.dot_observable(b, x), 1.3)
    bundles = [b]

    def at(coupling):
        bundles.append(make_bundle(d, spacing, n_modes, n_max, coupling,
                                   theta, amplitude))
        return bundles[-1]

    dynamics.dyson_comparison(at, lambda c: dynamics.dot_observable(c, x),
                              lam, 0.5, halvings=1, order=1, n_steps=4)
    assert len(bundles) == 3
    assert all(c._eigensystem is None for c in bundles)


def test_norm_L_of_the_zero_generator_is_zero(no_factorisation):
    # d = 1 and n_max = 0: dim 1, and L has no nonzero entry, which ARPACK
    # refuses
    b = make_bundle(1, "log", 1, 0, 0.3, None, 1.0)
    assert b.dim == 1 and b.L.matrix.count_nonzero() == 0
    assert b.norm_L() == 0.0


def test_hop_reaches_only_the_unit_charge_sectors():
    b = make_bundle(*CASES["d2-log"])
    omega = dynamics.equilibrium_vector(b)[0].amplitudes
    gm, gp = lower_raise(bd.DotSpec(d=2))
    rows, _, _, _ = b.eigensystem().support(
        dynamics.dot_observable(b, gm + gp) @ omega)
    assert set(np.unique(b.q_diag[rows])) == {-1.0, 1.0}
    assert set(np.unique(b.q_diag[np.flatnonzero(omega)])) == {0.0}


@pytest.mark.parametrize("observable", ["hop", "projector"])
def test_shared_factorisation_matches_per_theta(observable):
    # the four phases of uniform_theta with n_theta 4: per-theta bundles
    # factorise their own L, shared ones regauge the theta = 0 blocks
    spec = (2, "log", 3, 2, 0.1)
    thetas = [2.0 * np.pi * j / 4 for j in range(4)]
    own = [make_bundle(*spec, theta, 1.0) for theta in thetas]
    first = make_bundle(*spec, thetas[0], 1.0)
    shared = [first] + [on_blocks(make_bundle(*spec, theta, 1.0),
                                  first.eigensystem())
                        for theta in thetas[1:]]
    x = hop_matrix(2) if observable == "hop" else np.diag([0.0, 1.0])
    for b_own, b in zip(own, shared):
        eig = b.eigensystem()
        assert eig.telemetry() == b_own.eigensystem().telemetry()
        norm_l = b.norm_L()
        vecs = eig.vectors(np.arange(b.dim))
        residuals = np.linalg.norm(b.L.matrix @ vecs - vecs * eig.evals,
                                   axis=0)
        assert residuals.max() <= 1e-12 * norm_l

        a = dynamics.dot_observable(b, x)
        got = dynamics.rte_deviation(b, a, a, T=[50.0, 400.0], a_norm=1.0)
        want = dynamics.rte_deviation(b_own, a, a, T=[50.0, 400.0],
                                      a_norm=1.0)
        # a single run is the first phase of its own sweep
        assert got["factorised"] and want["factorised"]
        for key in ("deviation", "ergodic_limit", "omega_bb"):
            assert got[key] == pytest.approx(want[key], rel=1e-12), key
        for g, w in zip(got["finite_T"], want["finite_T"]):
            assert g["n_clusters"] == w["n_clusters"]
            assert g["messages"] == w["messages"]
            for key in ("finite_mean", "extrapolated", "closed_form", "T",
                        "min_cluster_gap"):
                assert g[key] == pytest.approx(w[key], rel=1e-12), key


def test_spectral_report_is_gauge_invariant():
    # a bundle at theta on the blocks of the theta = 0 bundle has the
    # eigenvectors e^{i theta Q} psi, and every field of its report (the
    # virial value, the diagonal weights, each panel entry in its one charge
    # sector) agrees with the theta = 0 report up to rounding: the CLI gives
    # every phase of a density that one report
    spec = (2, "log", 3, 2, 0.1)

    def report(b):
        assemble_conjugate(b, scheme="log_dilation", seed=11)
        rep = spectral.solve_near_zero(b, 12)
        return spectral.attach_diagnostics(b, rep).to_dict()

    first = make_bundle(*spec, 0.0, 1.0)
    want = report(first)
    assert len(want["diagnostics"]) == 12
    for theta in (0.7, 2.9):
        b = on_blocks(make_bundle(*spec, theta, 1.0), first.eigensystem())
        assert_runs_agree(report(b), want)


def assert_runs_agree(got, want, path="", window_scale=False, scale=None):
    """Every field of two rte runs or spectral reports, numbers to 1e-12
    relative (1e-15 absolute below 1e-15), everything else exactly.  With
    window_scale, a number of a finite-T window agrees to 1e-12 of the
    window's largest |value|."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        if window_scale and "finite_mean" in want:
            scale = max(abs(want[k]) for k in ("finite_mean", "extrapolated",
                                              "closed_form"))
        for key in want:
            assert_runs_agree(got[key], want[key], f"{path}/{key}",
                              window_scale, scale)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for g, w in zip(got, want):
            assert_runs_agree(g, w, path + "[]", window_scale, scale)
    elif isinstance(want, float):
        tol = 1e-12 * scale if scale is not None else 1e-15
        assert got == pytest.approx(want, rel=1e-12, abs=tol), path
    else:
        assert got == want, path


NON_HERMITIAN = {2: [[0.3, 1.0 + 0.5j], [0.2j, -0.7]],
                 3: [[0.3, 1.0 + 0.5j, 0.0], [0.2j, -0.7, 0.4],
                     [0.6 - 0.1j, 0.0, 0.1j]]}


@pytest.mark.parametrize("observable", ["projector", "hop", "non-hermitian"])
@pytest.mark.parametrize("spec", [(2, "log", 3, 2, 0.1),
                                  (3, "linear", 2, 2, 0.2)],
                         ids=["d2", "d3"])
def test_theta_sweep_matches_bundles_factorised_per_theta(spec, observable):
    # one bundle at the first phase gives every phase of its density; the
    # references build and project a bundle at each phase
    d = spec[0]
    thetas = [0.7, 0.0, 2.0 * np.pi / 5, np.pi, 4.4]
    x = {"projector": np.diag(np.arange(d) == d - 1) * 1.0,
         "hop": hop_matrix(d),
         "non-hermitian": np.array(NON_HERMITIAN[d])}[observable]
    b = make_bundle(*spec, thetas[0], 1.0)
    a = dynamics.dot_observable(b, x)
    runs, series = dynamics.rte_deviation(b, a, a, T=[50.0, 400.0],
                                          a_norm=1.0, thetas=thetas)
    assert len(runs) == len(thetas)
    if observable == "projector":
        assert list(series.freqs) == [0]
    # the series of the density sums to the real numbers of each run
    for theta, run in zip(thetas, runs):
        phases = np.exp(1j * theta * series.freqs)
        for coef, key in ((series.limit, "ergodic_limit"),
                          (series.omega_bb, "omega_bb"),
                          (series.omega_a, "omega_a")):
            value = phases @ coef
            assert value.real == pytest.approx(run[key], rel=1e-12,
                                               abs=1e-15), key
            assert abs(value.imag) <= 1e-14
    for n, (theta, run) in enumerate(zip(thetas, runs)):
        assert run.pop("factorised") == (n == 0)
        # a bundle at theta on the blocks of b, and one that factorises its
        # own L: two factorisations move a finite-T mean at T = 400 by up to
        # 1.4e-12 of itself at d = 3, so there the window's scale is the unit
        shared = on_blocks(make_bundle(*spec, theta, 1.0), b.eigensystem())
        own = make_bundle(*spec, theta, 1.0)
        for ref in (shared, own):
            a_ref = dynamics.dot_observable(ref, x)
            want = dynamics.rte_deviation(ref, a_ref, a_ref, T=[50.0, 400.0],
                                          a_norm=1.0)
            assert want.pop("factorised")
            assert_runs_agree(run, want, window_scale=ref is own)


@pytest.mark.parametrize("observable", ["identity", "hop"])
def test_theta_sweep_identity_deviation_is_exactly_zero(observable):
    b = make_bundle(3, "linear", 2, 2, 0.2, 1.3, 1.0)
    eye = sparse.identity(b.dim, format="csr", dtype=complex)
    bop = eye if observable == "identity" else dynamics.dot_observable(
        b, hop_matrix(3))
    runs, _ = dynamics.rte_deviation(
        b, eye, bop, T=[50.0], a_norm=1.0,
        thetas=[1.3, 0.0, 0.4, 2.0, np.pi, 5.9])
    for run in runs:
        assert run["deviation"] == 0.0
        assert run["omega_a"] == 1.0
        assert run["ergodic_limit"] == run["omega_bb"]


@pytest.mark.parametrize("window_slice", [None, 3 * 112],
                         ids=["default-slice", "cluster-above-slice"])
def test_streamed_pass_matches_the_dense_double_sum(monkeypatch,
                                                    window_slice):
    # a condensate and a non-Hermitian X with the charge parts -1, 0 and 1:
    # the pass sums several frequencies per phase.  The reference factorises
    # L(theta) whole at each phase, sums W_jk phi(T (e_j - e_k)) over every
    # pair and S_gh over every pair of clusters.  A slice of 3 * 112 entries
    # holds 3 of the 112 columns, fewer than the zero cluster
    spec = (2, "log", 3, 2, 0.1)
    thetas, T = [0.7, 0.0, 2.9], [5.0, 400.0]
    x = np.array(NON_HERMITIAN[2])
    b = make_bundle(*spec, thetas[0], 1.0)
    if window_slice is not None:
        monkeypatch.setattr(dynamics, "WINDOW_SLICE", window_slice)
        labels, _ = b.eigensystem().clusters
        assert b.dim == 112 and np.bincount(labels).max() > 3
    a = dynamics.dot_observable(b, x)
    w = dynamics.equilibrium_vector(b)[0].amplitudes
    runs, _ = dynamics._ergodic_pass(b.eigensystem(), b.q_diag, a, a, w,
                                     thetas, T)
    shares = []
    for theta, (limit, omega_bb, omega_a, reports) in zip(thetas, runs):
        ref_b = make_bundle(*spec, theta, 1.0)
        evals, evecs = sla.eigh(ref_b.L.matrix.toarray())
        # clusters split at gaps of CLUSTER_TOL * max(max|e|, 1)
        tol = liouville.CLUSTER_TOL * max(np.abs(evals).max(), 1.0)
        groups = np.split(np.arange(ref_b.dim),
                          np.flatnonzero(np.diff(evals) >= tol) + 1)
        a_ref = dynamics.dot_observable(ref_b, x)
        ref = full_rte(ref_b, evals, evecs, groups, a_ref, a_ref, T)
        scale = max(abs(ref["ergodic_limit"]), abs(ref["omega_bb"]))
        for got, key in ((limit, "ergodic_limit"), (omega_bb, "omega_bb"),
                         (omega_a, "omega_a")):
            assert got == pytest.approx(ref[key], rel=1e-12,
                                        abs=1e-12 * scale), key
        # S_gh = <P_g v, A P_h v> over the cluster projections of v = A w,
        # w the KMS vector's largest cluster projection, as in full_rte
        ref_w = kms_vector(ref_b)[0].amplitudes
        proj = [evecs[:, g] @ (evecs[:, g].conj().T @ ref_w) for g in groups]
        v = a_ref @ max(proj, key=np.linalg.norm)
        proj = [evecs[:, g] @ (evecs[:, g].conj().T @ v) for g in groups]
        s = np.abs([[np.vdot(p, a_ref @ q) for q in proj] for p in proj])
        means = np.array([evals[g].mean() for g in groups])
        gaps = np.abs(np.subtract.outer(means, means))
        np.fill_diagonal(gaps, np.inf)
        for rep, t, want in zip(reports, T, ref["finite_T"]):
            for key in ("finite_mean", "extrapolated"):
                assert getattr(rep, key) == pytest.approx(
                    want[key], rel=1e-12, abs=1e-12 * scale), key
            share = s[t * gaps < 10].sum() / s.sum()
            assert rep.share == pytest.approx(share, rel=1e-12, abs=1e-15)
            shares.append(rep.share)
    assert max(shares) > 1e-2
