"""Eigenanalysis of the assembled generator and its structural diagnostics.

Everything here works on an OperatorBundle: near-zero eigensolves with
post-hoc residuals, the per-vector diagnostics of all reported eigenvectors
at once (virial value, lambda weight, structure overlap and a fixed panel),
the dot-local level-shift matrix with its gap, and a
resolvent-sandwich estimate of that matrix from the assembled interaction,
which needs only the bundle's lambda-free parts (liouville.FirstParts).
"""

from dataclasses import dataclass, field as dfield

import numpy as np
from scipy import sparse
import scipy.linalg as sla
from scipy.sparse.linalg import splu

from . import dot as dotmod
from .fock import SolverConvergenceError
from .liouville import (CLUSTER_TOL, RESIDUAL_BOUND, BlockedEigensystem,
                        _project_out, chiral_kernel, equilibrium_projection,
                        kernel_index, real_if_exact)


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    vectors: np.ndarray          # columns are eigenvectors
    residuals: np.ndarray        # ||(L - e) psi|| per pair
    kernel_tol: float
    kernel_dim: int
    kernel_index: int            # swap index, liouville.kernel_index
    kernel_basis: np.ndarray     # orthonormal columns, solve_near_zero's frame
    norm_L: float
    solver: dict = dfield(default_factory=dict)   # path and block telemetry
    messages: tuple = ()
    diagnostics: list = dfield(default_factory=list)

    def to_dict(self):
        out = {
            "eigenvalues": [float(e) for e in self.eigenvalues],
            "residuals": [float(r) for r in self.residuals],
            "kernel_tol": self.kernel_tol,
            "kernel_dim": self.kernel_dim,
            "kernel_index": self.kernel_index,
            "norm_L": self.norm_L,
            "solver": self.solver,
            "messages": list(self.messages),
        }
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


@dataclass
class LevelShiftReport:
    a: float
    gamma_tilde: np.ndarray
    shell_weight: float
    gamma: np.ndarray
    gap: float
    kernel_vector: np.ndarray
    kernel_residual: float
    alignment: float = None

    def to_dict(self):
        out = {
            "a": self.a,
            "gamma_tilde": self.gamma_tilde.tolist(),
            "shell_weight": self.shell_weight,
            "gap": self.gap,
            "kernel_vector": self.kernel_vector.tolist(),
            "kernel_residual": self.kernel_residual,
            "gamma": self.gamma.tolist(),
        }
        if self.alignment is not None:
            out["alignment"] = self.alignment
        return out


@dataclass
class SandwichReport:
    matrix: np.ndarray
    fit_constant: float
    misfit: float
    gibbs_overlap: float
    oracle_constant: float
    messages: tuple = ()


# ---------------------------------------------------------------------------
# eigensolves

# shift of the block factorisation, relative to ||L||: small enough that the
# pairs nearest the shift are the pairs nearest zero, large enough to keep
# L - shift away from the exact kernel
SHIFT = -3.7e-6
# start columns beyond the wanted pairs (indicator guards; one dense probe
# column comes on top)
BLOCK_GUARDS = 6
# applications of (L - shift)^-1 per block iteration
KRYLOV_DEPTH = 5
MAX_BLOCK_ITERATIONS = 100
# iterations in which a block's largest unlocked residual has to halve
STAGNATION_WINDOW = 5
# what solve_near_zero flags
RESIDUAL_FLAG = 1e-8    # a residual above this * max(||L||, 1)
NEAR_DEGENERATE = 1e-9  # a spacing below this of two pairs outside the kernel
OVERLAP_FLOOR = 1e-3    # an overlap_sigma_min below this


def _orthonormalize(w, basis):
    """Orthonormal columns spanning w with its part in span(basis) removed.

    Two projection passes before and after a pivoted QR of the columns
    scaled to unit norm: only a column whose remainder is below 1e-13 of
    its own norm is dropped (the small remainders of nearly converged
    vectors are their corrections).  A Cholesky QR then restores the
    orthonormality the QR of small remainders loses.
    """
    norms = np.linalg.norm(w, axis=0)
    q, r, _ = sla.qr(_project_out(w / np.where(norms > 0, norms, 1), basis),
                     mode="economic", pivoting=True)
    keep = np.abs(np.diag(r)) > 1e-13
    q = _project_out(q[:, :int(np.cumprod(keep).sum())], basis)
    r = sla.cholesky(q.conj().T @ q)
    return sla.solve_triangular(r, q.T, trans="T").T


def _start_block(l0_diag, width, dtype):
    """Indicator columns of the states with smallest |L0|, plus a dense probe.

    The indicators of the L0 kernel come first.  The probe column has weight
    on every state of the block, and a pair near zero that the indicators
    miss grows out of it.
    """
    n = len(l0_diag)
    states = np.argsort(np.abs(l0_diag), kind="stable")[:width]
    block = np.zeros((n, len(states) + 1), dtype=dtype)
    block[states, np.arange(len(states))] = 1.0
    # equidistributed, fixed and free of the basis-order symmetries of ones
    block[:, -1] = (np.arange(n) * 0.6180339887498949) % 1.0 - 0.5
    return block


@dataclass(frozen=True)
class ShiftInvertFactor:
    """block_iteration's factor of mat: solve applies (mat - shift)^-1 by a
    sparse LU, scale = max(||L||, 1) sets the shift and the residual bound,
    rayleigh_ritz gives mat's Ritz pairs on a span with their residual
    norms, and pairs(v) each column's Rayleigh quotient, v and residual."""

    mat: sparse.csr_matrix
    solve: object
    scale: float

    def rayleigh_ritz(self, span):
        image = self.mat @ span
        g = span.conj().T @ image
        evals, c = np.linalg.eigh(0.5 * (g + g.conj().T))
        return (evals, span @ c,
                np.linalg.norm(image @ c - (span @ c) * evals, axis=0))

    def pairs(self, vecs):
        image = self.mat @ vecs
        rq = np.real(np.einsum("ij,ij->j", vecs.conj(), image))
        return rq, vecs, np.linalg.norm(image - vecs * rq, axis=0)


def shift_invert_factor(mat, norm_l):
    """The ShiftInvertFactor of mat, the LU with an MMD ordering on A + A^T.
    One factor serves every call on the same matrix."""
    scale = max(norm_l, 1.0)
    shifted = mat - SHIFT * scale * sparse.identity(
        mat.shape[0], dtype=mat.dtype, format="csr")
    try:
        lu = splu(shifted.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverConvergenceError(
            f"shift-invert factorisation: {exc}") from exc
    return ShiftInvertFactor(mat, lu.solve, scale)


def block_iteration(factor, want, l0_diag, start=None):
    """The want pairs of the factor nearest its shift: eigenpairs of mat
    for a ShiftInvertFactor, singular pairs (s, v) of X, a chiral block's
    odd half, for a liouville.ChiralInverse.  Each iteration applies
    factor.solve KRYLOV_DEPTH times to the active block, keeps the Ritz
    pairs of the inverse with the largest |mu|, locks the leading ones whose
    factor.pairs residuals are below a tenth of the bound, and refines the
    rest by factor.rayleigh_ritz, until every residual is below
    RESIDUAL_BOUND * factor.scale, or raises SolverConvergenceError once the
    largest unlocked residual has not halved in STAGNATION_WINDOW iterations.
    It starts from _start_block(l0_diag) (no seed), led by start, an earlier
    call's Ritz block.  Returns (values by increasing modulus, vectors,
    iterations, Ritz block: the pairs, then the guard Ritz vectors).
    """
    n = len(l0_diag)
    if want == 0:
        none = np.zeros((n, 0), dtype=factor.mat.dtype)
        return np.zeros(0), none, 0, none
    bound = RESIDUAL_BOUND * factor.scale
    width = min(want + BLOCK_GUARDS, n - 1)
    block = _start_block(l0_diag, width, factor.mat.dtype)
    if start is not None:
        block = np.hstack([start, block[:, start.shape[1]:]])[:, :width + 1]
    locked = np.zeros((n, 0), dtype=factor.mat.dtype)
    worst = []      # the largest unlocked residual of each iteration
    for iteration in range(1, MAX_BLOCK_ITERATIONS + 1):
        basis, images = [], []
        v = _orthonormalize(block, locked)
        for depth in range(KRYLOV_DEPTH):
            basis.append(v)
            images.append(factor.solve(v))
            if depth + 1 < KRYLOV_DEPTH:
                v = _orthonormalize(images[-1], np.hstack([locked] + basis))
        b = np.hstack(basis)
        h = b.conj().T @ np.hstack(images)
        mu, w = np.linalg.eigh(0.5 * (h + h.conj().T))
        active = want - locked.shape[1]
        order = np.argsort(-np.abs(mu), kind="stable")
        ritz = b @ w[:, order[:width + 1 - locked.shape[1]]]
        if ritz.shape[1] < active:
            raise SolverConvergenceError(
                f"start block reaches {locked.shape[1] + ritz.shape[1]} of "
                f"{want} pairs")

        wanted = ritz[:, :active]
        evals, vecs, residuals = factor.rayleigh_ritz(
            np.hstack([locked, wanted]))
        if np.all(residuals <= bound):
            order = np.argsort(np.abs(evals), kind="stable")
            return (evals[order], vecs[:, order], iteration,
                    np.hstack([vecs[:, order], ritz[:, active:]]))

        unlocked = factor.pairs(wanted)[2]
        worst.append(unlocked.max())
        if (len(worst) > STAGNATION_WINDOW
                and worst[-1] > 0.5 * worst[-1 - STAGNATION_WINDOW]):
            raise SolverConvergenceError(
                f"block iteration: largest residual {worst[-1]:.3g} above "
                f"{bound:.3g} has not halved in {STAGNATION_WINDOW} "
                "iterations")
        # lock the leading pairs that are well inside the bound
        done = unlocked <= 0.1 * bound
        nlock = int(np.cumprod(done).sum())
        locked = np.hstack([locked, ritz[:, :nlock]])
        block = ritz[:, nlock:]
    raise SolverConvergenceError(
        f"block shift-invert: residuals above {bound:.3g} after "
        f"{MAX_BLOCK_ITERATIONS} iterations")


def near_zero_eigensystem(bundle, want, norm_l):
    """The BlockedEigensystem of the pairs of L nearest zero, by
    block_iteration on each symmetry block's own (real where the gauged
    entries are) matrix.  A real block that the swap maps to itself is
    chiral: its kernel is liouville.chiral_kernel's, and each s of its odd
    half gives the pairs +-s (shift-invert where the kernel is refused).  A
    sector Q != 0 and its mirror are skipped when Weyl's bound min|L0| -
    max row sum |B_Q - diag(L0)| is past the want-th smallest |e| found,
    which only shrinks; else it doubles its pairs from max(1, its L0 zeros),
    each time from the Ritz block before, while its farthest is nearer zero
    than that |e|.  A shift-inverted block's kernel columns get one more
    solve and a QR.  Returns the eigensystem and the solver entry: the path,
    per block solve its charge, path, size, pairs and iterations (a chiral
    block's fixed states and kernel residual, a refused kernel's reason, a
    skipped sector's bound), and the number of mirrored sectors."""
    found, solves = [], []      # |e| of every pair so far, mirrors included
    scale = max(norm_l, 1.0)

    def kth(*more):     # the want-th smallest |e| of found and more, or inf
        found_abs = np.sort(np.concatenate(found + list(more)))
        return found_abs[want - 1] if len(found_abs) >= want else np.inf

    def solve(charge, idx, block, swap):
        l0 = bundle.l0_diag[idx]
        entry = {"charge": charge, "path": "shift-invert", "size": len(idx)}
        if charge:
            # Weyl: no |e| of the sector is below bound
            bound = float(np.min(np.abs(l0)) - np.max(
                abs(block - sparse.diags(l0)).sum(axis=1)))
            if bound > kth() + CLUSTER_TOL * scale:
                solves.append({**entry, "path": "skipped", "bound": bound,
                               "pairs": 0, "iterations": 0})
                return np.zeros(0), np.zeros((len(idx), 0), block.dtype)
        kernel, factor, lift = np.zeros((len(idx), 0)), None, lambda *p: p
        if swap is not None:
            try:
                kernel, factor, residual = chiral_kernel(block, swap, scale)
            except SolverConvergenceError as exc:
                entry["frame_refused"] = str(exc)
            else:
                nf, lift = kernel.shape[1], factor.lift
                # the nonzero pairs, whole: a singular value s gives +-s
                pairs = -(-(max(want, int(np.sum(l0 == 0))) - nf) // 2)
                l0 = factor.odd @ np.abs(l0)
                entry.update(path="chiral-lu", fixed=nf,
                             kernel_residual=residual)
        if factor is None:
            factor = shift_invert_factor(block, norm_l)
            pairs = want if not charge else max(1, int(np.sum(l0 == 0)))
        ritz = None
        while True:
            # pairs is never below the block's own L0 zeros
            evals, vecs, iterations, ritz = block_iteration(
                factor, min(pairs, len(l0)), l0, start=ritz)
            evals, vecs = lift(evals, vecs)
            solves.append({**entry, "pairs": kernel.shape[1] + len(evals),
                           "iterations": iterations})
            # the sector's own pairs count twice: once more for their mirrors
            if (not charge or len(evals) == len(idx)
                    or np.max(np.abs(evals)) >= kth(*[np.abs(evals)] * 2)):
                break
            pairs *= 2
        zero = np.abs(evals) < CLUSTER_TOL * scale
        if entry["path"] == "shift-invert" and zero.any():
            # one more inverse step: shift-invert stops with its kernel
            # columns only about as accurate as the residual bound
            vecs[:, zero] = np.linalg.qr(factor.solve(vecs[:, zero]))[0]
        evals = np.r_[np.zeros(kernel.shape[1]), evals]
        found.extend([np.abs(evals)] * (2 if charge else 1))
        return evals, np.hstack([kernel, vecs])

    eig = BlockedEigensystem.of(bundle, solve)
    return eig, {"path": f"{eig.path}-shift-invert",
                 "real": eig.telemetry()["real"], "blocks": solves,
                 "mirrored": len({s["charge"] for s in solves
                                  if s["charge"]})}


def solve_near_zero(bundle, k):
    """Eigenpairs of L nearest zero, with verified residuals and whole kernel.

    At least k pairs are reported, by |e| and then by e: the max(k, #zeros
    of L0) of near_zero_eigensystem, at every dimension, with no seed and
    no dense factorisation.  ||L|| is L's row-sum bound.

    The kernel is the pairs with |e| < CLUSTER_TOL * max(||L||, 1), reported
    as 0.0 with the residual ||L k||.  Its basis is formed from the solved
    orthonormal kernel columns N alone: with the full SVD N_F^H = U S V^H of
    N's rows at the swap-fixed states F, it is N [U_1 V^H, U_2], whose first
    |F| columns, the Loewdin frame of the e_F projected onto the kernel, are
    free of N's rotation; the rest, accidental zeros, are not (N U where the
    kernel is smaller than |F|).  solver.overlap_sigma_min is min S.

    Messages flag residuals above RESIDUAL_FLAG * max(||L||, 1), an
    overlap_sigma_min below OVERLAP_FLOOR, pairs outside the kernel spaced
    below NEAR_DEGENERATE, a kernel filling every reported pair, and a
    kernel of real (gauged) L larger than the swap index, which bounds it
    from below: a smaller one is a certain miss, SolverConvergenceError.
    """
    mat = bundle.L.matrix
    if k > mat.shape[0]:
        raise ValueError("more eigenpairs requested than the dimension")
    norm_l = bundle.L.norm_bound()
    kernel_tol = CLUSTER_TOL * max(norm_l, 1.0)
    want = max(k, int(np.sum(bundle.l0_diag == 0)))
    eig, solver = near_zero_eigensystem(bundle, want, norm_l)
    order = np.lexsort((eig.evals, np.abs(eig.evals)))[:want]
    evals, evecs = eig.evals[order], eig.vectors(order)
    real = eig.telemetry()["real"]
    del eig     # near-zero blocks are not kept past the selection

    # the kernel leads the selection, by |e|
    kdim = int(np.sum(np.abs(evals) < kernel_tol))
    fixed = np.flatnonzero(bundle.swap == np.arange(len(bundle.swap)))
    rot, s, vh = sla.svd(evecs[fixed, :kdim].conj().T)
    if kdim >= len(fixed):
        rot[:, :len(fixed)] = rot[:, :len(fixed)] @ vh
    evecs[:, :kdim] = evecs[:, :kdim] @ rot
    evals[:kdim] = 0.0
    sigma = solver["overlap_sigma_min"] = float(s.min()) if kdim else 0.0
    residuals = np.linalg.norm(mat @ evecs - evecs * evals, axis=0)

    messages = []
    bad = residuals > RESIDUAL_FLAG * max(norm_l, 1.0)
    if np.any(bad):
        messages.append(f"{int(bad.sum())} residuals above verification bound")
    if kdim and sigma < OVERLAP_FLOOR:
        messages.append(f"overlap_sigma_min {sigma:.3g} < {OVERLAP_FLOOR:g}: "
                        "ill-conditioned fixed-state labels")

    spacings = np.diff(np.sort(evals[kdim:]))
    if len(spacings) and np.any((spacings > 0) & (spacings < NEAR_DEGENERATE)):
        messages.append(f"near-degenerate pairs: spacing < {NEAR_DEGENERATE:g}")

    if kdim == len(evals):
        messages.append(f"kernel fills all {kdim} reported pairs (k = {k})")
    index = kernel_index(bundle.dot_spec, bundle.trunc)
    if real and kdim < index:
        raise SolverConvergenceError(
            f"kernel_dim {kdim} is below the swap index {index}: kernel "
            "vectors were missed")
    if real and kdim > index:
        messages.append(f"kernel_dim {kdim} differs from the swap index "
                        f"{index}")

    return SpectralReport(
        eigenvalues=evals, vectors=evecs, residuals=residuals,
        kernel_tol=kernel_tol, kernel_dim=kdim, kernel_index=index,
        kernel_basis=evecs[:, :kdim],
        norm_L=norm_l, solver=solver, messages=tuple(messages))


# ---------------------------------------------------------------------------
# per-vector diagnostics

def _default_panel(bundle):
    """Fixed low-excitation test vectors for weak-overlap tables: their names
    and the matrix whose columns they are.

    Besides the thermal and bare dot entries, the panel carries
    charge-neutral mixed entries (an off-diagonal dot pair compensated by one
    field quantum in mode 0 or 1); only those can resolve the coupling-induced
    dressing of kernel vectors, since the generator conserves the total charge
    and the unmixed entries sit in other charge sectors or tend to constants.
    """
    d = bundle.dot_dim
    gibbs = dotmod.gibbs_vector(bundle.dot_spec, bundle.beta)
    vac = bundle.basis.vacuum()
    pair = np.eye(d * d)  # row i * d + j is the dot pair (i, j)
    offdiag = [((0, 1), "left"), ((1, 0), "right")] if d >= 2 else []
    modes = range(min(2, bundle.grid.n_modes))
    quanta = {}
    for side in ("left", "right"):
        for m in modes:
            one = bundle.basis.ladder(m, side, create=True) @ vac
            if np.linalg.norm(one) > 0:
                quanta[side, m] = one / np.linalg.norm(one)
    panel = {"gibbs*vac": np.kron(gibbs, vac)}
    for (i, j), _ in offdiag:
        panel[f"offdiag({i},{j})*vac"] = np.kron(pair[i * d + j], vac)
    for (side, m), one in quanta.items():
        panel[f"gibbs*{side}_quantum[{m}]"] = np.kron(gibbs, one)
    for m in modes:
        for (i, j), side in offdiag:
            if (side, m) in quanta:
                panel[f"offdiag({i},{j})*{side}_quantum[{m}]"] = np.kron(
                    pair[i * d + j], quanta[side, m])
    return list(panel), np.column_stack(list(panel.values()))


def _column_diagnostics(bundle, vecs):
    """Every per-vector diagnostic of every column psi of vecs at once: the
    panel names and, over the columns, structure_overlap
    || P_gibbs P(Lambda <= |lam|) psi ||, P_gibbs projecting the dot pair on
    the Gibbs purification vector at beta; panel <chi, psi>, a row per entry;
    and with C1 = i[L, A] attached, virial_value Re <psi, C1 psi> (rounding
    noise for an exact eigenvector) and lambda_weight || Lambda^(1/2) psi ||.
    """
    names, panel = _default_panel(bundle)
    # Lambda acts on the field alone: the cut keeps field states
    keep = bundle.lambda_diag[:bundle.field_dim] <= abs(bundle.lam)
    low = vecs.reshape(bundle.dot_dim ** 2, bundle.field_dim, -1)[:, keep]
    gibbs = dotmod.gibbs_vector(bundle.dot_spec, bundle.beta)
    cols = {"structure_overlap": np.linalg.norm(
                np.tensordot(gibbs.conj(), low, axes=1), axis=0),
            "panel": panel.conj().T @ vecs}
    if bundle.C1 is not None:
        image = real_if_exact(bundle.C1.matrix) @ vecs
        cols["virial_value"] = np.einsum("ij,ij->j", vecs.conj(), image).real
        cols["lambda_weight"] = np.sqrt(np.real(np.einsum(
            "i,ij,ij->j", bundle.lambda_diag, vecs.conj(), vecs)))
    return names, cols


@dataclass
class KernelStructure:
    overlap: float
    cut: float
    panel: dict


def kernel_structure(bundle, psi):
    """_column_diagnostics of the one vector psi: its structure overlap, the
    cut |lambda| and the panel overlaps <chi, psi>, weak-convergence
    diagnostics for kernel vectors orthogonal to the equilibrium vector."""
    names, cols = _column_diagnostics(
        bundle, np.asarray(getattr(psi, "amplitudes", psi))[:, None])
    return KernelStructure(overlap=float(cols["structure_overlap"][0]),
                           cut=abs(bundle.lam),
                           panel=dict(zip(names, cols["panel"][:, 0].tolist())))


def kms_kernel_vector(bundle, report):
    """The equilibrium direction inside a report's (degenerate) kernel.

    The kernel of real (gauged) L is degenerate at every coupling: its
    dimension is at least the swap index (liouville.kernel_index), the number
    of basis states the swap fixes, so the solver's kernel basis is an
    arbitrary rotation.  The physical vector, which no rotation moves, is
    the projection of the perturbative thermal vector onto the kernel
    (liouville.equilibrium_projection, as dynamics.equilibrium_vector).
    """
    return equilibrium_projection(bundle, report.kernel_basis)


def orthogonal_kernel_panel(bundle, report, psi):
    """Weak-overlap table for the kernel complement of a selected vector.

    Per entry chi of the fixed panel, ||P_comp chi||, the largest overlap
    over unit vectors of the kernel orthogonal to the unit kernel vector psi:
    sqrt(||K^H chi||^2 - |<psi, chi>|^2) for orthonormal kernel columns K,
    taken as the norm of K^H chi less its psi part, so no rotation of the
    kernel basis moves it.  Entries in other charge sectors vanish; the
    charge-neutral mixed entries track the coupling-induced dressing.
    """
    basis = report.kernel_basis.conj().T
    names, panel = _default_panel(bundle)
    coords = basis @ panel
    p = basis @ getattr(psi, "amplitudes", psi)
    comp = coords - np.outer(p, p.conj() @ coords)
    return dict(zip(names, np.linalg.norm(comp, axis=0).tolist()))


def attach_diagnostics(bundle, report):
    """Fill the per-vector diagnostics table of a SpectralReport: one row per
    reported pair, from one _column_diagnostics of all its vectors."""
    names, cols = _column_diagnostics(bundle, report.vectors)
    panel = np.abs(cols.pop("panel")).T.tolist()
    report.diagnostics = [
        {"eigenvalue": float(e), "residual": float(r),
         **{key: float(v[i]) for key, v in cols.items()},
         "panel": dict(zip(names, panel[i]))}
        for i, (e, r) in enumerate(zip(report.eigenvalues, report.residuals))]
    return report


# ---------------------------------------------------------------------------
# level-shift matrix

def level_shift(dot_spec, beta, shell_weight=1.0):
    """Tridiagonal dot-local relaxation matrix at the ladder Bohr frequency.

    Valid for a uniform unit ladder.  Diagonal [a, 1+2a, ..., 1+2a, 1+a] with
    off-diagonals -sqrt(a(1+a)), a the thermal occupation at frequency one;
    the kernel is spanned by the Gibbs coefficient vector and the reported gap
    is the smallest nonzero eigenvalue.  gamma = shell_weight * gamma_tilde.
    """
    d = dot_spec.d
    if d < 2:
        raise ValueError("no transitions for a single level")
    gaps = np.diff(dot_spec.energy_array)
    if not np.allclose(gaps, 1.0, atol=1e-12):
        raise ValueError("tridiagonal form needs a uniform unit ladder")
    if beta <= 0:
        raise ValueError("beta must be positive")

    a = 1.0 / np.expm1(beta)
    diag = np.full(d, 1.0 + 2.0 * a)
    diag[0] = a
    diag[-1] = 1.0 + a
    off = np.full(d - 1, -np.sqrt(a * (1.0 + a)))
    gt = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

    evals = np.linalg.eigvalsh(gt)
    gap = float(np.sort(evals)[1])

    w = np.exp(-0.5 * beta * (dot_spec.energy_array
                              - dot_spec.energy_array.min()))
    w = w / np.linalg.norm(w)
    residual = float(np.linalg.norm(gt @ w))

    return LevelShiftReport(
        a=float(a), gamma_tilde=gt, shell_weight=float(shell_weight),
        gamma=shell_weight * gt, gap=gap, kernel_vector=w,
        kernel_residual=residual)


# ---------------------------------------------------------------------------
# resolvent sandwich

def lorentzian_constant(grid, epsilon):
    """Independent quadrature oracle for the sandwich proportionality.

    Both doubled-field channels feed the sandwich equally, hence the factor
    two in front of the Lorentzian sum, centred on the unit ladder gap,
    against the discretized coupling density.
    """
    dens = grid.weights * np.abs(grid.couplings) ** 2
    lorentz = epsilon / ((grid.omegas - 1.0) ** 2 + epsilon ** 2)
    return float(2.0 * np.sum(dens * lorentz))


def resolvent_sandwich(parts, epsilon):
    """Dot-sector compression epsilon * P I (L0^2+eps^2)^(-1) I P.

    P restricts to diagonal dot pairs tensor the field vacuum (any field
    energy cut below the lowest mode keeps exactly that sector).  Of parts, a
    liouville.FirstParts or an OperatorBundle, it reads the dot, grid, basis,
    l0_diag, I_first and swap: c = e_ii (x) vacuum is real and swap-fixed, so
    I c = h - P conj(h) with h = I_first c, and the two terms have disjoint
    supports (the dot pairs (i +- 1, i) and (i, i +- 1)), which makes it the
    full interaction's column bit for bit.  Returns the d x d matrix with its
    best-fit multiple of the level-shift matrix, the relative Frobenius
    misfit, the overlap of its minimal eigenvector with the Gibbs vector,
    and the quadrature oracle for the fitted constant.
    """
    messages = []
    h_over_eps = parts.grid.step / epsilon
    if h_over_eps > 0.1:
        messages.append(
            f"Lorentzian under-resolved: h/epsilon = {h_over_eps:.3g}")

    inv = 1.0 / (parts.l0_diag ** 2 + epsilon ** 2)
    d = parts.dot_spec.d
    # e_ii (x) vacuum is the basis state (i d + i) * field_dim
    h = parts.I_first[:, np.arange(d) * (d + 1) * parts.basis.dim]
    h = h.T.toarray(order="C")      # contiguous rows: vdot's summation order
    half = list(h - h.conj()[:, parts.swap])
    images = [inv * v for v in half]
    m = epsilon * np.array([[np.vdot(a, b) for b in images] for a in half])
    m = 0.5 * (m + m.conj().T)

    ls = level_shift(parts.dot_spec, parts.beta)
    gt = ls.gamma_tilde
    c_fit = float(np.sum(gt * m.real) / np.sum(gt * gt))
    evals, evecs = np.linalg.eigh(m)
    vmin = evecs[:, int(np.argmin(evals))]
    return SandwichReport(
        matrix=m.real if np.allclose(m.imag, 0, atol=1e-13) else m,
        fit_constant=c_fit,
        misfit=float(np.linalg.norm(m - c_fit * gt) / np.linalg.norm(m)),
        gibbs_overlap=float(abs(np.vdot(vmin, ls.kernel_vector))),
        oracle_constant=lorentzian_constant(parts.grid, epsilon),
        messages=tuple(messages))
