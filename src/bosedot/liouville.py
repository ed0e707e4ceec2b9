"""Assembly of the doubled-space generator of the coupled dot-gas dynamics.

The composite space is (C^d (x) C^d) (x) F with F the truncated doubled Fock
space; composite index = dot_pair_index * field_dim + field_index.  The
generator splits as

    L = L0 + lambda (I + K),

with diagonal free part L0 (dot level differences plus left-minus-right field
energy), an interaction I, and a purely dot-local condensate term K.  Only
the left-acting half of each doubled operator is assembled.  The interaction's
left block couples the left dot factor to the left-particle / right-hole
field pair,

    G_plus (x) 1 (x) [ a(sqrt(1+rho) g)_left + a*(sqrt(rho) conj(g))_right ] + adjoint,

and K's left half is K^1_xi (x) 1 (x) 1.  Each enters in standard form, its
left half minus the right half J V J, where J, the modular conjugation, is
the swap P followed by complex conjugation.  So the right half is the swap
image P conj(V) P (swap_image), one relabelling of the left half's entries by
the bundle's swap permutation, which is built once per bundle; the full
generator then anticommutes with that antiunitary map.  The conjugate's
right half dGamma(a)_right is the swap image of its left half the same way.

The equilibrium (KMS) vector of the interacting system is produced by the
perturbation formula: the thermal weight exp(-beta (L0 + lambda I_left)/2)
applied to the free equilibrium vector, where I_left keeps only the
left-acting halves of the interaction and condensate terms.  That weight is a
Lanczos action at every dimension.

Every eigensolve of L is a BlockedEigensystem, built in the blocks of
symmetry_blocks: without a condensate L conserves the charge Q and each charge
sector is one block, of which only Q >= 0 are solved (the swap gives -Q from
Q); with one, L = e^{i theta Q} L(0) e^{-i theta Q} and the gauged L(0) is one
block.  A block real up to the rounding of the phases is solved in real
arithmetic.  A real block that the swap maps to itself (sector 0, or the
gauged L(0)) is chiral, P B P = -B (chiral_split, chiral_eigh,
chiral_kernel), and the one per-block hook gets its swap.  Bundles that
differ only in theta are gauges of one another, so the commands build one
bundle per lambda and density r and read every theta of the sweep from it
(cli._map_bundles).
"""

from dataclasses import dataclass, field as dfield
from functools import cached_property
from math import comb

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag, eigh, svd
from scipy.sparse.linalg import eigsh, splu

from . import dot as dotmod
from .fock import (DimensionCapError, FockBasis, SolverConvergenceError,
                   SparseOperator, StateVector)
from .krylov import expm_action

# largest symmetry block that eigensystem() factorises, or largest half of
# a chiral block (DimensionCapError above it)
DENSE_CUTOFF = 2000
# eigenvalues within CLUSTER_TOL * max(||L||, 1) of each other are one
# cluster, and those within it of zero the kernel
CLUSTER_TOL = 1e-9
# a near-zero eigenvector, or a chiral kernel basis, is accepted once its
# residual is below this * max(||L||, 1)
RESIDUAL_BOUND = 1e-12


def kernel_index(dot_spec, trunc):
    """d * sum_{j <= n_max / 2} C(M + j - 1, j): the number of basis states
    that the swap fixes (a diagonal dot pair and equal left and right
    occupations, mode by mode).  For real (gauged) L, P L P = -L puts L in
    chiral form between the P-even and P-odd states, and this is the index
    n+ - n-, a lower bound on dim ker L that no coupling lifts."""
    m = trunc.n_modes
    return dot_spec.d * sum(comb(m + j - 1, j)
                            for j in range(trunc.n_max // 2 + 1))


def real_if_exact(x):
    """x without its imaginary part when that part is exactly zero."""
    imag = x.data.imag if sparse.issparse(x) else x.imag
    return x.real if np.iscomplexobj(x) and not np.any(imag) else x


def condensate_gauge(q_diag, theta):
    """The unit-modulus gauge e^{i theta Q}, real when theta Q leaves it so."""
    return real_if_exact(np.exp(1j * theta * q_diag))


def symmetry_blocks(mat, q_diag, theta):
    """The blocks of L that its charge and condensate gauge make independent.

    L = diag(gauge) B diag(conj(gauge)) with gauge = e^{i theta Q}.  The
    blocks of B are the charge sectors when every nonzero of L joins two
    states of equal charge (path "sector"), and otherwise the one block of the
    whole gauged L(0) (path "gauge").  Returns (path, gauge, blocks) with
    blocks a list of (idx, csr block of B on idx).  A block is real when the
    imaginary parts of its gauged entries are at most 8 ulp of the largest
    entry, which is where the rounding of the phases leaves them; otherwise
    (say, a complex form-factor amplitude) it stays complex.
    """
    coo = mat.tocoo()
    if np.all(q_diag[coo.row] == q_diag[coo.col]):
        path = "sector"
        idxs = [np.flatnonzero(q_diag == q) for q in np.unique(q_diag)]
    else:
        path, idxs = "gauge", [np.arange(len(q_diag))]
    gauge = condensate_gauge(q_diag, theta)
    phases = sparse.diags(gauge)
    gauged = (phases.conj() @ mat @ phases).tocsr()
    tol = 8 * np.finfo(float).eps * np.max(np.abs(gauged.data), initial=0)
    blocks = []
    for idx in idxs:
        block = gauged[idx][:, idx]
        if (np.iscomplexobj(block)
                and np.max(np.abs(block.data.imag), initial=0) <= tol):
            block = block.real
        blocks.append((idx, block))
    return path, gauge, blocks


@dataclass(frozen=True)
class BlockedEigensystem:
    """Eigenpairs of Hermitian L in symmetry blocks.

    L = diag(gauge) B diag(conj(gauge)) with unit-modulus phases gauge and B
    block diagonal on the index sets idx; blocks holds (idx, evals, evecs)
    per block of B, and an eigenvector of L is gauge * (evecs column embedded
    at idx).  A block holds all its pairs (a factorisation) or only some (the
    pairs nearest zero).  The columns of all blocks, in block order, are the
    columns of the eigensystem: evals is their concatenation.  path is
    "sector" when the blocks are the charge sectors (L conserves Q) and
    "gauge" when B is the whole gauged L(0).  chiral counts the blocks
    solved with their swap (the chiral ones).
    """

    blocks: tuple
    gauge: np.ndarray
    path: str
    chiral: int = 0
    evals: np.ndarray = dfield(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "evals",
                           np.concatenate([e for _, e, _ in self.blocks]))

    @classmethod
    def of(cls, bundle, solve):
        """The eigenpairs of the bundle's L that solve(charge, idx, block,
        swap) returns, as (evals, evecs), for each block of symmetry_blocks
        in order; charge is None for the gauged L(0).  swap is the
        permutation the swap makes of the block's own states when the block
        is real and the swap maps it to itself (charge 0 or None), and None
        for every other block.  The sectors Q < 0 are not solved: they are
        the swap images of Q > 0 (P conj(L) P = -L), the pairs (-e, conj(v))
        on the rows perm[idx] for the pairs (e, v) of sector Q on idx."""
        path, gauge, blocks = symmetry_blocks(bundle.L.matrix, bundle.q_diag,
                                              bundle.theta)
        charges = [None if path == "gauge" else int(bundle.q_diag[idx[0]])
                   for idx, _ in blocks]
        perm = bundle.swap
        solved, n_chiral = {}, 0
        for q, (idx, block) in zip(charges, blocks):
            if q is not None and q < 0:
                continue
            swap = None
            if not q and not np.iscomplexobj(block):
                # idx is sorted and closed under the swap
                swap = np.searchsorted(idx, perm[idx])
                n_chiral += 1
            e, v = solve(q, idx, block, swap)
            solved[q] = (idx, e, v)
            if q:
                solved[-q] = (perm[idx], -e, v.conj())
        return cls(tuple(solved[q] for q in charges), gauge, path, n_chiral)

    @cached_property
    def clusters(self):
        """(labels, means): each column's cluster of equal eigenvalues and
        each cluster's mean, ascending; clusters split at gaps of at least
        CLUSTER_TOL * max(max|e|, 1)."""
        tol = CLUSTER_TOL * max(np.max(np.abs(self.evals)), 1.0)
        srt = np.sort(self.evals)
        starts = srt[np.r_[True, np.diff(srt) >= tol]]
        labels = np.searchsorted(starts, self.evals, side="right") - 1
        means = np.bincount(labels, self.evals) / np.bincount(labels)
        return labels, means

    @property
    def offsets(self):
        return np.cumsum([0] + [len(e) for _, e, _ in self.blocks])

    def telemetry(self):
        sizes = [len(idx) for idx, _, _ in self.blocks]
        return {"path": self.path, "blocks": len(sizes),
                "largest_block": max(sizes),
                "real": not any(np.iscomplexobj(v) for _, _, v in self.blocks),
                "chiral": self.chiral}

    def vectors(self, cols):
        """Full-length eigenvectors of L for the columns cols, real when
        every block and the gauge are."""
        cols = np.asarray(cols, dtype=int)
        dtype = np.result_type(*(v.dtype for _, _, v in self.blocks))
        out = np.zeros((len(self.gauge), len(cols)), dtype=dtype)
        offsets = self.offsets
        for b, (idx, _, vecs) in enumerate(self.blocks):
            sel = np.flatnonzero((cols >= offsets[b]) & (cols < offsets[b + 1]))
            if len(sel):
                out[np.ix_(idx, sel)] = vecs[:, cols[sel] - offsets[b]]
        return self.gauge[:, None] * out

    def support(self, gv):
        """The blocks on which the gauged-frame vector gv, or any column of
        the matrix gv, does not vanish exactly; gv = conj(gauge) v for a
        vector v of L.

        Returns (rows, cols, vecs, c): the basis states rows of those blocks,
        their spectral columns cols, their eigenvectors as one
        block-diagonal rows x cols matrix vecs of the gauged frame (a lone
        block's own array, not a copy), and the coordinates
        c = vecs^H gv[rows] on them.
        """
        offsets = self.offsets
        keep = [b for b, (idx, _, _) in enumerate(self.blocks)
                if np.any(gv[idx])]
        none = np.zeros(0, dtype=int)
        rows = np.concatenate([none] + [self.blocks[b][0] for b in keep])
        cols = np.concatenate([none] + [np.arange(offsets[b], offsets[b + 1])
                                        for b in keep])
        mats = [np.zeros((0, 0))] + [self.blocks[b][2] for b in keep]
        vecs = mats[1] if len(mats) == 2 else block_diag(*mats)
        return rows, cols, vecs, vecs.conj().T @ gv[rows]


@dataclass
class FirstParts:
    """What a run assembles before lambda and xi enter (assemble_first): all
    the resolvent sandwich reads, and the base of every OperatorBundle."""

    dot_spec: object
    grid: object
    trunc: object
    basis: object
    l0_diag: np.ndarray
    I_first: sparse.csr_matrix
    # the swap P as a permutation, (P v)[i] = v[swap[i]]: it maps the dot pair
    # (i, j) to (j, i) and exchanges the left and right occupations.
    # P conj(L) P = -L, and P sends charge sector Q to -Q
    swap: np.ndarray
    # dGamma(omega) of the left field copy
    e_left: np.ndarray

    @property
    def beta(self):
        return self.grid.beta

    @property
    def dot_dim(self):
        return self.dot_spec.d

    @property
    def field_dim(self):
        return self.basis.dim

    @property
    def dim(self):
        return self.dot_dim ** 2 * self.field_dim


@dataclass
class OperatorBundle(FirstParts):
    """All operators of one run, with shared basis and metadata."""

    lam: float
    xi: object = None
    rho_crit: float = None
    I_op: SparseOperator = None
    K: SparseOperator = None
    L: SparseOperator = None
    lambda_diag: np.ndarray = None
    q_diag: np.ndarray = None
    K_left: sparse.csr_matrix = None
    A: SparseOperator = None
    C1: SparseOperator = None
    conjugate_scheme: str = None
    _eigensystem: BlockedEigensystem = dfield(default=None, repr=False)

    @property
    def L0(self):
        return _diagonal_operator(self.l0_diag, "L0")

    @property
    def Q(self):
        return _diagonal_operator(self.q_diag, "Q")

    @property
    def Lambda(self):
        return _diagonal_operator(self.lambda_diag, "Lambda")

    @property
    def theta(self):
        """The condensate phase, 0 without a condensate."""
        return 0.0 if self.xi is None else self.xi.theta

    def eigensystem(self):
        """Cached BlockedEigensystem of L: chiral_eigh of every real block
        that the swap maps to itself and a dense eigh of every other
        symmetry block.  A block of more than DENSE_CUTOFF states is refused
        with DimensionCapError, a chiral one only when its SVD's larger side
        is.  Only rte (dynamics.equilibrium_vector and the ergodic pass)
        reads it."""
        if self._eigensystem is None:
            self._eigensystem = BlockedEigensystem.of(self, _factorise_block)
        return self._eigensystem

    def norm_L(self):
        """||L|| exactly (C2's bound reads it), by one Lanczos call that
        reads no factorisation: P conj(L) P = -L makes the spectrum
        symmetric, so the largest eigenvalue is the largest |e|.  An L with
        no nonzero entry (every dim-1 bundle), which ARPACK refuses, is 0."""
        if not self.L.matrix.count_nonzero():
            return 0.0
        return float(eigsh(self.L.matrix, k=1, which="LA",
                           v0=np.ones(self.dim),
                           return_eigenvectors=False)[0])

    def free_equilibrium(self):
        """Product vector: dot Gibbs purification times field vacuum."""
        g = dotmod.gibbs_vector(self.dot_spec, self.beta)
        return np.kron(g, self.basis.vacuum()).astype(complex)

    def manifest(self):
        out = {
            "dot": {"d": self.dot_spec.d,
                    "energies": list(self.dot_spec.energies)},
            "grid": self.grid.manifest(),
            "truncation": {"n_modes": self.trunc.n_modes,
                           "n_max": self.trunc.n_max,
                           "field_dim": self.field_dim},
            "lambda": float(self.lam),
            "dim": self.dim,
            "conjugate_scheme": self.conjugate_scheme,
        }
        if self.xi is not None:
            out["xi"] = {"r": float(self.xi.r), "theta": float(self.xi.theta)}
            out["rho_crit"] = float(self.rho_crit)
        return out


def _factorise_block(charge, idx, block, swap):
    # a chiral block's SVD is of its even half, the fixed states and one
    # state of each swapped pair, by its odd half
    size = len(idx) if swap is None else np.sum(swap >= np.arange(len(idx)))
    if size > DENSE_CUTOFF:
        half = "" if swap is None else f": chiral half of {size} states"
        raise DimensionCapError(f"symmetry block of {len(idx)} states{half} "
                                f"above the dense cutoff {DENSE_CUTOFF}")
    if swap is None:
        return eigh(block.toarray())
    return chiral_eigh(block, swap)


def chiral_split(block, swap):
    """(u, x): the chiral form of the real symmetric block B for an
    involution swap with P B P = -B, (P v)[i] = v[swap[i]].

    The P-even states are the fixed states e_f and (e_i + e_Pi)/sqrt2, the
    P-odd ones (e_i - e_Pi)/sqrt2 (i < Pi).  u is the orthogonal map from the
    even columns, then the odd ones, to states, and u^T B u =
    [[0, x], [x^T, 0]] with x = [X_F; X_A] sparse: its first nf = x.shape[0]
    - x.shape[1] rows are the fixed states, the rest the pairs.  P B P = -B
    is checked entry by entry first, and a block that breaks it raises
    ValueError.
    """
    if (block[swap][:, swap] + block).count_nonzero():
        raise ValueError("block does not anticommute with the swap")
    n = len(swap)
    states = np.arange(n)
    fixed = np.flatnonzero(swap == states)
    a = np.flatnonzero(swap > states)
    nf, m = len(fixed), len(a)
    h = np.sqrt(0.5)
    pair = np.arange(m)
    u = sparse.csr_matrix(
        (np.r_[np.ones(nf), np.full(3 * m, h), np.full(m, -h)],
         (np.r_[fixed, a, swap[a], a, swap[a]],
          np.r_[np.arange(nf), nf + pair, nf + pair, nf + m + pair,
                nf + m + pair])), shape=(n, n))
    return u, (u[:, :nf + m].T @ block @ u[:, nf + m:]).tocsr()


def _project_out(w, basis):
    for _ in range(2):
        w = w - basis @ (basis.conj().T @ w)
    return w


class ChiralInverse:
    """The odd half of a chiral block B = u [[0, X], [X^T, 0]] u^T
    (chiral_split) as block_iteration's factor, mat = X, on chiral_kernel's
    kernel and LU of X_A^T.  left(v) = X+^T v, the least-norm y with
    X^T y = v, is [0; X_A^-T v] less its kernel part; solve applies
    X+ X+^T = (X^T X)^-1, X_A^-1 of left's pair rows.  pairs(v, s) gives,
    for unit odd columns v, s = w^T X v if not given, the unit w along
    X+^T v, and the residual in B of the pairs +-s, u (w; +-v) / sqrt2, that
    lift makes (w = X v / s would put v's error in it times ||X||^2 / s).
    rayleigh_ritz takes s and v from the SVD of X V, so s is not squared.
    odd @ |diag| is sqrt2 |diag| on the odd states, for diag odd under P.
    """

    def __init__(self, u, x, kernel, lu, scale):
        self.u, self.mat, self.kernel, self.lu = u, x, kernel, lu
        self.scale, self.odd = scale, abs(u[:, len(kernel):]).T

    def left(self, v):
        y = np.zeros((len(self.kernel), v.shape[1]))
        y[self.kernel.shape[1]:] = self.lu.solve(np.ascontiguousarray(v))
        return _project_out(y, self.kernel)

    def solve(self, v):
        return self.lu.solve(self.left(v)[self.kernel.shape[1]:], trans="T")

    def pairs(self, v, s=None):
        w = self.left(v)
        w, xv = w / np.linalg.norm(w, axis=0), self.mat @ v
        s = np.einsum("ij,ij->j", w, xv) if s is None else s
        return s, w, np.sqrt(0.5) * np.linalg.norm(
            np.vstack([xv - w * s, self.mat.T @ w - v * s]), axis=0)

    def rayleigh_ritz(self, span):
        s, zt = np.linalg.svd(self.mat @ span, full_matrices=False)[1:]
        return s, span @ zt.T, self.pairs(span @ zt.T, s)[2]

    def lift(self, s, vecs):
        w, v = np.sqrt(0.5) * self.pairs(vecs, s)[1], np.sqrt(0.5) * vecs
        return np.r_[-s, s], self.u @ np.block([[w, w], [-v, v]])


def chiral_kernel(block, swap, scale):
    """(kernel, inverse, residual) of the real symmetric block B for an
    involution swap with P B P = -B, from one sparse LU of the X_A^T of
    chiral_split (minimum-degree ordering on A + A^T).

    When X_A is nonsingular the kernel of x^T is one vector per fixed state,
    the graph G = [I; -X_A^-T X_F^T]; kernel is the Q of its thin QR in the
    block's states, inverse B's odd half on the same LU (ChiralInverse),
    residual the largest ||B k|| of its columns.  A singular X_A, or a
    residual above RESIDUAL_BOUND * scale, raises SolverConvergenceError.
    """
    u, x = chiral_split(block, swap)
    even, m = x.shape
    nf = even - m
    try:
        lu = splu(x[nf:].T.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverConvergenceError(
            f"pair x pair part of the chiral coupling: {exc}") from exc
    basis = np.linalg.qr(np.vstack([np.eye(nf),
                                    -lu.solve(x[:nf].T.toarray())]))[0]
    residual = float(np.max(np.linalg.norm(x.T @ basis, axis=0), initial=0))
    if residual > RESIDUAL_BOUND * scale:
        raise SolverConvergenceError(
            f"kernel frame residual {residual:.3g} above "
            f"{RESIDUAL_BOUND * scale:.3g}")
    return (u[:, :even] @ basis, ChiralInverse(u, x, basis, lu, scale),
            residual)


def chiral_eigh(block, swap):
    """All eigenpairs of the real symmetric block B, ascending as eigh gives
    them, for an involution swap with P B P = -B (chiral_split).

    B couples only even to odd states through x.  One full SVD x = W S V^T
    gives the pairs +-s_k with vectors (W_k (+) +-V_k)/sqrt2 and an exact 0
    for each of the trailing columns of W: the odd states are never more
    than the even ones, so those number the fixed states.
    """
    u, x = chiral_split(block, swap)
    x = x.toarray()
    nf, m = x.shape[0] - x.shape[1], x.shape[1]
    w, s, vt = svd(x)
    v = vt.T
    h = np.sqrt(0.5)
    evals = np.r_[-s, np.zeros(nf), s[::-1]]
    even = np.hstack([w[:, :m] * h, w[:, m:], w[:, :m][:, ::-1] * h])
    odd = np.hstack([-v * h, np.zeros((m, nf)), v[:, ::-1] * h])
    return evals, u @ np.vstack([even, odd])


def _diagonal_operator(diag, label):
    return SparseOperator(sparse.diags(diag.astype(complex), format="csr"),
                          label=label)


def swap_image(mat, perm):
    """P conj(mat) P for the swap permutation perm, an involution: the entry
    (i, j) moves to (perm[i], perm[j]), conjugated.  One COO relabel."""
    coo = mat.tocoo()
    return sparse.csr_matrix((coo.data.conj(), (perm[coo.row], perm[coo.col])),
                             shape=mat.shape)


def assemble_interaction(dot_spec, basis, grid):
    """The interaction's left block, Hermitian: G_plus (x) 1 on the dot pair
    times a(sqrt(1+rho) g)_left + a*(sqrt(rho) conj(g))_right, plus the
    adjoint.  The full interaction is this block minus its swap image."""
    _, gp = dotmod.lower_raise(dot_spec)
    dot_left = sparse.csr_matrix(np.kron(gp, np.eye(dot_spec.d)))
    field = (basis.smeared(grid.left_smearing, "left", create=False)
             + basis.smeared(grid.right_smearing, "right", create=True))
    block = sparse.kron(dot_left, field, format="csr")
    return (block + block.getH()).tocsr()


def assemble_first(dot_spec, grid, trunc):
    """The FirstParts of a run: the Fock basis (DimensionCapError above
    trunc.dim_cap), the swap, the left field energies, the free generator's
    diagonal (dot level differences plus the left minus the right field
    energy) and the interaction's left block, checked exactly against its
    adjoint."""
    if trunc.n_modes != grid.n_modes:
        raise ValueError("truncation and grid disagree on the mode count")
    basis = FockBasis(trunc)
    field_perm = basis.swap_permutation()
    pairs = np.arange(dot_spec.d ** 2).reshape(dot_spec.d, dot_spec.d).T.ravel()
    e_left = basis.dgamma_diag(grid.omegas, "left")
    return FirstParts(
        dot_spec=dot_spec, grid=grid, trunc=trunc, basis=basis,
        l0_diag=np.add.outer(dotmod.doubled_free_part(dot_spec),
                             e_left - e_left[field_perm]).ravel(),
        I_first=SparseOperator(assemble_interaction(dot_spec, basis, grid),
                               label="I_first").matrix,
        swap=np.add.outer(pairs * basis.dim, field_perm).ravel(),
        e_left=e_left)


def build_bundle(dot_spec, grid, trunc, lam, xi=None, rho_crit=None):
    """Assemble every operator of a run into one bundle, on the parts of
    assemble_first.

    xi = None runs without a condensate term.  When xi is given, rho_crit must
    be supplied (from the reservoir thermodynamics) and xi.r must weakly
    exceed it.
    """
    parts = assemble_first(dot_spec, grid, trunc)
    first, swap = parts.I_first, parts.swap
    d2, fd = dot_spec.d ** 2, parts.field_dim
    # the dot pair (0, 0) is swap-fixed: the first fd entries are the field swap
    field_perm = swap[:fd]
    I_mat = first - swap_image(first, swap)

    K_mat = K_left = sparse.csr_matrix((parts.dim, parts.dim), dtype=complex)
    coupling = I_mat    # K is zero without a condensate: not added to L
    if xi is not None:
        if rho_crit is None:
            raise ValueError("condensate runs need rho_crit")
        k_left_dot = dotmod.condensate_left_term(dot_spec, xi, rho_crit, grid.g0)
        K_left = sparse.kron(sparse.csr_matrix(k_left_dot),
                             sparse.identity(fd, format="csr", dtype=complex),
                             format="csr")
        K_mat = K_left - swap_image(K_left, swap)
        coupling = I_mat + K_mat

    L_mat = (sparse.diags(parts.l0_diag.astype(complex), format="csr")
             + lam * coupling).tocsr()

    lambda_diag = np.tile(parts.e_left + parts.e_left[field_perm], d2)
    levels = np.arange(dot_spec.d, dtype=float)
    q_dot = (levels[:, None] - levels[None, :]).ravel()
    n_left = parts.basis.dgamma_diag(np.ones(trunc.n_modes), "left")
    q_diag = np.add.outer(q_dot, n_left - n_left[field_perm]).ravel()

    return OperatorBundle(
        **vars(parts), lam=float(lam), xi=xi, rho_crit=rho_crit,
        I_op=SparseOperator(I_mat, label="I"),
        K=SparseOperator(K_mat, label="K"),
        L=SparseOperator(L_mat, label="L"),
        lambda_diag=lambda_diag, q_diag=q_diag, K_left=K_left)


# ---------------------------------------------------------------------------
# conjugate operator and commutator diagnostics

def dilation_one_body(grid):
    """Dilation generator on a log frequency grid.

    Antisymmetrized central difference of d/d(log omega); on a log grid in
    omega this represents the radial dilation generator for either dispersion
    (the chain rule factor between |k| and |k|^2 grids is exactly the half
    that the quadratic dispersion calls for).  The commutator i [omega, a_d]
    reproduces multiplication by omega to second order in the spacing on
    smooth vectors away from the grid ends.
    """
    if grid.spacing != "log":
        raise ValueError("dilation conjugate needs a log-spaced grid")
    m, h = grid.n_modes, grid.step
    d = np.zeros((m, m))
    for j in range(m - 1):
        d[j, j + 1] += 1.0 / (2.0 * h)
        d[j + 1, j] -= 1.0 / (2.0 * h)
    s = 0.5 * (d - d.T)
    return 1j * s


def antisymmetric_one_body(grid, seed=7):
    """Seeded real-antisymmetric generator of bandwidth 3, another conjugate."""
    m = grid.n_modes
    rng = np.random.default_rng(seed)
    r = np.zeros((m, m))
    for b in range(1, min(3, m - 1) + 1):
        vals = rng.standard_normal(m - b)
        r += np.diag(vals, k=b)
    s = 0.5 * (r - r.T)
    scale = np.linalg.norm(s, 2)
    if scale > 0:
        s = s / scale
    return 1j * s


def assemble_conjugate(bundle, scheme="log_dilation", seed=7):
    """Attach the conjugate operator A and the commutator C1 = i [L, A].

    A = dGamma(a)_left - dGamma(a)_right for a one-body generator a that is
    i times a real antisymmetric matrix; A is Hermitian and C1 is Hermitian
    with exactly vanishing adjoint residual (it is assembled as N + N* with
    N = i L A).
    """
    if scheme == "log_dilation":
        one_body = dilation_one_body(bundle.grid)
    elif scheme == "custom_antisymmetric":
        one_body = antisymmetric_one_body(bundle.grid, seed=seed)
    else:
        raise ValueError(f"unknown conjugate scheme {scheme!r}")

    # conj(a) = -a, so the right half -dGamma(a)_right is the swap image of
    # the left; the dot pair (0, 0) is swap-fixed, so the swap's first
    # field_dim entries are the field swap
    a_left = bundle.basis.dgamma(one_body, "left")
    a_field = a_left + swap_image(a_left, bundle.swap[:bundle.field_dim])
    eye_dot = sparse.identity(bundle.dot_dim ** 2, format="csr", dtype=complex)
    a_full = sparse.kron(eye_dot, a_field, format="csr")

    n = (1j * (bundle.L.matrix @ a_full)).tocsr()
    c1 = (n + n.getH()).tocsr()

    bundle.A = SparseOperator(a_full, label=f"A[{scheme}]")
    bundle.C1 = SparseOperator(c1, label="C1")
    bundle.conjugate_scheme = scheme
    return bundle.A, bundle.C1


# ---------------------------------------------------------------------------
# equilibrium vector

def kms_vector(bundle):
    """Equilibrium vector of the interacting generator, with its residual.

    exp(-beta (L0 + lambda I_left)/2) applied to the free equilibrium vector
    by the self-verifying Lanczos action of krylov.expm_action (at its default
    tolerance), at every dimension, and normalized; I_left keeps the
    left-acting interaction block and the left condensate half.  No dense
    eigendecomposition enters.  At lambda = 0 the free equilibrium vector is
    returned unchanged (it is annihilated by the diagonal free generator
    exactly).  Returns (state, residual) with residual = || L psi ||.
    """
    raw = bundle.free_equilibrium()
    if bundle.lam != 0:
        gen = (sparse.diags(bundle.l0_diag, format="csr")
               + bundle.lam * (bundle.I_first + bundle.K_left)).tocsr()
        raw = expm_action(gen, raw, scale=-0.5 * bundle.beta)
        raw = raw / np.linalg.norm(raw)
    residual = float(np.linalg.norm(bundle.L.matrix @ raw))
    return StateVector(amplitudes=raw), residual


def equilibrium_projection(bundle, kernel):
    """The KMS vector projected onto the span of the orthonormal columns
    kernel and normalised: the equilibrium direction inside a degenerate
    kernel.  Returns (state, captured), captured the norm of the projection
    of the unit KMS vector."""
    if kernel.shape[1] == 0:
        raise ValueError("empty kernel")
    ref, _ = kms_vector(bundle)
    proj = kernel @ (kernel.conj().T @ ref.amplitudes)
    captured = float(np.linalg.norm(proj))
    return StateVector(amplitudes=proj / captured), captured
