"""Assembly of the doubled-space generator of the coupled dot-gas dynamics.

The composite space is (C^d (x) C^d) (x) F with F the truncated doubled Fock
space; composite index = dot_pair_index * field_dim + field_index.  The
generator splits as

    L = L0 + lambda (I + K),

with diagonal free part L0 (dot level differences plus left-minus-right field
energy), a two-block interaction I, and a purely dot-local condensate term K.
The first interaction block couples the left dot factor to the left-particle /
right-hole field pair,

    G_plus (x) 1 (x) [ a(sqrt(1+rho) g)_left + a*(sqrt(rho) conj(g))_right ] + adjoint,

and the second block is its image under the swap-and-conjugate symmetry,
entering with a minus sign so that the full generator anticommutes with that
antiunitary map.  Both blocks are assembled explicitly; no conjugation
operator is applied at matrix level.

The equilibrium (KMS) vector of the interacting system is produced by the
perturbation formula: the thermal weight exp(-beta (L0 + lambda I_left)/2)
applied to the free equilibrium vector, where I_left keeps only the
left-acting halves of the interaction and condensate terms.  That weight is a
Lanczos action at every dimension; the only dense eigendecomposition is the
bundle's own cached one of L, allowed up to DENSE_CUTOFF.
"""

from dataclasses import dataclass, field as dfield

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from . import dot as dotmod
from .fock import FockBasis, SparseOperator, StateVector
from .krylov import expm_action

# largest composite dimension at which a bundle forms the dense
# eigendecomposition of L; above it every consumer takes a sparse path
DENSE_CUTOFF = 2000


def _csr(mat):
    return sparse.csr_matrix(mat)


@dataclass
class OperatorBundle:
    """All operators of one run, with shared basis and metadata."""

    dot_spec: object
    grid: object
    trunc: object
    basis: object
    lam: float
    xi: object = None
    rho_crit: float = None

    I_op: SparseOperator = None
    K: SparseOperator = None
    L: SparseOperator = None

    l0_diag: np.ndarray = None
    lambda_diag: np.ndarray = None
    q_diag: np.ndarray = None

    I_first: sparse.csr_matrix = None
    I_second: sparse.csr_matrix = None
    K_left: sparse.csr_matrix = None

    A: SparseOperator = None
    C1: SparseOperator = None
    I1: sparse.csr_matrix = None
    conjugate_scheme: str = None

    _eigensystem: tuple = dfield(default=None, repr=False)

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

    @property
    def L0(self):
        return _diagonal_operator(self.l0_diag, "L0")

    @property
    def Q(self):
        return _diagonal_operator(self.q_diag, "Q")

    @property
    def Lambda(self):
        return _diagonal_operator(self.lambda_diag, "Lambda")

    def eigensystem(self):
        """Cached dense eigendecomposition (evals, evecs) of L, up to
        DENSE_CUTOFF."""
        if self._eigensystem is None:
            if self.dim > DENSE_CUTOFF:
                raise ValueError("dense eigendecomposition refused above "
                                 f"dimension {DENSE_CUTOFF}")
            self._eigensystem = eigh(self.L.matrix.toarray())
        return self._eigensystem

    def norm_L(self):
        if self._eigensystem is not None or self.dim <= DENSE_CUTOFF:
            evals, _ = self.eigensystem()
            return float(np.max(np.abs(evals)))
        return self.L.norm_bound()

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


def _diagonal_operator(diag, label):
    return SparseOperator(sparse.diags(diag.astype(complex), format="csr"),
                          hermitian=True, label=label)


def _dot_blocks(spec):
    gm, gp = dotmod.lower_raise(spec)
    eye = np.eye(spec.d)
    left = _csr(np.kron(gp, eye))
    right = _csr(np.kron(eye, dotmod.conjugate_entrywise(gp)))
    return left, right


def assemble_free(dot_spec, field_left, field_right):
    """Diagonal of the free generator: dot level differences plus the left
    minus the right field-energy diagonal."""
    l1 = dotmod.doubled_free_part(dot_spec)
    return np.add.outer(l1, field_left - field_right).ravel()


def assemble_interaction(dot_spec, basis, grid):
    """Two-block interaction; returns (first_block, second_block), both Hermitian.

    The full interaction is first_block - second_block.
    """
    dot_left, dot_right = _dot_blocks(dot_spec)
    b1_field = (basis.smeared(grid.left_smearing, "left", create=False)
                + basis.smeared(grid.right_smearing, "right", create=True))
    b2_field = (basis.smeared(np.conj(grid.right_smearing), "left", create=True)
                + basis.smeared(np.conj(grid.left_smearing), "right", create=False))
    b1 = sparse.kron(dot_left, b1_field, format="csr")
    b2 = sparse.kron(dot_right, b2_field, format="csr")
    first = (b1 + b1.getH()).tocsr()
    second = (b2 + b2.getH()).tocsr()
    return first, second


def build_bundle(dot_spec, grid, trunc, lam, xi=None, rho_crit=None):
    """Assemble every operator of a run into one bundle.

    xi = None runs without a condensate term.  When xi is given, rho_crit must
    be supplied (from the reservoir thermodynamics) and xi.r must weakly
    exceed it.
    """
    if trunc.n_modes != grid.n_modes:
        raise ValueError("truncation and grid disagree on the mode count")
    basis = FockBasis(trunc)
    d2 = dot_spec.d ** 2
    fd = basis.dim
    dim = d2 * fd

    e_left = basis.energy_diag(grid.omegas, "left")
    e_right = basis.energy_diag(grid.omegas, "right")
    l0_diag = assemble_free(dot_spec, e_left, e_right)

    first, second = assemble_interaction(dot_spec, basis, grid)
    I_mat = (first - second).tocsr()

    eye_field = sparse.identity(fd, format="csr", dtype=complex)
    if xi is not None:
        if rho_crit is None:
            raise ValueError("condensate runs need rho_crit")
        k_dot = dotmod.condensate_term(dot_spec, xi, rho_crit, grid.g0)
        k_left_dot = dotmod.condensate_left_term(dot_spec, xi, rho_crit, grid.g0)
        K_mat = sparse.kron(_csr(k_dot), eye_field, format="csr")
        K_left = sparse.kron(_csr(k_left_dot), eye_field, format="csr")
    else:
        K_mat = sparse.csr_matrix((dim, dim), dtype=complex)
        K_left = sparse.csr_matrix((dim, dim), dtype=complex)

    L_mat = (sparse.diags(l0_diag.astype(complex), format="csr")
             + lam * (I_mat + K_mat)).tocsr()

    lambda_diag = np.tile(e_left + e_right, d2)
    levels = np.arange(dot_spec.d, dtype=float)
    q_dot = (levels[:, None] - levels[None, :]).ravel()
    q_field = basis.number_diag("left") - basis.number_diag("right")
    q_diag = np.add.outer(q_dot, q_field).ravel()

    bundle = OperatorBundle(
        dot_spec=dot_spec, grid=grid, trunc=trunc, basis=basis, lam=float(lam),
        xi=xi, rho_crit=rho_crit,
        I_op=SparseOperator(I_mat, hermitian=True, label="I"),
        K=SparseOperator(K_mat, hermitian=True, label="K"),
        L=SparseOperator(L_mat, hermitian=True, label="L"),
        l0_diag=l0_diag, lambda_diag=lambda_diag, q_diag=q_diag,
        I_first=first, I_second=second, K_left=K_left,
    )
    return bundle


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


def antisymmetric_one_body(grid, seed=7, bandwidth=3):
    """Seeded banded real-antisymmetric generator, an alternative conjugate."""
    m = grid.n_modes
    rng = np.random.default_rng(seed)
    r = np.zeros((m, m))
    for b in range(1, min(bandwidth, m - 1) + 1):
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
    N = i L A).  I1 = (C1 - Lambda)/lambda is kept for diagnostics when
    lambda is nonzero.
    """
    if scheme == "log_dilation":
        one_body = dilation_one_body(bundle.grid)
    elif scheme == "custom_antisymmetric":
        one_body = antisymmetric_one_body(bundle.grid, seed=seed)
    else:
        raise ValueError(f"unknown conjugate scheme {scheme!r}")

    basis = bundle.basis
    a_field = (basis.dgamma(one_body, "left")
               - basis.dgamma(one_body, "right")).tocsr()
    eye_dot = sparse.identity(bundle.dot_dim ** 2, format="csr", dtype=complex)
    a_full = sparse.kron(eye_dot, a_field, format="csr")

    n = (1j * (bundle.L.matrix @ a_full)).tocsr()
    c1 = (n + n.getH()).tocsr()

    bundle.A = SparseOperator(a_full, hermitian=True, label=f"A[{scheme}]")
    bundle.C1 = SparseOperator(c1, hermitian=True, label="C1")
    if bundle.lam != 0:
        bundle.I1 = ((c1 - bundle.Lambda.matrix) / bundle.lam).tocsr()
    else:
        bundle.I1 = None
    bundle.conjugate_scheme = scheme
    return bundle.A, bundle.C1, bundle.I1


# ---------------------------------------------------------------------------
# equilibrium vector

def kms_vector(bundle, tol=1e-10):
    """Equilibrium vector of the interacting generator, with its residual.

    exp(-beta (L0 + lambda I_left)/2) applied to the free equilibrium vector
    by the self-verifying Lanczos action of krylov.expm_action (tol), at every
    dimension, and normalized; I_left keeps the left-acting interaction block
    and the left condensate half.  No dense eigendecomposition enters.  At
    lambda = 0 the free equilibrium vector is returned unchanged (it is
    annihilated by the diagonal free generator exactly).  Returns
    (state, residual) with residual = || L psi ||.
    """
    omega0 = bundle.free_equilibrium()
    if bundle.lam == 0:
        state = StateVector(amplitudes=omega0, label="kms")
        residual = float(np.linalg.norm(bundle.L.matrix @ omega0))
        return state, residual

    gen = (sparse.diags(bundle.l0_diag, format="csr")
           + bundle.lam * (bundle.I_first + bundle.K_left)).tocsr()
    raw = expm_action(gen, omega0, scale=-0.5 * bundle.beta, tol=tol)
    raw = raw / np.linalg.norm(raw)
    state = StateVector(amplitudes=raw, label="kms")
    residual = float(np.linalg.norm(bundle.L.matrix @ raw))
    return state, residual
