"""Time evolution, ergodic means, and return-to-equilibrium deviations.

Ergodic means are evaluated in the eigenphase representation: the time
average of e^{it(e-e')} over [0, T] has the closed form (e^{iTx}-1)/(iTx), so
no time stepping enters and the T -> infinity limit is an exact spectral sum
over clusters of equal eigenvalues.  The deviation of that limit from the
product of equilibrium expectations is the weak-coupling return-to-equilibrium
figure of merit.  Everything here reads the bundle's blocked eigensystem
(liouville.BlockedEigensystem) and the clusters it forms once; nothing here
factorises L or clusters a spectrum.  The equilibrium vector is the KMS vector
projected onto the eigensystem's cluster nearest zero, by the projection
spectral.kms_kernel_vector applies to a report's kernel basis.  One spectral
pass per (bundle, A, B omega) changes the basis of A once, on only the
symmetry blocks that B omega reaches; the limit, the deviation and every
finite-T window come from it, and the identity observable cancels exactly.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from .fock import StateVector
from .krylov import expm_action
from .liouville import equilibrium_projection, real_if_exact


@dataclass
class ErgodicReport:
    finite_mean: float
    T: float
    extrapolated: float
    closed_form: float
    min_cluster_gap: float
    n_clusters: int
    messages: tuple = ()

    def to_dict(self):
        return {
            "finite_mean": self.finite_mean,
            "T": self.T,
            "extrapolated": self.extrapolated,
            "closed_form": self.closed_form,
            "min_cluster_gap": self.min_cluster_gap,
            "n_clusters": self.n_clusters,
            "messages": list(self.messages),
        }


def _as_array(state):
    if isinstance(state, StateVector):
        return state.amplitudes
    return np.asarray(state, dtype=complex)


def _as_matrix(obs):
    if sparse.issparse(obs):
        return obs
    if hasattr(obs, "matrix"):
        return obs.matrix
    return sparse.csr_matrix(np.asarray(obs, dtype=complex))


def dot_observable(bundle, x):
    """Left-acting dot observable X (x) 1 (x) 1_field on the composite space."""
    x = np.asarray(x, dtype=complex)
    d = bundle.dot_dim
    if x.shape != (d, d):
        raise ValueError("observable must be d x d on the dot")
    eye_d = sparse.identity(d, format="csr", dtype=complex)
    eye_f = sparse.identity(bundle.field_dim, format="csr", dtype=complex)
    return sparse.kron(sparse.kron(sparse.csr_matrix(x), eye_d), eye_f,
                       format="csr")


def operator_norm(obs):
    """Spectral norm, dense up to dimension 600, else the largest singular
    value by iteration (to 1e-8)."""
    mat = _as_matrix(obs)
    n = mat.shape[0]
    if n <= 600:
        return float(np.linalg.norm(mat.toarray(), 2))
    s = svds(mat.astype(complex), k=1, return_singular_vectors=False, tol=1e-8)
    return float(s[0])


# ---------------------------------------------------------------------------
# propagation

def evolve(bundle, state, t):
    """e^{-i t L} applied to a state: in the bundle's full eigensystem when
    it has one (OperatorBundle.full_eigensystem), else by Krylov."""
    v = _as_array(state)
    if t == 0:
        return StateVector(amplitudes=v.copy(), label="evolved[0]")
    eig = bundle.full_eigensystem()
    if eig is not None:
        rows, cols, vecs, c = eig.support(v)
        out = np.zeros(len(v), dtype=complex)
        out[rows] = eig.gauge[rows] * (
            vecs @ (np.exp(-1j * t * eig.evals[cols]) * c))
    else:
        out = expm_action(bundle.L.matrix, v, scale=-1j * t)
    return StateVector(amplitudes=out, label=f"evolved[{t}]")


# ---------------------------------------------------------------------------
# one spectral pass shared by the ergodic formulas

def _window(w, x):
    """Re sum w phi(x) and Re sum w phi(2x), for
    phi(x) = (e^{ix}-1)/(ix) = sin(x)/x + i(1-cos x)/x, the time average of
    e^{is} over s in [0, x]: a window T and its Richardson partner 2T.

    One sin and one cos of x serve both, by the double-angle identities
    sin(2x)/(2x) = (sin x / x) cos x and (1 - cos 2x)/(2x) = sin x (sin x / x).
    Where cos x > 0, (1 - cos x)/x is taken as sin x (sin x / x)/(1 + cos x),
    which does not cancel for small x.  Below |x| = 1e-8, sin x / x is 1.
    """
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    sin, cos = np.sin(x), np.cos(x)
    sinc = np.where(small, 1.0, sin / safe)
    m_T = np.dot(w.real, sinc)
    m_2T = np.dot(w.real, sinc * cos)
    if np.iscomplexobj(w):
        m_T -= np.dot(w.imag, np.where(cos > 0, sin * sinc / (1.0 + cos),
                                       (1.0 - cos) / safe))
        m_2T -= np.dot(w.imag, sin * sinc)
    return float(m_T), float(m_2T)


def _ergodic_pass(eig, a_mat, v, t_list):
    """Ergodic limit and finite-T means of <v, e^{itL} A e^{-itL} v>.

    The limit is sum_g <P_g v, A P_g v> over the cluster projections P_g v;
    it is returned with sum_g |P_g v|^2 and one ErgodicReport per window T.
    Only the symmetry blocks on which v does not vanish enter.  Every window
    uses the weight W_jk = conj(c_j) (U^H A U)_jk c_k over their eigenvectors
    U, c = U^H v, formed once: the mean over [0, T] is
    sum_jk W_jk phi(T (e_j - e_k)); as phi(-x) = conj(phi(x)), its real part
    is Re tr W plus the real kernels of _window over the upper triangle of
    W + W^H (twice that of W when A is Hermitian).  A window is flagged when
    more than 1e-2 of sum |S_gh| sits on distinct clusters g, h with
    gap * T < 10, whose phases have not yet averaged out;
    S_gh = <P_g v, A P_h v> is the block sum of W over the two clusters and,
    unlike the entries of W, does not depend on the basis eigh
    picks inside a cluster.  n_clusters and min_cluster_gap are those of the
    whole spectrum of the eigensystem eig.
    """
    labels, means = eig.clusters
    n_g = len(means)
    gap = float(np.diff(means).min()) if n_g > 1 else np.inf

    rows, cols, vecs, c = eig.support(v)
    present, lab = np.unique(labels[cols], return_inverse=True)
    n_p = len(present)
    # P_g v on the rows v reaches, one column per cluster present: vecs C
    # with C_jg = c_j where column j lies in cluster g; the limit and
    # omega_bb are the same sum, so A = 1 cancels exactly
    onehot = sparse.csr_matrix((c, (np.arange(len(c)), lab)),
                               shape=(len(c), n_p))
    proj = eig.gauge[rows][:, None] * (vecs @ onehot)
    a_rows = real_if_exact(a_mat[rows][:, rows])
    limit = float(np.vdot(proj, a_rows @ proj).real)
    omega_bb = float(np.vdot(proj, proj).real)
    del proj

    phases = sparse.diags(eig.gauge[rows])
    a_rows = real_if_exact(phases.conj() @ a_rows @ phases)
    weight = np.conj(c)[:, None] * (vecs.conj().T @ (a_rows @ vecs)) * c
    # S_gh from one bincount per part of W over the pairs of the clusters
    # present; every window's share is taken here, so these arrays are
    # freed before the phase kernels are formed
    pair = (lab[:, None] * n_p + lab).ravel()
    block = np.hypot(np.bincount(pair, weight.real.ravel(), n_p * n_p),
                     np.bincount(pair, weight.imag.ravel(),
                                 n_p * n_p)).reshape(n_p, n_p)
    del pair
    dist = np.abs(means[present][:, None] - means[present])
    np.fill_diagonal(dist, np.inf)
    total = block.sum()
    shares = [float(block[T * dist < 10].sum() / total) if total else 0.0
              for T in t_list]
    del block, dist

    upper = np.triu_indices(len(cols), 1)
    evals = eig.evals[cols]
    dx = evals[upper[0]] - evals[upper[1]]
    w_upper = weight[upper]
    w_upper += weight.T[upper].conj()
    diagonal = float(np.trace(weight).real)
    del upper, weight

    reports = []
    for T, share in zip(t_list, shares):
        m_T, m_2T = (diagonal + m for m in _window(w_upper, T * dx))
        messages = ()
        if share > 1e-2:
            messages = (f"weight share {share:.3g} on cluster pairs with "
                        "gap * T < 10: finite-T mean unreliable",)
        reports.append(ErgodicReport(
            finite_mean=m_T, T=float(T), extrapolated=2.0 * m_2T - m_T,
            closed_form=limit, min_cluster_gap=gap, n_clusters=n_g,
            messages=messages))
    return limit, omega_bb, reports


def ergodic_mean(bundle, a_obs, b_obs, omega, T):
    """Time-averaged Heisenberg expectation in the eigenphase representation.

    Returns the finite-T mean of <B omega, e^{itL} A e^{-itL} B omega>, its
    Richardson extrapolation from T and 2T, and the exact T -> infinity
    spectral sum over clusters of equal eigenvalues (the ergodic limit of
    rte_deviation); the time integral is evaluated analytically per
    eigenvalue pair.  A window too short for the weight it carries on close
    cluster pairs is flagged in the report's messages.
    """
    v = _as_matrix(b_obs) @ _as_array(omega)
    _, _, (report,) = _ergodic_pass(bundle.eigensystem(), _as_matrix(a_obs),
                                    v, [T])
    return report


# ---------------------------------------------------------------------------
# equilibrium vector and deviation

def equilibrium_vector(bundle):
    """The KMS vector projected onto the kernel of L, the cluster of the
    bundle's eigensystem nearest zero: (normalized projection, the cluster's
    mean eigenvalue, captured norm fraction)."""
    eig = bundle.eigensystem()
    labels, means = eig.clusters
    zero = int(np.argmin(np.abs(means)))
    state, captured = equilibrium_projection(
        bundle, eig.vectors(np.flatnonzero(labels == zero)))
    return state, float(means[zero]), captured


def rte_deviation(bundle, a_obs, b_obs, T=(), a_norm=None):
    """Deviation of the ergodic limit from the equilibrium product.

    deviation = | lim_T (1/T) int <B omega, sigma_t(A) B omega> dt
                 - omega(B*B) omega(A) |

    evaluated in real parts through one spectral pass, so that the identity
    observable gives zero exactly.  omega is equilibrium_vector, the
    projection of the perturbative thermal vector onto the kernel, and
    finite_T holds one ergodic_mean report per window in T.  The normalized
    field divides by the spectral norm of A.  factorisation describes the
    bundle's blocked eigensystem, and factorised says whether this bundle ran
    its eigh or took the blocks of another bundle at the same density
    (regauged).
    """
    a_mat = _as_matrix(a_obs)
    b_mat = _as_matrix(b_obs)
    eig = bundle.eigensystem()
    w = equilibrium_vector(bundle)[0].amplitudes
    limit, omega_bb, reports = _ergodic_pass(eig, a_mat, b_mat @ w, T)
    omega_a = float(np.vdot(w, a_mat @ w).real / np.vdot(w, w).real)

    deviation = abs(limit - omega_bb * omega_a)
    if a_norm is None:
        a_norm = operator_norm(a_mat)

    return {
        "deviation": deviation,
        "deviation_normalized": deviation / a_norm if a_norm > 0 else 0.0,
        "ergodic_limit": limit,
        "omega_bb": omega_bb,
        "omega_a": omega_a,
        "a_norm": a_norm,
        "lambda": bundle.lam,
        "manifest": bundle.manifest(),
        "factorisation": eig.telemetry(),
        "factorised": eig.factorised,
        "finite_T": [r.to_dict() for r in reports],
    }


def superpose_xi(measure, results):
    """Measure-weighted aggregate of per-condensate ergodic results.

    Every entry must come from the same grid, truncation, dot, and coupling;
    only the condensate point may differ.  Returns the weighted ergodic limit
    and the redistribution target sum(weight * omega_bb * omega_a).
    """
    if len(results) != len(measure.points):
        raise ValueError("one result per measure atom required")

    def strip(man):
        out = {k: v for k, v in man.items() if k not in ("xi",)}
        return out

    base = strip(results[0]["manifest"])
    for res in results[1:]:
        if strip(res["manifest"]) != base:
            raise ValueError("inconsistent run manifests in superposition")

    agg_limit = 0.0
    target = 0.0
    per_xi = []
    for (xi, weight), res in zip(measure.points, results):
        agg_limit += weight * res["ergodic_limit"]
        target += weight * res["omega_bb"] * res["omega_a"]
        per_xi.append({"r": xi.r, "theta": xi.theta, "weight": weight,
                       "ergodic_limit": res["ergodic_limit"],
                       "deviation": res["deviation"]})

    return {
        "aggregate_limit": agg_limit,
        "redistribution_target": target,
        "aggregate_deviation": abs(agg_limit - target),
        "per_xi": per_xi,
    }


# ---------------------------------------------------------------------------
# Dyson series cross-check

def _phase_conjugate(mat, l0_diag, t):
    """e^{-itL0} M e^{itL0} for diagonal L0: entrywise phases."""
    ph = np.exp(-1j * t * l0_diag)
    return (ph[:, None] * mat) * np.conj(ph)[None, :]


def _comm(x, y):
    return x @ y - y @ x


def dyson_truncated(bundle, a_full, t, order=4, n_steps=256):
    """Heisenberg evolution of a_full through the Dyson hierarchy.

    In the interaction picture the n-th order term solves
    B_n' = i [V(t), B_{n-1}] with V(t) the free-frame coupling; the hierarchy
    is integrated with classical RK4 and the result mapped back to the lab
    frame.  Error against the exact propagator scales like (|lambda| t)^(order+1)
    once the RK4 step error is negligible.
    """
    a = np.asarray(a_full.toarray() if sparse.issparse(a_full) else a_full,
                   dtype=complex)
    v_mat = (bundle.I_op.matrix + bundle.K.matrix).toarray()
    l0 = bundle.l0_diag
    lam = bundle.lam

    bs = [a.copy()] + [np.zeros_like(a) for _ in range(order)]
    h = t / n_steps

    def rhs(s, blist):
        vs = _phase_conjugate(v_mat, l0, s)
        out = [np.zeros_like(a)]
        for n in range(1, order + 1):
            out.append(1j * lam * _comm(vs, blist[n - 1]))
        return out

    s = 0.0
    for _ in range(n_steps):
        k1 = rhs(s, bs)
        k2 = rhs(s + 0.5 * h, [b + 0.5 * h * k for b, k in zip(bs, k1)])
        k3 = rhs(s + 0.5 * h, [b + 0.5 * h * k for b, k in zip(bs, k2)])
        k4 = rhs(s + h, [b + h * k for b, k in zip(bs, k3)])
        bs = [b + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
              for b, a1, a2, a3, a4 in zip(bs, k1, k2, k3, k4)]
        s += h

    total = sum(bs)
    ph = np.exp(1j * t * l0)
    return (ph[:, None] * total) * np.conj(ph)[None, :]


def heisenberg_exact(bundle, a_full, t):
    a = np.asarray(a_full.toarray() if sparse.issparse(a_full) else a_full,
                   dtype=complex)
    evals, evecs = bundle.eigensystem().dense()
    ph = np.exp(1j * t * evals)
    inner = evecs.conj().T @ a @ evecs
    return evecs @ ((ph[:, None] * inner) * np.conj(ph)[None, :]) @ evecs.conj().T


def dyson_comparison(make_bundle, a_of_bundle, lam, t, halvings=2, order=4,
                     n_steps=256):
    """Error-scaling exponents of the truncated Dyson expansion.

    make_bundle(lam) assembles the system at a coupling; a_of_bundle(bundle)
    supplies the observable.  The coupling is halved `halvings` times at fixed
    t and the Frobenius error against the exact propagator is fitted; each
    successive exponent log2(E(lt)/E(lt/2)) should sit near order + 1.
    """
    errors = []
    lams = [lam / 2 ** j for j in range(halvings + 1)]
    for lj in lams:
        bundle = make_bundle(lj)
        a_full = a_of_bundle(bundle)
        approx = dyson_truncated(bundle, a_full, t, order=order,
                                 n_steps=n_steps)
        exact = heisenberg_exact(bundle, a_full, t)
        errors.append(float(np.linalg.norm(approx - exact)))
    exponents = [float(np.log2(e1 / e2))
                 for e1, e2 in zip(errors, errors[1:])]
    return {"lambdas": lams, "errors": errors, "exponents": exponents,
            "order": order, "t": t}
