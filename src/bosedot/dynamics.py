"""Time evolution, ergodic means, and return-to-equilibrium deviations.

Ergodic means are evaluated in the eigenphase representation: the time
average of e^{it(e-e')} over [0, T] has the closed form (e^{iTx}-1)/(iTx), so
no time stepping enters and the T -> infinity limit is an exact spectral sum
over clusters of equal eigenvalues.  The deviation of that limit from the
product of equilibrium expectations is the weak-coupling return-to-equilibrium
figure of merit.  One spectral pass per (bundle, A, B omega) clusters the
bundle's eigensystem once and changes the basis of A once; the limit, the
deviation and every finite-T window come from it, and the identity observable
cancels exactly in floating point.
"""

from dataclasses import dataclass, field as dfield

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from .fock import StateVector
from .krylov import expm_action
from .liouville import DENSE_CUTOFF, kms_vector


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
    """e^{-i t L} applied to a state; eigenbasis when dense, Krylov above."""
    v = _as_array(state)
    if t == 0:
        return StateVector(amplitudes=v.copy(), label="evolved[0]")
    if bundle.dim <= DENSE_CUTOFF:
        evals, evecs = bundle.eigensystem()
        c = evecs.conj().T @ v
        out = evecs @ (np.exp(-1j * t * evals) * c)
    else:
        out = expm_action(bundle.L.matrix, v, scale=-1j * t)
    return StateVector(amplitudes=out, label=f"evolved[{t}]")


# ---------------------------------------------------------------------------
# one spectral pass shared by the ergodic formulas

def _clusters(evals, ctol):
    """Index groups of the sorted spectrum, split at gaps of at least ctol."""
    order = np.argsort(evals)
    return np.split(order, np.flatnonzero(np.diff(evals[order]) >= ctol) + 1)


def _phi(x):
    """Time average of e^{is} over s in [0, x] extended evenly: (e^{ix}-1)/(ix)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    out = (np.exp(1j * safe) - 1.0) / (1j * safe)
    return np.where(small, 1.0 + 0.5j * x, out)


def _clustered_spectrum(bundle):
    """The bundle's eigensystem and its clusters of equal eigenvalues, with
    the one cluster tolerance 1e-9 * max(||L||, 1)."""
    evals, evecs = bundle.eigensystem()
    return evals, evecs, _clusters(evals, 1e-9 * max(bundle.norm_L(), 1.0))


def _ergodic_pass(spectrum, a_mat, v, t_list):
    """Ergodic limit and finite-T means of <v, e^{itL} A e^{-itL} v>.

    The limit is sum_g <P_g v, A P_g v> over the cluster projections P_g v;
    it is returned with sum_g |P_g v|^2 and one ErgodicReport per window T.
    Every window uses the weight W_jk = conj(c_j) (V^H A V)_jk c_k, c = V^H v,
    formed once: the mean over [0, T] is sum_jk W_jk phi(T (e_j - e_k)).  A
    window is flagged when more than 1e-2 of sum |S_gh| sits on distinct
    clusters g, h with gap * T < 10, whose phases have not yet averaged out;
    S_gh = <P_g v, A P_h v> is the block sum of W over the two clusters and,
    unlike the entries of W, does not depend on the basis eigh picks inside
    a cluster.
    """
    evals, evecs, groups = spectrum
    c = evecs.conj().T @ v
    limit = omega_bb = 0.0
    labels = np.empty(len(evals), dtype=int)
    for i, g in enumerate(groups):
        p = evecs[:, g] @ c[g]
        limit += np.vdot(p, a_mat @ p).real
        omega_bb += np.vdot(p, p).real
        labels[g] = i
    limit, omega_bb = float(limit), float(omega_bb)

    weight = evecs.conj().T @ (a_mat @ evecs)
    weight *= np.outer(np.conj(c), c)

    n_g = len(groups)
    reps = np.array([np.mean(evals[g]) for g in groups])
    gap = float(np.diff(np.sort(reps)).min()) if n_g > 1 else np.inf
    # |S_gh| from one bincount per part of W over the cluster-label pairs;
    # every window's share is taken here, so the n_g x n_g arrays are freed
    # before the n x n phase arrays are formed
    pair = (labels[:, None] * n_g + labels).ravel()
    block = np.hypot(np.bincount(pair, weight.real.ravel(), n_g * n_g),
                     np.bincount(pair, weight.imag.ravel(),
                                 n_g * n_g)).reshape(n_g, n_g)
    del pair
    dist = np.abs(reps[:, None] - reps)
    np.fill_diagonal(dist, np.inf)
    total = block.sum()
    shares = [float(block[T * dist < 10].sum() / total) if total else 0.0
              for T in t_list]
    del block, dist

    reports = []
    for T, share in zip(t_list, shares):
        x = T * (evals[:, None] - evals[None, :])
        m_T = complex(np.sum(weight * _phi(x)))
        m_2T = complex(np.sum(weight * _phi(2 * x)))
        messages = ()
        if share > 1e-2:
            messages = (f"weight share {share:.3g} on cluster pairs with "
                        "gap * T < 10: finite-T mean unreliable",)
        reports.append(ErgodicReport(
            finite_mean=m_T.real, T=float(T),
            extrapolated=(2.0 * m_2T - m_T).real, closed_form=limit,
            min_cluster_gap=gap, n_clusters=n_g, messages=messages))
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
    _, _, (report,) = _ergodic_pass(_clustered_spectrum(bundle),
                                    _as_matrix(a_obs), v, [T])
    return report


# ---------------------------------------------------------------------------
# equilibrium stand-in and deviation

def _equilibrium(bundle, spectrum):
    ref, _ = kms_vector(bundle)
    evals, evecs, groups = spectrum
    c = evecs.conj().T @ ref.amplitudes
    best, best_norm, best_e = None, -1.0, 0.0
    for g in groups:
        p = evecs[:, g] @ c[g]
        nrm = np.linalg.norm(p)
        if nrm > best_norm:
            best, best_norm, best_e = p, nrm, float(np.mean(evals[g]))
    state = StateVector(amplitudes=best / best_norm, label="equilibrium")
    return state, best_e, float(best_norm)


def equilibrium_vector(bundle):
    """Best equilibrium stand-in among near-stationary spectral clusters.

    Projects the perturbative thermal vector onto each eigenvalue cluster and
    returns the dominant projection (normalized), the cluster's mean
    eigenvalue, and the captured norm fraction.
    """
    return _equilibrium(bundle, _clustered_spectrum(bundle))


def rte_deviation(bundle, a_obs, b_obs, T=(), a_norm=None):
    """Deviation of the ergodic limit from the equilibrium product.

    deviation = | lim_T (1/T) int <B omega, sigma_t(A) B omega> dt
                 - omega(B*B) omega(A) |

    evaluated in real parts through one spectral pass, so that the identity
    observable gives zero exactly.  omega is the dominant near-stationary
    projection of the perturbative thermal vector, and finite_T holds one
    ergodic_mean report per window in T.  The normalized field divides by
    the spectral norm of A.
    """
    a_mat = _as_matrix(a_obs)
    b_mat = _as_matrix(b_obs)
    spectrum = _clustered_spectrum(bundle)
    w = _equilibrium(bundle, spectrum)[0].amplitudes
    limit, omega_bb, reports = _ergodic_pass(spectrum, a_mat, b_mat @ w, T)
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
    evals, evecs = bundle.eigensystem()
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
