"""Time evolution, ergodic means, and return-to-equilibrium deviations.

Ergodic means are evaluated in the eigenphase representation: the time
average of e^{it(e-e')} over [0, T] has the closed form (e^{iTx}-1)/(iTx), so
no time stepping enters and the T -> infinity limit is an exact spectral sum
over clusters of equal eigenvalues.  The deviation of that limit from the
product of equilibrium expectations is the weak-coupling return-to-equilibrium
figure of merit.  Every ergodic quantity reads the bundle's blocked
eigensystem (liouville.BlockedEigensystem) and the clusters it forms once;
nothing here factorises L or clusters a spectrum.  Propagation (evolve) is
the Lanczos action and reads no eigensystem.  The equilibrium vector is the
KMS vector projected onto the eigensystem's cluster nearest zero, by the
projection spectral.kms_kernel_vector applies to a report's kernel basis.

One spectral pass per condensate density serves every phase theta of it:
L(theta) = e^{i theta Q} L(0) e^{-i theta Q} and omega(theta) =
e^{i theta Q} omega(0), so with A and B split by the charge they shift,
every quantity is a short Fourier sum in theta whose coefficients the pass
forms once, in the gauged frame of the eigensystem's blocks and on only the
blocks that B omega reaches.  The limit, the deviation, every finite-T
window and the exact average over any measure of theta (superpose_xi) come
from it; ergodic_mean and a single-bundle rte_deviation run the same pass at
the bundle's own phase, and the identity observable cancels exactly.
"""

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import expm

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
    share: float = 0.0  # on cluster pairs with gap * T < 10; not written

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if k != "share"} | {
            "messages": list(self.messages)}


class ThetaSeries(NamedTuple):
    """One density's rte quantities as Fourier series in the phase theta,
    X(theta) = sum_f X_f e^{i theta f} over freqs: freqs is closed under
    f -> -f and X_{-f} = conj(X_f), so each sum is real."""
    freqs: np.ndarray
    limit: np.ndarray
    omega_bb: np.ndarray
    omega_a: np.ndarray


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
    return sparse.kron(sparse.kron(sparse.csr_matrix(x), eye_d, format="csr"),
                       eye_f, format="csr")


def operator_norm(obs):
    """Spectral norm by one dense SVD: deterministic, cubic in the dimension."""
    return float(np.linalg.norm(_as_matrix(obs).toarray(), 2))


# ---------------------------------------------------------------------------
# propagation

def evolve(bundle, state, t):
    """e^{-i t L} applied to a state by the Lanczos action
    (krylov.expm_action) at every dimension; it never factorises L."""
    v = _as_array(state)
    if t == 0:
        return StateVector(amplitudes=v.copy())
    return StateVector(amplitudes=expm_action(bundle.L.matrix, v,
                                              scale=-1j * t))


# ---------------------------------------------------------------------------
# one spectral pass shared by the ergodic formulas

# entries of W's rows per slice of whole clusters, which bounds every array
# of the pass but M_p
WINDOW_SLICE = 1 << 15


def _kernels(x):
    """(sin x, cos x, sin x / x, x), with x read as 1 below |x| = 1e-8 and
    sin x / x as 1 there: what _window needs of the phases x."""
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    sin = np.sin(x)
    return sin, np.cos(x), np.where(small, 1.0, sin / safe), safe


def _window(w, kernels):
    """Re sum w phi(x) and Re sum w phi(2x), for
    phi(x) = (e^{ix}-1)/(ix) = sin(x)/x + i(1-cos x)/x, the time average of
    e^{is} over s in [0, x]: a window T and its Richardson partner 2T.  The
    kernels are _kernels(x), so one sin and one cos of x serve every row of
    a 2-D w, which gives one pair of sums per row.

    Both windows come from them, by the double-angle identities
    sin(2x)/(2x) = (sin x / x) cos x and (1 - cos 2x)/(2x) = sin x (sin x / x).
    Where cos x > 0, (1 - cos x)/x is taken as sin x (sin x / x)/(1 + cos x),
    which does not cancel for small x.
    """
    sin, cos, sinc, safe = kernels
    m_T = np.dot(w.real, sinc)
    m_2T = np.dot(w.real, sinc * cos)
    if np.iscomplexobj(w):
        m_T -= np.dot(w.imag, np.where(cos > 0, sin * sinc / (1.0 + cos),
                                       (1.0 - cos) / safe))
        m_2T -= np.dot(w.imag, sin * sinc)
    return m_T, m_2T


def _charge_parts(mat, q_diag):
    """mat split by the charge it shifts: {p: A_p} in ascending p, where A_p
    keeps the entries with q_diag[row] - q_diag[col] = p, so that
    e^{-i theta Q} A e^{i theta Q} = sum_p e^{-i theta p} A_p.  A dot
    observable X has the parts p = i - j of its entries X_ij != 0."""
    coo = mat.tocoo()
    # callers pass any sparse matrix, and a stored zero would add a
    # charge part that A does not have
    nz = coo.data != 0
    data, row, col = coo.data[nz], coo.row[nz], coo.col[nz]
    shift = np.rint(q_diag[row] - q_diag[col]).astype(int)
    parts = {}
    for p in np.unique(shift):
        keep = shift == p
        parts[int(p)] = real_if_exact(sparse.csr_matrix(
            (data[keep], (row[keep], col[keep])), shape=mat.shape))
    return parts or {0: real_if_exact(sparse.csr_matrix(mat))}


def _ergodic_pass(eig, q_diag, a_mat, b_mat, omega, thetas, t_list):
    """Ergodic limit and finite-T means of <v, e^{itL} A e^{-itL} v>,
    v = B omega, for the generators L(theta) = e^{i theta Q} L(0)
    e^{-i theta Q} of the eigensystem eig at every phase in thetas.

    omega is a vector of the phase of eig's own gauge g; the vector at theta
    is e^{i theta Q} w with w = conj(g) omega, so that with the charge parts
    of A and B (_charge_parts) everything below is a Fourier sum over theta
    in the gauged frame of eig's blocks: conj(gauge) v = sum_k e^{-i theta k}
    u_k with u_k = B_k w, and every quantity is Re sum_f e^{i theta f} X_f.
    The limit is sum_g <P_g v, A P_g v> over the cluster projections P_g v,
    and omega_bb = sum_g |P_g v|^2 is the same sum with A = 1, so A = 1
    cancels exactly; omega_a = <w, A w> / <w, w>.  Only the symmetry blocks
    that some u_k reaches enter.  Over their eigenvectors U, with
    c_k = U^H u_k and M_p = U^H A_p U, the weight of the frequency f is
    W_f = sum conj(c_k) M_p c_k' over k - p - k' = f.  The mean over [0, T]
    is sum_jk W_jk phi(T (e_j - e_k)); as phi(-x) = conj(phi(x)) it is tr W
    plus the window of the pairs j < k of W_jk + conj(W_kj) (its real part)
    and that of W_jk - conj(W_kj) against -i phi (its imaginary part, needed
    for f != 0 only); A need not be Hermitian, so W_{-f} is not W_f^H.
    A window is flagged when more than 1e-2 of sum |S_gh| sits on distinct
    clusters g, h with gap * T < 10, whose phases have not yet averaged out;
    S_gh = <P_g v, A P_h v> is the block sum of W over the two clusters
    and, unlike the entries of W, does not depend on the basis eigh picks
    inside a cluster.
    n_clusters and min_cluster_gap are those of the whole spectrum of eig.
    Only M_p has n_c^2 entries: the columns are walked in slices J of whole
    clusters, about WINDOW_SLICE entries of W's rows each, first for the
    projections P_g u_k, then, with M_p, for W_f[J, :] and W_f[:, J] and
    their share of the trace, the windows (the pairs j < k, j in J) and
    sum |S_gh| (the rows of S_f for J's clusters).

    Returns (runs, series): one (limit, omega_bb, omega_a, [ErgodicReport
    per window T]) per phase, and the ThetaSeries of the limit, omega_bb and
    omega_a, their coefficients taken as (X_f + conj(X_{-f}))/2, whose
    Fourier sums are the real parts each run reports.
    """
    labels, means = eig.clusters
    gap = float(np.diff(means).min()) if len(means) > 1 else np.inf

    w = real_if_exact(np.conj(eig.gauge) * omega)
    a_parts = _charge_parts(a_mat, q_diag)
    b_parts = _charge_parts(b_mat, q_diag)
    ks = list(b_parts)
    rows, cols, vecs, c = eig.support(
        np.stack([b_parts[k] @ w for k in ks], axis=1))
    terms = {}
    for i, k in enumerate(ks):
        for p in a_parts:
            for j, k2 in enumerate(ks):
                terms.setdefault(k - p - k2, []).append((i, p, j))
    found = sorted(terms)
    # closed under f -> -f, so that X_{-f} sits at the mirrored index
    freqs = sorted({s * f for f in [*found, *a_parts] for s in (1, -1)}
                   | {k - m for k in ks for m in ks})
    at = {f: n for n, f in enumerate(freqs)}
    phases = np.exp(1j * np.outer(thetas, freqs))

    present, lab = np.unique(labels[cols], return_inverse=True)
    n_p, n_c = len(present), len(cols)
    a_rows = {p: real_if_exact(a[rows][:, rows]) for p, a in a_parts.items()}
    # the columns by cluster, from edges on; slices of whole clusters own of
    # about WINDOW_SLICE entries of W's rows, their columns J and starts in J
    order = np.argsort(lab, kind="stable")
    edges = np.r_[0, np.cumsum(np.bincount(lab, minlength=n_p))]
    cuts = np.unique(np.searchsorted(edges, np.r_[np.arange(
        0, n_c, WINDOW_SLICE / max(n_c, 1)), n_c]))
    slices = [(order[edges[g]:edges[h]], np.arange(g, h),
               edges[g:h] - edges[g]) for g, h in zip(cuts, cuts[1:])]
    # P_g u_k on the rows the u_k reach, a column per cluster of a slice; the
    # limit and omega_bb add the same products in the same order: A = 1 cancels
    limit = np.zeros(len(freqs), dtype=complex)
    omega_bb = np.zeros(len(freqs), dtype=complex)
    for J, _, starts in slices:
        proj = [np.add.reduceat(vecs[:, J] * c[J, i], starts, axis=1)
                for i in range(len(ks))]
        for j, k_j in enumerate(ks):
            for i, k_i in enumerate(ks):
                omega_bb[at[k_i - k_j]] += np.vdot(proj[i], proj[j])
            for p, a in a_rows.items():
                a_proj = a @ proj[j]
                for i, k_i in enumerate(ks):
                    limit[at[k_i - p - k_j]] += np.vdot(proj[i], a_proj)
    omega_a = np.zeros(len(freqs), dtype=complex)
    for p, a in a_parts.items():
        omega_a[at[-p]] += np.vdot(w, a @ w)
    omega_a /= np.vdot(w, w).real

    m_parts = {p: real_if_exact(vecs.conj().T @ (a @ vecs))
               for p, a in a_rows.items()}

    def weight(f, r, s):
        """W_f on the rows r and the columns s of the support."""
        return sum(np.einsum("j,jk,k->jk", np.conj(c[r, i]),
                             m_parts[p][r][:, s], c[s, j])
                   for i, p, j in terms[f])

    evals, mean_p = eig.evals[cols], means[present]
    nonzero = [f for f in found if f]
    trace = np.zeros(len(freqs), dtype=complex)
    # per window, the sums of the means over [0, T] and [0, 2T]; per phase,
    # sum |S_gh| in all and on the pairs with gap * T < 10 per window
    re = np.zeros((len(t_list), 2, len(found)))
    im = np.zeros((len(t_list), 2, len(nonzero)))
    total, short = np.zeros(len(thetas)), np.zeros((len(thetas), len(t_list)))
    for J, own, starts in slices:
        upper = np.arange(n_c) > J[:, None]
        blocks, plus, minus = [], [], []
        for f in found:
            rows_w = weight(f, J, slice(None))
            lower = np.conj(weight(f, slice(None), J).T[upper])
            trace[at[f]] += rows_w[np.arange(len(J)), J].sum()
            blocks.append(np.add.reduceat(np.add.reduceat(
                rows_w, starts)[:, order], edges[:-1], axis=1))
            plus.append(rows_w[upper] + lower)
            if f:
                minus.append(rows_w[upper] - lower)
        dist = np.abs(mean_p[own, None] - mean_p)
        dist[own - own[0], own] = np.inf
        for n, e in enumerate(phases):
            # |S_gh| at a phase; with one frequency it is the same at all
            block = np.abs(blocks[0] if len(found) == 1 else sum(
                e[at[f]] * s for f, s in zip(found, blocks)))
            total[n] += block.sum()
            short[n] += [block[T * dist < 10].sum() for T in t_list]
        dx = np.subtract.outer(evals[J], evals)[upper]
        plus, minus = np.array(plus), np.reshape(minus, (len(minus), len(dx)))
        del rows_w, lower, blocks, block, upper
        for t, T in enumerate(t_list):
            kernels = _kernels(T * dx)
            re[t] += _window(plus, kernels)
            # Re sum w (-i phi) = Re sum (-i w) phi
            im[t] += _window(-1j * minus, kernels)
            del kernels
    coef = np.zeros((len(t_list), 2, len(freqs)), dtype=complex) + trace
    coef[..., [at[f] for f in found]] += re
    coef[..., [at[f] for f in nonzero]] += 1j * im

    runs = []
    for e, tot, shares in zip(phases, total, short):
        lim = float((e @ limit).real)
        reports = []
        for T, part, (coef_T, coef_2T) in zip(t_list, shares, coef):
            m_T, m_2T = float((e @ coef_T).real), float((e @ coef_2T).real)
            share = float(part / tot) if tot else 0.0
            messages = ()
            if share > 1e-2:
                messages = (f"weight share {share:.3g} on cluster pairs with "
                            "gap * T < 10: finite-T mean unreliable",)
            reports.append(ErgodicReport(
                finite_mean=m_T, T=float(T), extrapolated=2.0 * m_2T - m_T,
                closed_form=lim, min_cluster_gap=gap, n_clusters=len(means),
                messages=messages, share=share))
        runs.append((lim, float((e @ omega_bb).real),
                     float((e @ omega_a).real), reports))
    return runs, ThetaSeries(np.array(freqs), *(
        (x + np.conj(x[::-1])) / 2 for x in (limit, omega_bb, omega_a)))


def ergodic_mean(bundle, a_obs, b_obs, omega, T):
    """Time-averaged Heisenberg expectation in the eigenphase representation.

    Returns the finite-T mean of <B omega, e^{itL} A e^{-itL} B omega>, its
    Richardson extrapolation from T and 2T, and the exact T -> infinity
    spectral sum over clusters of equal eigenvalues (the ergodic limit of
    rte_deviation); the time integral is evaluated analytically per
    eigenvalue pair.  A window too short for the weight it carries on close
    cluster pairs is flagged in the report's messages.
    """
    ((_, _, _, (report,)),), _ = _ergodic_pass(
        bundle.eigensystem(), bundle.q_diag, _as_matrix(a_obs),
        _as_matrix(b_obs), _as_array(omega), [bundle.theta], [T])
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


def rte_deviation(bundle, a_obs, b_obs, T=(), *, a_norm, thetas=None):
    """Deviation of the ergodic limit from the equilibrium product.

    deviation = | lim_T (1/T) int <B omega, sigma_t(A) B omega> dt
                 - omega(B*B) omega(A) |

    evaluated in real parts through one spectral pass, so that the identity
    observable gives zero exactly.  omega is equilibrium_vector, the
    projection of the perturbative thermal vector onto the kernel, and
    finite_T holds one ergodic_mean report per window in T.  The normalized
    field divides by a_norm, the spectral norm of A, which the caller holds:
    ||X|| for a dot observable X, since ||X (x) 1|| = ||X||.  factorisation
    describes the bundle's blocked eigensystem, and factorised is true for
    the first phase of its density only: the bundle factorises once for all
    of them.

    Without thetas this is one run, at the bundle's own condensate phase.
    With a list thetas of phases, the bundle stands for every bundle that
    differs from it only in the phase: L(theta) = e^{i theta Q} L(0)
    e^{-i theta Q} and omega(theta) = e^{i theta Q} omega(0), so one KMS
    vector and one pass give every phase, and the result is (runs, series):
    one run per phase, with its own xi in the manifest and factorised only
    for the first, and the ThetaSeries of the density, from which
    superpose_xi integrates over any measure of the phase.
    """
    a_mat = _as_matrix(a_obs)
    b_mat = _as_matrix(b_obs)
    eig = bundle.eigensystem()
    w = equilibrium_vector(bundle)[0].amplitudes
    at_thetas = [bundle.theta] if thetas is None else thetas
    runs, series = _ergodic_pass(eig, bundle.q_diag, a_mat, b_mat, w,
                                 at_thetas, T)

    manifest = bundle.manifest()
    out = []
    for n, (theta, (limit, omega_bb, omega_a, reports)) in enumerate(
            zip(at_thetas, runs)):
        if bundle.xi is not None:
            manifest = {**manifest, "xi": {"r": float(bundle.xi.r),
                                           "theta": float(theta)}}
        deviation = abs(limit - omega_bb * omega_a)
        out.append({
            "deviation": deviation,
            "deviation_normalized": deviation / a_norm if a_norm > 0 else 0.0,
            "ergodic_limit": limit,
            "omega_bb": omega_bb,
            "omega_a": omega_a,
            "a_norm": a_norm,
            "lambda": bundle.lam,
            "manifest": manifest,
            "factorisation": eig.telemetry(),
            "factorised": n == 0,
            "finite_T": [r.to_dict() for r in reports],
        })
    return out[0] if thetas is None else (out, series)


def superpose_xi(measure, results, series):
    """Measure-weighted aggregate of per-condensate ergodic results.

    results holds one run per point of the measure, all from the same grid,
    truncation, dot and coupling, and gives the per_xi rows.  series maps
    each density r to the ThetaSeries of its pass (rte_deviation with
    thetas).  With the measure's phase moments m at r (phase_moments), the
    ergodic limit adds sum_f limit_f m(f) and the redistribution target,
    the weighted omega_bb * omega_a, adds sum_fg bb_f a_g m(f + g): both are
    exact in theta.
    """
    if len(results) != len(measure.points):
        raise ValueError("one result per measure atom required")
    manifests = [{k: v for k, v in res["manifest"].items() if k != "xi"}
                 for res in results]
    if any(man != manifests[0] for man in manifests):
        raise ValueError("inconsistent run manifests in superposition")
    densities = dict.fromkeys(xi.r for xi, _ in measure.points)
    if not densities.keys() <= series.keys():
        raise ValueError("one theta series per density required")

    agg_limit = target = 0.0
    for r in densities:
        f, limit, omega_bb, omega_a = series[r]
        pair_moments = measure.phase_moments(r, np.add.outer(f, f))
        agg_limit += float((limit @ measure.phase_moments(r, f)).real)
        target += float((omega_bb @ pair_moments @ omega_a).real)
    per_xi = [{"r": xi.r, "theta": xi.theta, "weight": weight,
               "ergodic_limit": res["ergodic_limit"],
               "deviation": res["deviation"]}
              for (xi, weight), res in zip(measure.points, results)]

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
    """e^{itL} A e^{-itL}, the exact propagator of dyson_comparison, from
    one dense expm of the whole L: it reads no eigensystem."""
    a = np.asarray(a_full.toarray() if sparse.issparse(a_full) else a_full,
                   dtype=complex)
    u = expm(1j * t * bundle.L.matrix.toarray())
    return u @ a @ u.conj().T


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
