import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, expm

from bosedot import fock, krylov
from bosedot.fock import (TruncationSpec, FockBasis, SparseOperator,
                          DimensionCapError)
from bosedot.krylov import expm_action


def brute_dimension(total_modes, n_max):
    # stars and bars per total occupation shell
    return sum(math.comb(total_modes + k - 1, k) for k in range(n_max + 1))


@pytest.mark.parametrize("n_modes,n_max", [(1, 3), (2, 1), (2, 3), (3, 2)])
def test_field_dimension_formula(n_modes, n_max):
    trunc = TruncationSpec(n_modes, n_max)
    assert trunc.total_modes == 2 * n_modes
    assert trunc.field_dimension() == brute_dimension(2 * n_modes, n_max)


def test_field_dimension_example():
    # two doubled modes, single quantum: vacuum plus one state per mode
    assert TruncationSpec(2, 1).field_dimension() == 5


def test_dimension_cap():
    trunc = TruncationSpec(6, 6, dim_cap=100)
    assert trunc.field_dimension() == 18564
    with pytest.raises(DimensionCapError):
        FockBasis(trunc)


def test_dimension_cap_checked_before_enumeration(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the dimension cap")

    monkeypatch.setattr(fock, "_enumerate", enumerate_nothing)
    with pytest.raises(DimensionCapError):
        FockBasis(TruncationSpec(n_modes=10**6, n_max=3))


# -- oracle: the recursive enumeration and tuple dict of the sparse basis ----

def _compositions(total_modes, k, start=0):
    # sparse compositions: ((mode, count), ...) with modes ascending
    if k == 0:
        yield ()
        return
    for m in range(start, total_modes):
        for c in range(1, k + 1):
            for rest in _compositions(total_modes, k - c, m + 1):
                yield ((m, c),) + rest


def _oracle(n_modes, n_max):
    states = [s for k in range(n_max + 1)
              for s in sorted(_compositions(2 * n_modes, k))]
    index = {s: i for i, s in enumerate(states)}
    table = [(i, g, c, index[st[:p] + ((g, c - 1),) * (c > 1) + st[p + 1:]])
             for i, st in enumerate(states) for p, (g, c) in enumerate(st)]
    swap = [index[tuple(sorted(((g + n_modes) % (2 * n_modes), c)
                               for g, c in st))] for st in states]
    return states, index, np.array(table, dtype=np.intp).reshape(-1, 4), swap


def _oracle_dgamma(states, index, x, off):
    rows, cols, vals = [], [], []
    for i, st in enumerate(states):
        for g, c in st:
            m = g - off
            if not 0 <= m < len(x):
                continue
            for j in np.nonzero(x[:, m])[0]:
                occ = dict(st)
                if j == m:
                    amp, tgt = float(c), st
                else:
                    nj = occ.get(j + off, 0)
                    amp = math.sqrt(c) * math.sqrt(nj + 1)
                    occ[j + off] = nj + 1
                    occ[g] -= 1
                    tgt = tuple(sorted((k, v) for k, v in occ.items() if v))
                rows.append(index[tgt])
                cols.append(i)
                vals.append(x[j, m] * amp)
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(len(states),) * 2, dtype=complex)


@pytest.mark.parametrize("n_max", range(5))
@pytest.mark.parametrize("n_modes", range(1, 7))
def test_array_basis_matches_tuple_oracle(rng, n_modes, n_max):
    states, index, table, swap = _oracle(n_modes, n_max)
    basis = FockBasis(TruncationSpec(n_modes, n_max))
    assert basis.states == states
    assert basis.index == index
    np.testing.assert_array_equal(
        np.column_stack([basis._state, basis._mode, basis._count,
                         basis._lower]).reshape(-1, 4), table)
    np.testing.assert_array_equal(basis.swap_permutation(), swap)
    x = rng.normal(size=(n_modes,) * 2) + 1j * rng.normal(size=(n_modes,) * 2)
    x[rng.random(x.shape) < 0.3] = 0.0
    for side, off in (("left", 0), ("right", n_modes)):
        got = basis.dgamma(x, side)
        want = _oracle_dgamma(states, index, x, off)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_key_lookup_exact_at_the_largest_default_grid(n_max):
    cap = TruncationSpec(1, n_max).dim_cap
    n_modes = 1
    while TruncationSpec(n_modes + 1, n_max).field_dimension() <= cap:
        n_modes += 1
    basis = FockBasis(TruncationSpec(n_modes, n_max))
    occ = basis.occupied
    n = 2 * n_modes
    # distinct, ascending rows of the right multiplicities, found in place
    assert len(np.unique(occ, axis=0)) == basis.dim
    assert np.all(np.diff(occ, axis=1) >= 0) and occ.max() == n
    np.testing.assert_array_equal(
        np.bincount(basis.totals),
        [math.comb(n + k - 1, k) for k in range(n_max + 1)])
    np.testing.assert_array_equal(basis.lookup(occ), np.arange(basis.dim))
    perm = basis.swap_permutation()
    np.testing.assert_array_equal(perm[perm], np.arange(basis.dim))


def test_basis_graded_and_vacuum():
    basis = FockBasis(TruncationSpec(2, 3))
    assert basis.dim == brute_dimension(4, 3)
    totals = [basis.occupation_vector(i).sum() for i in range(basis.dim)]
    assert totals == sorted(totals)
    vac = basis.vacuum()
    assert vac[0] == 1.0 and np.count_nonzero(vac) == 1
    assert basis.occupation_vector(0).sum() == 0


def test_ladder_matrix_elements():
    basis = FockBasis(TruncationSpec(1, 3))
    a = basis.ladder(0, side="left", create=False)
    adag = basis.ladder(0, side="left", create=True)
    # adjoint pair, annihilator kills the vacuum
    assert (a - adag.conj().T).nnz == 0
    vac = basis.vacuum()
    assert np.all(a @ vac == 0)
    one = adag @ vac
    two = adag @ one
    assert np.vdot(one, one) == pytest.approx(1.0)
    # sqrt(n!) amplitudes
    assert np.vdot(two, two) == pytest.approx(2.0, rel=1e-14)


def test_smeared_creation_norm(rng):
    basis = FockBasis(TruncationSpec(3, 2))
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    astar = basis.smeared(f, side="left", create=True)
    out = astar @ basis.vacuum()
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(f), rel=1e-14)
    # linear in the coefficients
    astar2 = basis.smeared(2.0 * f, side="left", create=True)
    np.testing.assert_allclose((astar2 - 2.0 * astar).toarray(), 0.0, atol=1e-15)


def _dense_smeared(basis, coeffs, side, create):
    # entry by entry from the occupation vectors, no use of the entry table
    m = basis.n_modes
    off = 0 if side == "left" else m
    occs = [basis.occupation_vector(i) for i in range(basis.dim)]
    where = {tuple(o): i for i, o in enumerate(occs)}
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, occ in enumerate(occs):
        for j, f in enumerate(coeffs):
            n = occ[off + j]
            tgt = occ.copy()
            if create and occ.sum() < basis.trunc.n_max:
                tgt[off + j] += 1
                out[where[tuple(tgt)], i] += f * math.sqrt(n + 1)
            elif not create and n > 0:
                tgt[off + j] -= 1
                out[where[tuple(tgt)], i] += np.conj(f) * math.sqrt(n)
    return out


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("create", [False, True])
def test_smeared_matches_dense_reference(rng, side, create):
    basis = FockBasis(TruncationSpec(3, 3))
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    f[1] = 0.0
    op = basis.smeared(f, side=side, create=create)
    np.testing.assert_array_equal(op.toarray(),
                                  _dense_smeared(basis, f, side, create))
    # no stored entry for the zero coefficient
    assert op.nnz == np.count_nonzero(op.toarray())


def test_ccr_below_shell():
    """[a_i, a*_j] = delta_ij on states that stay below the truncation."""
    trunc = TruncationSpec(2, 3)
    basis = FockBasis(trunc)
    interior = np.array([basis.occupation_vector(i).sum() < trunc.n_max
                         for i in range(basis.dim)])
    for i in range(2):
        for j in range(2):
            a_i = basis.ladder(i, "left", create=False)
            adag_j = basis.ladder(j, "left", create=True)
            comm = (a_i @ adag_j - adag_j @ a_i).toarray()
            want = np.eye(basis.dim) if i == j else np.zeros((basis.dim,) * 2)
            block = comm[np.ix_(interior, interior)]
            ref = want[np.ix_(interior, interior)]
            np.testing.assert_allclose(block, ref, atol=1e-13)


def test_left_right_commute_below_shell():
    # the shared total cap breaks cross commutators on the top shell only
    trunc = TruncationSpec(2, 2)
    basis = FockBasis(trunc)
    al = basis.ladder(0, "left", create=False)
    ar_dag = basis.ladder(0, "right", create=True)
    comm = (al @ ar_dag - ar_dag @ al).toarray()
    interior = np.array([basis.occupation_vector(i).sum() < trunc.n_max
                         for i in range(basis.dim)])
    assert np.all(comm[np.ix_(interior, interior)] == 0.0)
    assert np.any(comm != 0.0)


def test_dgamma_diag_matches_dense_one_body(rng):
    basis = FockBasis(TruncationSpec(2, 2))
    vals = np.array([0.7, 1.9])
    diag = basis.dgamma_diag(vals, side="left")
    dense = basis.dgamma(np.diag(vals), side="left")
    np.testing.assert_allclose(dense.toarray(), np.diag(diag), atol=1e-14)
    # Hermitian one-body gives a Hermitian second quantization
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = h + h.conj().T
    big = basis.dgamma(h, side="right")
    assert abs((big - big.conj().T)).max() == 0.0


def test_totals_and_dgamma_diag_per_copy():
    basis = FockBasis(TruncationSpec(2, 2))
    omegas = np.array([0.5, 1.25])
    e_left = basis.dgamma_diag(omegas, side="left")
    e_right = basis.dgamma_diag(omegas, side="right")
    for i in range(basis.dim):
        occ = basis.occupation_vector(i)
        assert basis.totals[i] == occ.sum()
        assert e_left[i] == pytest.approx(occ[:2] @ omegas)
        assert e_right[i] == pytest.approx(occ[2:] @ omegas)


@pytest.mark.parametrize("side", ["left", "right"])
def test_dgamma_diag_and_totals_match_occupations(rng, side):
    basis = FockBasis(TruncationSpec(3, 3))
    vals = rng.normal(size=3)
    occs = np.array([basis.occupation_vector(i) for i in range(basis.dim)])
    copy = occs[:, :3] if side == "left" else occs[:, 3:]
    np.testing.assert_allclose(basis.dgamma_diag(vals, side), copy @ vals,
                               rtol=1e-14, atol=1e-14)
    np.testing.assert_array_equal(basis.dgamma_diag(np.ones(3), side),
                                  copy.sum(axis=1))
    np.testing.assert_array_equal(basis.totals, occs.sum(axis=1))


def test_sparse_operator_hermiticity_guard():
    good = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    SparseOperator(matrix=good, label="ok")
    bad = sparse.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        SparseOperator(matrix=bad, label="broken")


def test_sparse_operator_norm_bound(rng):
    m = rng.normal(size=(6, 6))
    m = sparse.csr_matrix(m + m.T)
    op = SparseOperator(matrix=m, label="rand")
    assert op.norm_bound() >= np.linalg.norm(m.toarray(), 2) - 1e-12


# ---------------------------------------------------------------------------
# exponential action


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


# sparse inputs at n = 60 and dense ndarray inputs at n = 24, each against
# scipy's expm; at n = 200 the unsplit scale is too long for one segment,
# which then runs to all M_MAX Lanczos vectors before the halving
@pytest.mark.parametrize("n, as_input, scale, bound", [
    *[pytest.param(60, sparse.csr_matrix, s, 1e-8, id=str(s))
      for s in (-1.0, -0.4j, -0.3 - 0.9j)],
    *[pytest.param(24, np.asarray, s, 1e-10, id=f"dense-{s}")
      for s in (-0.8, -2.0 + 0.0j, 0.0 - 1.3j, -0.5 - 0.7j)],
    pytest.param(200, sparse.csr_matrix, -3j, 1e-10, id="exhausted-krylov"),
])
def test_expm_action_lanczos_path(rng, monkeypatch, n, as_input, scale, bound):
    depths = []

    def counted(alphas, betas):
        depths.append(len(alphas))
        return eigh_tridiagonal(alphas, betas)

    monkeypatch.setattr(krylov, "eigh_tridiagonal", counted)
    h = _random_hermitian(rng, n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = expm_action(as_input(h), v, scale, tol=1e-11)
    ref = expm(scale * h) @ v
    np.testing.assert_allclose(out, ref, atol=bound * np.linalg.norm(ref))
    # a Krylov space can only be exhausted in more than M_MAX dimensions
    assert (max(depths) == krylov.M_MAX) == (n > krylov.M_MAX)


def test_expm_action_zero_vector():
    h = np.eye(4)
    out = expm_action(h, np.zeros(4, dtype=complex), -1.0)
    assert np.all(out == 0)
