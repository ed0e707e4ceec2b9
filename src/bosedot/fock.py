"""Truncated doubled bosonic Fock space over a finite mode grid.

The doubled one-particle space has 2 M modes: indices 0..M-1 are the left
(particle) copy, M..2M-1 the right (hole) copy.  The basis consists of all
occupation configurations whose total quantum number over both copies is at
most n_max, enumerated in graded order: shells of fixed total first, and
inside a shell lexicographically by the sparse signature ((mode, count), ...).
Everything is integer arrays.  A state is the ascending row of its occupied
modes, with multiplicity; shell k is built from shell k - 1 by appending one
mode and put in signature order by one lexsort.  A state's key is the
combinatorial rank of its row, so one inverse permutation turns any row back
into a state index.  One entry table, a row per (state, occupied mode)
holding the state, the mode, its count and the state with one quantum fewer
in that mode, gives every annihilator, occupation diagonal and second
quantization as one vectorised build, so very wide single-quantum grids
stay cheap.  The tuple view of the states is built only when asked for.

Truncation is hard: a creator is the adjoint of an annihilator, so creation
out of the top shell maps to zero.  Below the top shell the canonical
commutation relations hold exactly; this is checked in the tests entry by
entry.
"""

import functools
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import sparse


class DimensionCapError(RuntimeError):
    """The requested truncated space exceeds the configured dimension cap."""


class SolverConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class TruncationSpec:
    """Mode count per copy, total quantum cap, and a safety dimension cap."""

    n_modes: int
    n_max: int
    dim_cap: int = 200_000

    def __post_init__(self):
        if self.n_modes < 1 or self.n_max < 0:
            raise ValueError("need n_modes >= 1 and n_max >= 0")

    @property
    def total_modes(self):
        return 2 * self.n_modes

    def field_dimension(self):
        """sum_k C(2 n_modes + k - 1, k) for k = 0..n_max."""
        m = self.total_modes
        return sum(comb(m + k - 1, k) for k in range(self.n_max + 1))


def _ranges(start, length):
    """The ranges start[i] + arange(length[i]), concatenated."""
    first = np.cumsum(length) - length
    return np.arange(length.sum()) + np.repeat(start - first, length)


def _enumerate(total_modes, n_max):
    """Occupied modes of every basis state, with multiplicity and ascending,
    padded with total_modes to n_max columns, in basis order.  Shell k is
    shell k - 1 with one mode appended that is not below the row's last,
    ordered by one lexsort."""
    n = total_modes
    out = [np.full((1, n_max), n, dtype=np.intp)]
    shell = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n_max + 1):
        last = shell[:, -1] if k > 1 else np.zeros(1, dtype=np.intp)
        reps = n - last
        shell = np.column_stack([np.repeat(shell, reps, axis=0),
                                 _ranges(last, reps)])
        # with every repeat of a mode read as n, the rows sort
        # lexicographically as their sparse signatures (m1, c1, m2, c2, ...)
        # do: one more copy of a mode sorts after any new mode
        repeat = np.zeros(shell.shape, dtype=bool)
        repeat[:, 1:] = shell[:, 1:] == shell[:, :-1]
        shell = shell[np.lexsort(np.where(repeat, n, shell).T[::-1])]
        out.append(np.pad(shell, ((0, 0), (0, n_max - k)), constant_values=n))
    return np.concatenate(out)


class FockBasis:
    """Enumerated truncated basis as arrays: the occupied modes of every
    state, the key lookup back to states, and the entry table (rows ordered
    by state, then by mode), all built once.  The tuple view (states, index)
    is built on first use only.

    The key of a state is the combinatorial rank of its multiset of modes:
    shell k's multisets s_0 <= ... <= s_{k-1} of n modes map one to one onto
    [0, C(n + k - 1, k)) by sum_j C(s_j + j, j + 1), offset by the sizes of
    the shells below.  So the keys are a permutation of range(dim), never
    overflow, and one inverse permutation finds any state.
    """

    def __init__(self, trunc):
        self.trunc = trunc
        dim = trunc.field_dimension()
        if dim > trunc.dim_cap:
            raise DimensionCapError(
                f"field dimension {dim} exceeds cap {trunc.dim_cap}")
        n, n_max = trunc.total_modes, trunc.n_max
        self.occupied = occ = _enumerate(n, n_max)
        assert len(occ) == dim
        # C(t, j + 1) for t < n + j: the rank terms of column j
        self._binom = [np.arange(n, dtype=np.intp)]
        for _ in range(1, n_max):
            self._binom.append(np.concatenate([[0], np.cumsum(self._binom[-1])]))
        self._shell_start = np.array(
            [0] + [comb(n + k - 1, k) for k in range(n_max)],
            dtype=np.intp).cumsum()
        self._where = np.empty(dim, dtype=np.intp)
        self._where[self._key(occ)] = np.arange(dim)
        # (state, mode, count, state with one quantum fewer in that mode),
        # one row at the last copy of each occupied mode
        last = occ < n
        last[:, :-1] &= occ[:, :-1] != occ[:, 1:]
        self._state, col = np.nonzero(last)
        self._mode = occ[self._state, col]
        self._count = col + 1 - (occ[self._state] < self._mode[:, None]).sum(1)
        # drop column col: shift the columns from col on one to the left
        shift = np.arange(n_max) + (np.arange(n_max) >= col[:, None])
        padded = np.pad(occ, ((0, 0), (0, 1)), constant_values=n)
        self._lower = self.lookup(padded[self._state[:, None], shift])
        self.totals = (occ < n).sum(axis=1)

    def _key(self, occupied):
        n = self.trunc.total_modes
        key = self._shell_start[(occupied < n).sum(axis=1)]
        for j, col in enumerate(occupied.T):
            on = col < n
            key[on] += self._binom[j][col[on] + j]
        return key

    def lookup(self, occupied):
        """Indices of the states with these occupied-mode rows (ascending,
        padded with total_modes, as in `occupied`)."""
        return self._where[self._key(occupied)]

    @functools.cached_property
    def states(self):
        """Sparse signature ((mode, count), ...) of every state."""
        pairs = list(zip(self._mode.tolist(), self._count.tolist()))
        cut = np.searchsorted(self._state, np.arange(self.dim + 1)).tolist()
        return [tuple(pairs[a:b]) for a, b in zip(cut[:-1], cut[1:])]

    @functools.cached_property
    def index(self):
        """State index of every sparse signature."""
        return {s: i for i, s in enumerate(self.states)}

    @property
    def dim(self):
        return len(self.occupied)

    @property
    def n_modes(self):
        return self.trunc.n_modes

    def occupation_vector(self, i):
        """Dense occupation tuple of length 2 n_modes for basis state i."""
        n = self.trunc.total_modes
        row = self.occupied[i]
        return np.bincount(row[row < n], minlength=n).astype(np.int64)

    def swap_permutation(self):
        """perm[i]: the index of state i with its left and right occupations
        exchanged.  Built on call, not with the basis: build_bundle calls it
        once and keeps the swap of the whole doubled space."""
        m, occ = self.trunc.n_modes, self.occupied
        swapped = np.where(occ < 2 * m, (occ + m) % (2 * m), occ)
        return self.lookup(np.sort(swapped, axis=1))

    def vacuum(self):
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def _mode_offset(self, side):
        if side == "left":
            return 0
        if side == "right":
            return self.trunc.n_modes
        raise ValueError("side must be left or right")

    def _per_entry(self, values, side):
        """One value per mode of one copy, read off at every table row; rows
        of the other copy read zero."""
        values = np.asarray(values)
        off = self._mode_offset(side)
        full = np.zeros(self.trunc.total_modes, dtype=values.dtype)
        full[off:off + self.trunc.n_modes] = values
        return full[self._mode]

    # -- operator builders -------------------------------------------------

    def ladder(self, j, side="left", create=True):
        """Single-mode ladder operator; creation annihilates the top shell."""
        if not 0 <= j < self.trunc.n_modes:
            raise ValueError("mode index out of range")
        unit = np.zeros(self.trunc.n_modes)
        unit[j] = 1.0
        return self.smeared(unit, side, create)

    def smeared(self, coeffs, side="left", create=True):
        """Smeared field: sum_j f_j a*_j (create) or sum_j conj(f_j) a_j.

        coeffs are the discrete smearing amplitudes (quadrature weights
        already absorbed).  The annihilator has one entry per table row on
        the given copy with a nonzero coefficient, conj(f_j) sqrt(n) from the
        state to its lowered state; the creator is its adjoint, which maps the
        top shell to zero, so the truncation stays hard.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if len(coeffs) != self.trunc.n_modes:
            raise ValueError("need one coefficient per mode")
        f = self._per_entry(coeffs, side)
        on = np.flatnonzero(f)
        ann = sparse.csr_matrix(
            (np.conj(f[on]) * np.sqrt(self._count[on]),
             (self._lower[on], self._state[on])),
            shape=(self.dim, self.dim), dtype=complex)
        return ann.getH().tocsr() if create else ann

    def dgamma_diag(self, values, side="left"):
        """Diagonal of the second quantization of a multiplication operator."""
        weights = self._per_entry(np.asarray(values, dtype=float), side)
        # astype: bincount of the empty table at n_max = 0 gives integers
        return np.bincount(self._state, weights=weights * self._count,
                           minlength=self.dim).astype(float, copy=False)

    def dgamma(self, one_body, side="left"):
        """Second quantization sum_{jm} X_{jm} a*_j a_m of a one-body matrix.

        One entry per table row on the given copy (mode m, count c) and per
        nonzero X_jm of its column: the quantum moves from m to j, with
        amplitude c on the diagonal and sqrt(c) sqrt(n_j + 1) off it.
        Quanta conserving, so the hard cap never interferes and commutators
        of two such operators equal the second quantization of the one-body
        commutator exactly.
        """
        x = np.asarray(one_body, dtype=complex)
        m_count = self.trunc.n_modes
        if x.shape != (m_count, m_count):
            raise ValueError("one-body matrix has wrong shape")
        off = self._mode_offset(side)
        rows = np.flatnonzero((self._mode >= off)
                              & (self._mode < off + m_count))
        # nonzeros of x column by column: x[nz_j, nz_m], ascending j per m
        nz_m, nz_j = np.nonzero(x.T)
        col_start = np.searchsorted(nz_m, np.arange(m_count + 1))
        m = self._mode[rows] - off
        reps = col_start[m + 1] - col_start[m]
        nz = _ranges(col_start[m], reps)
        rows = np.repeat(rows, reps)
        j, m = nz_j[nz], nz_m[nz]
        state, count, g = self._state[rows], self._count[rows], self._mode[rows]
        moved = self.occupied[state]
        n_j = (moved == j[:, None] + off).sum(axis=1)
        amp = np.where(j == m, count, np.sqrt(count) * np.sqrt(n_j + 1))
        # the quantum leaves the first copy of g for j, then re-sort
        moved[np.arange(len(rows)), (moved < g[:, None]).sum(axis=1)] = j + off
        moved.sort(axis=1)
        return sparse.csr_matrix((x[j, m] * amp, (self.lookup(moved), state)),
                                 shape=(self.dim, self.dim), dtype=complex)


@dataclass(frozen=True)
class SparseOperator:
    """Hermitian sparse operator, checked exactly against its adjoint."""

    matrix: sparse.csr_matrix
    label: str = ""

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError("operator must be square")
        delta = (m - m.getH()).tocoo()
        if delta.nnz and np.max(np.abs(delta.data)) != 0.0:
            raise ValueError(f"operator {self.label!r} differs from its "
                             "adjoint")

    @property
    def nnz(self):
        return self.matrix.nnz

    def norm_bound(self):
        """Upper bound on the spectral norm (maximum absolute row sum)."""
        m = abs(self.matrix)
        return float(np.max(np.asarray(m.sum(axis=1)).ravel())) if self.nnz else 0.0



@dataclass
class StateVector:
    """Vector in the composite dot (x) field basis."""

    amplitudes: np.ndarray
