"""Truncated doubled bosonic Fock space over a finite mode grid.

The doubled one-particle space has 2 M modes: indices 0..M-1 are the left
(particle) copy, M..2M-1 the right (hole) copy.  The basis consists of all
occupation configurations whose total quantum number over both copies is at
most n_max, enumerated in graded order: shells of fixed total first, and
inside a shell lexicographically by the sparse signature ((mode, count), ...).
Configurations are stored sparsely.  One entry table, a row per (state,
occupied mode) holding the state, the mode, its count and the state with one
quantum fewer in that mode, gives every annihilator and occupation diagonal
as one vectorised build, so very wide single-quantum grids stay cheap.

Truncation is hard: a creator is the adjoint of an annihilator, so creation
out of the top shell maps to zero.  Below the
top shell the canonical commutation relations hold exactly; this is checked
in the tests entry by entry.
"""

from dataclasses import dataclass, field
from math import comb, sqrt

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


def _compositions(total_modes, k, start=0):
    # sparse compositions: ((mode, count), ...) with modes ascending, counts >= 1
    if k == 0:
        yield ()
        return
    for m in range(start, total_modes):
        for c in range(1, k + 1):
            for rest in _compositions(total_modes, k - c, m + 1):
                yield ((m, c),) + rest


class FockBasis:
    """Enumerated truncated basis with index maps in both directions, and
    the entry table (rows ordered by state, then by mode) built once."""

    def __init__(self, trunc):
        self.trunc = trunc
        dim = trunc.field_dimension()
        if dim > trunc.dim_cap:
            raise DimensionCapError(
                f"field dimension {dim} exceeds cap {trunc.dim_cap}")
        states = []
        for k in range(trunc.n_max + 1):
            shell = sorted(_compositions(trunc.total_modes, k))
            states.extend(shell)
        self.states = states
        self.index = index = {s: i for i, s in enumerate(states)}
        assert len(states) == dim
        # (state, mode, count, state with one quantum fewer in that mode)
        table = np.fromiter(
            ((i, g, c, index[st[:p] + ((g, c - 1),) * (c > 1) + st[p + 1:]])
             for i, st in enumerate(states) for p, (g, c) in enumerate(st)),
            dtype=(np.intp, 4))
        self._state, self._mode, self._count, self._lower = table.T
        self.totals = np.bincount(self._state, weights=self._count,
                                  minlength=dim).astype(np.int64)

    @property
    def dim(self):
        return len(self.states)

    @property
    def n_modes(self):
        return self.trunc.n_modes

    def occupation_vector(self, i):
        """Dense occupation tuple of length 2 n_modes for basis state i."""
        v = np.zeros(self.trunc.total_modes, dtype=np.int64)
        for m, c in self.states[i]:
            v[m] = c
        return v

    def swap_permutation(self):
        """perm[i]: the index of state i with its left and right occupations
        exchanged.  Built on call, not with the basis: only the sector solve
        above the dense cutoff needs it."""
        m = self.trunc.n_modes
        return np.fromiter(
            (self.index[tuple(sorted(((g + m) % (2 * m), c) for g, c in st))]
             for st in self.states), dtype=np.intp, count=self.dim)

    def vacuum(self):
        v = np.zeros(self.dim, dtype=complex)
        v[self.index[()]] = 1.0
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

        Quanta conserving, so the hard cap never interferes and commutators
        of two such operators equal the second quantization of the one-body
        commutator exactly.
        """
        x = np.asarray(one_body, dtype=complex)
        m_count = self.trunc.n_modes
        if x.shape != (m_count, m_count):
            raise ValueError("one-body matrix has wrong shape")
        off = self._mode_offset(side)
        cols_by_mode = [np.nonzero(x[:, m])[0] for m in range(m_count)]
        rows, cols, vals = [], [], []
        for i, st in enumerate(self.states):
            for g, c in st:
                m = g - off
                if not 0 <= m < m_count:
                    continue
                for j in cols_by_mode[m]:
                    occ = dict(st)
                    if j == m:
                        amp = float(c)
                    else:
                        gj = j + off
                        nj = occ.get(gj, 0)
                        amp = sqrt(c) * sqrt(nj + 1)
                        occ[gj] = nj + 1
                        if c == 1:
                            del occ[g]
                        else:
                            occ[g] = c - 1
                    tgt = tuple(sorted(occ.items())) if j != m else st
                    rows.append(self.index[tgt])
                    cols.append(i)
                    vals.append(x[j, m] * amp)
        return sparse.csr_matrix((vals, (rows, cols)),
                                 shape=(self.dim, self.dim), dtype=complex)

    def number_diag(self, side=None):
        """Total quantum number diagonal, per copy or for both copies."""
        if side is None:
            return self.totals.astype(float)
        return self.dgamma_diag(np.ones(self.trunc.n_modes), side)

    def energy_diag(self, omegas, side=None):
        """dGamma(omega) diagonal for one copy, or the sum over both copies."""
        if side is not None:
            return self.dgamma_diag(omegas, side)
        return self.dgamma_diag(omegas, "left") + self.dgamma_diag(omegas, "right")


@dataclass(frozen=True)
class SparseOperator:
    """Sparse operator with an exactness-checked Hermiticity flag."""

    matrix: sparse.csr_matrix
    hermitian: bool = False
    label: str = ""

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError("operator must be square")
        if self.hermitian:
            delta = (m - m.getH()).tocoo()
            if delta.nnz and np.max(np.abs(delta.data)) != 0.0:
                raise ValueError(f"operator {self.label!r} flagged Hermitian "
                                 "but differs from its adjoint")

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def nnz(self):
        return self.matrix.nnz

    def norm_bound(self):
        """Upper bound on the spectral norm (maximum absolute row sum)."""
        m = abs(self.matrix)
        return float(np.max(np.asarray(m.sum(axis=1)).ravel())) if self.nnz else 0.0



@dataclass
class StateVector:
    """Vector in the composite dot (x) field basis with a cached norm."""

    amplitudes: np.ndarray
    label: str = ""
    _norm: float = field(default=None, repr=False)

    @property
    def norm(self):
        if self._norm is None:
            self._norm = float(np.linalg.norm(self.amplitudes))
        return self._norm

    def normalized(self):
        n = self.norm
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(amplitudes=self.amplitudes / n, label=self.label)
