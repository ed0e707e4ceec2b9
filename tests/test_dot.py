import math

import numpy as np
import pytest

from bosedot.dot import (DotSpec, CondensatePoint, lower_raise,
                         doubled_free_part, gibbs_vector, condensate_block,
                         condensate_left_term)


def test_default_energies_are_unit_ladder():
    spec = DotSpec(d=4)
    assert spec.energies == (0.0, 1.0, 2.0, 3.0)
    np.testing.assert_array_equal(spec.energy_array, [0.0, 1.0, 2.0, 3.0])


def test_energy_validation():
    with pytest.raises(ValueError):
        DotSpec(d=0)
    with pytest.raises(ValueError):
        DotSpec(d=3, energies=(0.0, 1.0))
    with pytest.raises(ValueError):
        DotSpec(d=3, energies=(0.0, 1.0, 1.0))


def test_bohr_frequencies_and_gaps():
    spec = DotSpec(d=4)
    assert spec.bohr_frequencies() == (1.0, 2.0, 3.0)
    skew = DotSpec(d=3, energies=(0.0, 1.0, 2.5))
    assert skew.bohr_frequencies() == (1.0, 1.5, 2.5)


def test_ladder_pair_structure():
    spec = DotSpec(d=3)
    gm, gp = lower_raise(spec)
    np.testing.assert_array_equal(gp.T, gm)
    e1 = np.zeros(3); e1[1] = 1.0
    np.testing.assert_array_equal(gp @ np.eye(3)[:, 0], e1)
    # G- G+ counts every level that can still be raised
    np.testing.assert_array_equal(gm @ gp, np.diag([1.0, 1.0, 0.0]))
    # intertwining with the unit-spaced Hamiltonian
    h = np.diag(spec.energy_array)
    np.testing.assert_allclose(h @ gp - gp @ h, gp)


def test_doubled_free_part_index_order():
    spec = DotSpec(d=3)
    l1 = doubled_free_part(spec)
    assert l1.shape == (9,)
    for i in range(3):
        for j in range(3):
            assert l1[i * 3 + j] == spec.energies[i] - spec.energies[j]


def test_gibbs_vector_values():
    spec = DotSpec(d=2)
    v = gibbs_vector(spec, 1.0)
    z = 1.0 + math.exp(-1.0)
    assert v[0] == pytest.approx(1.0 / math.sqrt(z), abs=1e-12)
    assert v[3] == pytest.approx(math.exp(-0.5) / math.sqrt(z), abs=1e-12)
    assert v[1] == v[2] == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_gibbs_vector_limits():
    spec = DotSpec(d=3)
    flat = gibbs_vector(spec, 0.0)
    assert flat[0] == pytest.approx(flat[4]) == pytest.approx(flat[8])
    cold = gibbs_vector(spec, 5000.0)
    assert cold[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gibbs_vector(spec, -1.0)


def test_condensate_block_hermitian_and_scaling():
    spec = DotSpec(d=3)
    xi = CondensatePoint(r=0.5, theta=0.3)
    k1 = condensate_block(spec, xi, 0.1, g0=0.7 - 0.2j)
    np.testing.assert_allclose(k1, k1.conj().T, atol=1e-15)
    # amplitude scales as sqrt of the excess density
    k4 = condensate_block(spec, CondensatePoint(r=1.7, theta=0.3), 0.1,
                          g0=0.7 - 0.2j)
    np.testing.assert_allclose(k4, 2.0 * k1, atol=1e-14)
    # at critical density the block vanishes
    k0 = condensate_block(spec, CondensatePoint(r=0.1, theta=0.3), 0.1, 0.7)
    assert np.all(k0 == 0)
    with pytest.raises(ValueError):
        condensate_block(spec, CondensatePoint(r=0.05), 0.1, 0.7)


def test_condensate_term_doubled_structure():
    # the doubled term is the left half minus its swap image P conj(.) P,
    # with P the exchange of the dot pair (i, j) and (j, i)
    spec = DotSpec(d=2)
    xi = CondensatePoint(r=0.4, theta=1.1)
    g0 = 0.3 + 0.5j
    left = condensate_left_term(spec, xi, 0.1, g0)
    k1 = condensate_block(spec, xi, 0.1, g0)
    np.testing.assert_array_equal(left, np.kron(k1, np.eye(2)))
    pairs = np.arange(4).reshape(2, 2).T.ravel()
    k = left - left.conj()[pairs][:, pairs]
    np.testing.assert_allclose(k, k.conj().T, atol=1e-15)
    ref = np.kron(k1, np.eye(2)) - np.kron(np.eye(2), np.conj(k1))
    np.testing.assert_array_equal(k, ref)


def test_condensate_point_from_excess():
    xi = CondensatePoint.from_excess(0.25, 0.5, theta=2.0)
    assert xi.r == pytest.approx(0.75)
    # a config's integer phase is held, and written, as a float
    assert type(CondensatePoint(r=0.5, theta=1).theta) is float
    with pytest.raises(ValueError):
        CondensatePoint.from_excess(-0.1, 0.5)
    with pytest.raises(ValueError):
        CondensatePoint(r=-1.0)
