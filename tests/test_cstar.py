import numpy as np
import pytest

from finetti.cstar import (
    Algebra,
    StateVec,
    blocks_to_dense,
    dense_to_blocks,
    element_to_dense,
    eval_state,
    hermiticity_defect,
    is_positive_element,
    make_algebra,
    make_state,
    state_distance,
    state_to_dense,
    trace_norm,
)


def _element(alg, mats):
    from finetti.cstar import Element

    return Element(alg, tuple(np.asarray(m, dtype=complex) for m in mats))


def random_state(alg, rng):
    dens = []
    for d in alg.blocks:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dens.append(g @ g.conj().T)
    total = sum(np.trace(m).real for m in dens)
    return make_state(alg, tuple(m / total for m in dens))


def test_algebra_dimensions():
    m2 = Algebra((2,))
    assert m2.dim == 4
    assert m2.rep_dim == 2
    assert not m2.is_commutative

    c3 = Algebra((1, 1, 1))
    assert c3.dim == 3
    assert c3.rep_dim == 3
    assert c3.is_commutative

    mixed = Algebra((2, 1, 3))
    assert mixed.dim == 4 + 1 + 9
    assert mixed.rep_dim == 6
    assert mixed.n_blocks == 3
    assert not mixed.is_commutative


def test_make_algebra_validates():
    assert make_algebra([2, 1]).blocks == (2, 1)
    with pytest.raises(ValueError):
        make_algebra([])
    with pytest.raises(ValueError):
        make_algebra([0])
    with pytest.raises(ValueError):
        make_algebra([2, -1])


def test_unit_is_identity_blocks():
    alg = Algebra((2, 3))
    unit = alg.unit()
    assert np.array_equal(unit.mats[0], np.eye(2))
    assert np.array_equal(unit.mats[1], np.eye(3))


def test_element_shape_checks():
    alg = Algebra((2, 3))
    with pytest.raises(ValueError):
        _element(alg, (np.eye(2),))  # wrong block count
    with pytest.raises(ValueError):
        _element(alg, (np.eye(3), np.eye(2)))  # wrong shapes


def test_eval_state_is_trace_pairing():
    # For M_2 with density rho, the state evaluates a as Tr(rho a).
    alg = Algebra((2,))
    rng = np.random.default_rng(0)
    rho = random_state(alg, rng)
    a = _element(alg, (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),))
    assert eval_state(rho, a) == pytest.approx(np.trace(rho.dens[0] @ a.mats[0]))


def test_maximally_mixed_kills_pauli_z():
    alg = Algebra((2,))
    maxmix = make_state(alg, (np.eye(2) / 2,))
    sz = _element(alg, (np.diag([1.0, -1.0]).astype(complex),))
    assert eval_state(maxmix, sz) == pytest.approx(0.0, abs=1e-15)
    assert eval_state(maxmix, alg.unit()) == pytest.approx(1.0)


def test_eval_state_sums_over_blocks():
    alg = Algebra((1, 1))
    s = make_state(alg, (np.array([[0.25]]), np.array([[0.75]])))
    a = _element(alg, (np.array([[2.0]]), np.array([[4.0]])))
    assert eval_state(s, a) == pytest.approx(0.25 * 2 + 0.75 * 4)


def test_hermiticity_defect():
    alg = Algebra((2,))
    herm = _element(alg, (np.array([[1.0, 2 + 1j], [2 - 1j, 3.0]]),))
    assert hermiticity_defect(herm) == pytest.approx(0.0, abs=1e-15)
    skew = _element(alg, (np.array([[0.0, 1.0], [-1.0, 0.0]]),))
    assert hermiticity_defect(skew) > 0.5


def test_is_positive_element():
    alg = Algebra((2,))
    sx = _element(alg, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
    # Eigenvalues of sigma_x are +-1, so it is hermitian but not positive.
    assert np.allclose(np.linalg.eigvalsh(sx.mats[0]), [-1.0, 1.0])
    assert not is_positive_element(sx)

    proj = _element(alg, (np.array([[1.0, 0.0], [0.0, 0.0]]),))
    assert is_positive_element(proj)

    rng = np.random.default_rng(1)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert is_positive_element(_element(alg, (g @ g.conj().T,)))


def test_positive_respects_blocks():
    alg = Algebra((2, 2))
    good = np.eye(2)
    bad = np.diag([1.0, -0.5])
    assert is_positive_element(_element(alg, (good, good)))
    assert not is_positive_element(_element(alg, (good, bad)))


def test_make_state_rejects_bad_inputs():
    alg = Algebra((2,))
    with pytest.raises(ValueError, match="trace"):
        make_state(alg, (np.eye(2),))  # trace 2
    with pytest.raises(ValueError, match="positive"):
        make_state(alg, (np.diag([1.5, -0.5]),))
    with pytest.raises(ValueError, match="Hermitian"):
        make_state(alg, (np.array([[0.5, 1.0], [0.0, 0.5]]),))
    # A bare StateVec holds intermediate data unchecked.
    s = StateVec(alg, (np.diag([1.5, -0.5]),))
    assert s.dens[0][0, 0] == 1.5


def test_states_pair_positively_with_positive_elements():
    # Defining property of a state: nonnegative on positive elements and
    # normalized on the unit.
    rng = np.random.default_rng(5)
    for alg in (Algebra((2,)), Algebra((3,)), Algebra((2, 1)), Algebra((1, 1, 1))):
        for _ in range(10):
            s = random_state(alg, rng)
            mats = []
            for d in alg.blocks:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                mats.append(g @ g.conj().T)
            a = _element(alg, tuple(mats))
            assert is_positive_element(a)
            val = eval_state(s, a)
            assert val.real >= -1e-9
            assert abs(val.imag) <= 1e-9
            assert eval_state(s, alg.unit()) == pytest.approx(1.0, abs=1e-9)


def test_commutative_states_are_probability_vectors():
    alg = Algebra((1, 1, 1))
    s = make_state(alg, tuple(np.array([[p]]) for p in (0.2, 0.3, 0.5)))
    assert eval_state(s, alg.unit()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        make_state(alg, tuple(np.array([[p]]) for p in (0.6, 0.6, -0.2)))


def test_state_arrays_are_write_locked():
    alg = Algebra((2,))
    s = make_state(alg, (np.eye(2) / 2,))
    with pytest.raises(ValueError):
        s.dens[0][0, 0] = 9.0


def test_dense_round_trips():
    alg = Algebra((2, 3))
    rng = np.random.default_rng(2)
    mats = tuple(
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for d in alg.blocks
    )
    dense = blocks_to_dense(alg, mats)
    assert dense.shape == (5, 5)
    assert np.array_equal(dense[:2, :2], mats[0])
    assert np.array_equal(dense[2:, 2:], mats[1])
    assert np.all(dense[:2, 2:] == 0)
    back = dense_to_blocks(alg, dense)
    for m, b in zip(mats, back):
        assert np.array_equal(m, b)


def test_element_and_state_to_dense():
    alg = Algebra((2, 1))
    s = make_state(alg, (np.eye(2) / 4, np.array([[0.5]])))
    dense = state_to_dense(s)
    assert np.trace(dense) == pytest.approx(1.0)
    e = element_to_dense(alg.unit())
    assert np.array_equal(e, np.eye(3))


def test_trace_norm_against_svd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert trace_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False).sum())
    # Hermitian case: sum of absolute eigenvalues.
    h = np.diag([3.0, -1.0, 0.5])
    assert trace_norm(h) == pytest.approx(4.5)


def test_state_distance_is_a_metric_sample():
    alg = Algebra((2,))
    rng = np.random.default_rng(4)
    s1, s2, s3 = (random_state(alg, rng) for _ in range(3))
    d12 = state_distance(s1, s2)
    assert d12 >= 0
    assert state_distance(s1, s1) == pytest.approx(0.0, abs=1e-14)
    assert d12 == pytest.approx(state_distance(s2, s1))
    assert d12 <= state_distance(s1, s3) + state_distance(s3, s2) + 1e-12


def test_state_distance_orthogonal_pure_states():
    alg = Algebra((2,))
    k0 = make_state(alg, (np.diag([1.0, 0.0]),))
    k1 = make_state(alg, (np.diag([0.0, 1.0]),))
    assert state_distance(k0, k1) == pytest.approx(2.0)
