import functools
import itertools
import math

import numpy as np
import pytest

from finetti.classical import (
    ClassicalExchSeq,
    FinDist,
    check_exchangeable_measures,
    tuple_space,
)
from finetti.cstar import Algebra, Element, StateVec, eval_state, make_state
from finetti.exchange import (
    _distances,
    _pack,
    _permute_axes,
    _slot_count,
    _twirl,
    check_exchangeable,
    eta_sigma,
    eta_tau,
    iid_extend,
    iota_embed,
    level_of,
    make_exch_seq,
    power_algebra,
    pullback_state,
    restrict_state,
)
from finetti.fixtures import (
    QUBIT,
    circuit1_sequence,
    circuit2_sequence,
    coin_sequence,
    equator_sequence,
    qubit_state,
    singlet_sequence,
    unknown_qubit_sequence,
)

from oracles import (
    exhaustive_symmetry_gap,
    injections,
    partial_trace_last_loops,
    pullback_by_contraction,
)

C3 = Algebra((1, 1, 1))


def random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_level(base, n, rng):
    alg = power_algebra(base, n)
    if base.is_commutative:
        k = base.n_blocks
        p = rng.dirichlet(np.ones(k**n))
        return make_state(alg, tuple(np.array([[x]]) for x in p))
    return make_state(alg, (random_density(base.blocks[0] ** n, rng),))


def test_power_algebra_shapes():
    assert power_algebra(QUBIT, 3).blocks == (8,)
    assert power_algebra(C3, 2).blocks == (1,) * 9
    assert power_algebra(QUBIT, 0).blocks == (1,)
    assert level_of(QUBIT, power_algebra(QUBIT, 4)) == 4
    assert level_of(C3, power_algebra(C3, 3)) == 3
    with pytest.raises(ValueError):
        level_of(QUBIT, Algebra((3,)))


@pytest.mark.parametrize(
    "base, deepest",
    [
        (Algebra((2,)), 12),
        (Algebra((3,)), 8),
        (Algebra((6,)), 6),
        (Algebra((1,) * 2), 12),
        (Algebra((1,) * 3), 8),
        (Algebra((1,) * 6), 6),
    ],
    ids=["qubit", "qutrit", "d6", "coin", "3-point", "6-point"],
)
def test_level_of_is_exact_and_rejects_non_powers(base, deepest):
    # Beyond the deepest levels of the fixtures and the benchmark documents
    # (qubit 7, qutrit 4, 6-point 6, coin 12).
    quantum = base.n_blocks == 1
    d = base.blocks[0] if quantum else base.n_blocks
    for n in range(1, deepest + 1):
        assert level_of(base, power_algebra(base, n)) == n
        for size in (d**n - 1, d**n + 1):
            if size > 1:
                with pytest.raises(ValueError, match="not a tensor power"):
                    level_of(base, Algebra((size,) if quantum else (1,) * size))


def test_base_must_be_nontrivial():
    with pytest.raises(ValueError):
        power_algebra(Algebra((1,)), 2)
    with pytest.raises(ValueError):
        power_algebra(Algebra((2, 2)), 2)


def test_iota_embed_is_kron_with_identity():
    rng = np.random.default_rng(0)
    a = Element(QUBIT, (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),))
    emb = iota_embed(a, QUBIT, 3)
    expected = np.kron(a.mats[0], np.eye(4))
    assert np.allclose(emb.mats[0], expected)
    # Embedding at the same level returns the element unchanged.
    same = iota_embed(a, QUBIT, 1)
    assert same is a


def test_restrict_bell_state_gives_maximally_mixed():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell = make_state(power_algebra(QUBIT, 2), (np.outer(v, v.conj()),))
    red = restrict_state(bell, QUBIT, 1)
    assert np.allclose(red.dens[0], np.eye(2) / 2, atol=1e-14)


def test_restrict_matches_explicit_partial_trace():
    rng = np.random.default_rng(1)
    for m, n in [(2, 1), (3, 1), (3, 2)]:
        s = random_level(QUBIT, m, rng)
        red = restrict_state(s, QUBIT, n)
        ref = partial_trace_last_loops(s.dens[0], 2, m, n)
        assert np.allclose(red.dens[0], ref, atol=1e-13)


def test_restrict_classical_marginal():
    rng = np.random.default_rng(2)
    s = random_level(C3, 2, rng)
    red = restrict_state(s, C3, 1)
    p = np.array([m[0, 0].real for m in s.dens]).reshape(3, 3)
    assert np.allclose([m[0, 0].real for m in red.dens], p.sum(axis=1), atol=1e-14)


def test_restrict_iota_duality():
    # eval(restrict(s), a) == eval(s, iota(a)) is the defining adjunction.
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_level(QUBIT, 3, rng)
        a = Element(QUBIT, (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),))
        lhs = eval_state(restrict_state(s, QUBIT, 1), a)
        rhs = eval_state(s, iota_embed(a, QUBIT, 3))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_eta_sigma_swaps_product_factors():
    k0 = np.diag([1.0, 0.0]).astype(complex)
    k1 = np.diag([0.0, 1.0]).astype(complex)
    s01 = make_state(power_algebra(QUBIT, 2), (np.kron(k0, k1),))
    swapped = eta_sigma(s01, QUBIT, (1, 0))
    assert np.array_equal(swapped.dens[0], np.kron(k1, k0))


def test_eta_sigma_identity_returns_equal_state():
    rng = np.random.default_rng(4)
    s = random_level(QUBIT, 3, rng)
    out = eta_sigma(s, QUBIT, (0, 1, 2))
    assert np.array_equal(out.dens[0], s.dens[0])


def test_eta_sigma_group_law():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        s = random_level(QUBIT, n, rng)
        perms = list(itertools.permutations(range(n)))
        for _ in range(5):
            sigma = perms[rng.integers(len(perms))]
            pi = perms[rng.integers(len(perms))]
            composed = tuple(sigma[pi[i]] for i in range(n))
            lhs = eta_sigma(eta_sigma(s, QUBIT, pi), QUBIT, sigma)
            rhs = eta_sigma(s, QUBIT, composed)
            assert np.allclose(lhs.dens[0], rhs.dens[0], atol=1e-13), (n, sigma, pi)


def test_eta_sigma_on_product_states_permutes_factors():
    rng = np.random.default_rng(6)
    rhos = [random_density(2, rng) for _ in range(3)]
    prod = make_state(power_algebra(QUBIT, 3), (np.kron(np.kron(rhos[0], rhos[1]), rhos[2]),))
    sigma = (2, 0, 1)  # slot i now carries factor sigma^{-1}(i)... check below
    out = eta_sigma(prod, QUBIT, sigma)
    # Convention: slot sigma[i] of the output carries input factor i.
    placed = [None] * 3
    for i, t in enumerate(sigma):
        placed[t] = rhos[i]
    expected = np.kron(np.kron(placed[0], placed[1]), placed[2])
    assert np.allclose(out.dens[0], expected, atol=1e-13)


def test_eta_sigma_classical_matches_tuple_relabeling():
    rng = np.random.default_rng(7)
    s = random_level(C3, 3, rng)
    sigma = (1, 2, 0)
    out = eta_sigma(s, C3, sigma)
    p = np.array([m[0, 0].real for m in s.dens]).reshape(3, 3, 3)
    q = np.array([m[0, 0].real for m in out.dens]).reshape(3, 3, 3)
    for idx in itertools.product(range(3), repeat=3):
        moved = [0] * 3
        for i, t in enumerate(sigma):
            moved[t] = idx[i]
        assert q[tuple(moved)] == pytest.approx(p[idx], abs=1e-14)


def test_eta_tau_reduces_to_iota_on_inclusions():
    rng = np.random.default_rng(8)
    a = Element(
        power_algebra(QUBIT, 2),
        (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),),
    )
    via_tau = eta_tau(a, QUBIT, (0, 1), 4)
    via_iota = iota_embed(a, QUBIT, 4)
    assert np.array_equal(via_tau.mats[0], via_iota.mats[0])


def test_eta_tau_reduces_to_eta_sigma_on_bijections():
    rng = np.random.default_rng(9)
    a = Element(
        power_algebra(QUBIT, 3),
        (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),),
    )
    sigma = (2, 0, 1)
    elem_route = eta_tau(a, QUBIT, sigma, 3)
    state_route = eta_sigma(
        StateVec(power_algebra(QUBIT, 3), (a.mats[0],)), QUBIT, sigma
    )
    assert np.array_equal(elem_route.mats[0], state_route.dens[0])


def test_eta_tau_composition_law():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 5))
        k = int(rng.integers(m, 6))
        tau = tuple(rng.permutation(m)[:n])
        ups = tuple(rng.permutation(k)[:m])
        a = Element(
            power_algebra(QUBIT, n),
            (
                rng.standard_normal((2**n, 2**n))
                + 1j * rng.standard_normal((2**n, 2**n)),
            ),
        )
        step = eta_tau(eta_tau(a, QUBIT, tau, m), QUBIT, ups, k)
        joint = tuple(ups[t] for t in tau)
        direct = eta_tau(a, QUBIT, joint, k)
        assert np.allclose(step.mats[0], direct.mats[0], atol=1e-12)


def test_eta_tau_rejects_bad_injections():
    a = Element(QUBIT, (np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        eta_tau(a, QUBIT, (0, 0), 2)  # not injective
    with pytest.raises(ValueError):
        eta_tau(a, QUBIT, (3,), 2)  # out of range


def test_pullback_state_is_dual_to_eta_tau():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m = 2, 4
        tau = tuple(rng.permutation(m)[:n])
        s = random_level(QUBIT, m, rng)
        a = Element(
            power_algebra(QUBIT, n),
            (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),),
        )
        lhs = eval_state(pullback_state(s, QUBIT, tau, n), a)
        rhs = eval_state(s, eta_tau(a, QUBIT, tau, m))
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_pullback_of_iid_is_iid():
    rng = np.random.default_rng(12)
    rho = random_density(2, rng)
    s3 = make_state(power_algebra(QUBIT, 3), (np.kron(np.kron(rho, rho), rho),))
    out = pullback_state(s3, QUBIT, (2, 0), 2)
    assert np.allclose(out.dens[0], np.kron(rho, rho), atol=1e-13)


def test_injections_enumeration():
    # The cone oracle's enumeration of injections n -> m.
    assert list(injections(1, 2)) == [(0,), (1,)]
    assert len(list(injections(2, 4))) == 12  # 4!/2!
    assert list(injections(2, 2)) == [(0, 1), (1, 0)]


def test_injection_probes_cover_strict_and_full():
    # Strict injections and full bijections alike, as the cone oracle probes them.
    strict = list(injections(2, 3))
    assert len(strict) == 6
    assert all(len(t) == 2 and max(t) < 3 for t in strict)
    assert set(injections(3, 3)) == set(itertools.permutations(range(3)))


def test_oracle_pullback_matches_pullback_state():
    rng = np.random.default_rng(18)
    for base in (QUBIT, C3):
        d = base.blocks[0] if base.n_blocks == 1 else base.n_blocks
        for m in (1, 2, 3):
            s = random_level(base, m, rng)
            packed = s.dens[0] if base.n_blocks == 1 else np.array([x[0, 0] for x in s.dens])
            for n in range(1, m + 1):
                for tau in injections(n, m):
                    got = pullback_state(s, base, tau, n)
                    ref = pullback_by_contraction(packed, d, tau, m)
                    if base.n_blocks == 1:
                        assert np.allclose(got.dens[0], ref, atol=1e-14), (m, tau)
                    else:
                        assert np.allclose([x[0, 0] for x in got.dens], ref, atol=1e-14)


def test_check_exchangeable_takes_one_trace_norm_per_level_and_source(monkeypatch):
    # One stacked distance call per level n: its rows are the twirl and the
    # restriction of every level m > n.  No slot permutation.
    import finetti.exchange as exchange

    calls = []
    for name in ("_distances", "_permute_axes"):
        real = getattr(exchange, name)
        monkeypatch.setattr(
            exchange,
            name,
            lambda *a, real=real, name=name: calls.append((name, a[-1].shape)) or real(*a),
        )
    rho = random_density(2, np.random.default_rng(17))
    report = check_exchangeable(iid_extend(make_state(QUBIT, (rho,)), 7))
    assert report.ok
    assert calls == [("_distances", (1 + 7 - n, 2**n, 2**n)) for n in range(1, 8)]


def packed_state(base, n, rng):
    return _pack(base, random_level(base, n, rng))


def non_hermitian_level(base, n, rng):
    """A complex matrix with independent real and imaginary parts, no state:
    the twirl is linear, and neither part determines the other."""
    size = base.blocks[0] ** n
    return rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))


@pytest.mark.parametrize(
    "base, draw",
    [
        (QUBIT, packed_state),
        (Algebra((3,)), packed_state),
        (C3, packed_state),
        (Algebra((1,) * 6), packed_state),
        (QUBIT, non_hermitian_level),
    ],
    ids=["qubit", "qutrit", "classical", "6-point", "qubit-non-hermitian"],
)
def test_twirl_is_the_idempotent_average_over_permutations(base, draw):
    rng = np.random.default_rng(19)
    d = _slot_count(base)
    for n in range(1, 6):
        rho = draw(base, n, rng)
        twirled = _twirl(rho, d, n)
        assert np.allclose(_twirl(twirled, d, n), twirled, atol=1e-14)
        for i in range(n - 1):
            swap = tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
            assert np.allclose(_permute_axes(d, twirled, swap), twirled, atol=1e-14)
        if n <= 4:
            perms = itertools.permutations(range(n))
            mean = sum(_permute_axes(d, rho, s) for s in perms) / math.factorial(n)
            assert np.allclose(twirled, mean, atol=1e-14)


def test_adjacent_transpositions_generate_full_symmetry():
    # Invariance under the adjacent swaps alone already forces invariance
    # under every permutation; a generic state fails some adjacent swap.
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        alg = power_algebra(QUBIT, n)
        raw = random_level(QUBIT, n, rng)
        gens = [
            tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n)) for i in range(n - 1)
        ]
        sym = np.zeros_like(raw.dens[0])
        for sigma in itertools.permutations(range(n)):
            sym += eta_sigma(raw, QUBIT, sigma).dens[0]
        sym /= math.factorial(n)
        sym_state = make_state(alg, (sym,))
        for g in gens:  # generator invariance holds ...
            assert np.allclose(eta_sigma(sym_state, QUBIT, g).dens[0], sym, atol=1e-12)
        for sigma in itertools.permutations(range(n)):  # ... hence full invariance
            assert np.allclose(eta_sigma(sym_state, QUBIT, sigma).dens[0], sym, atol=1e-12)
        hit = any(
            not np.allclose(eta_sigma(raw, QUBIT, g).dens[0], raw.dens[0], atol=1e-9)
            for g in gens
        )
        assert hit, f"generic level-{n} state should fail some adjacent swap"


def test_make_exch_seq_and_levels():
    rng = np.random.default_rng(14)
    rho = random_density(2, rng)
    states = [
        make_state(power_algebra(QUBIT, n), (_kron_power(rho, n),)) for n in range(1, 4)
    ]
    seq = make_exch_seq(QUBIT, states)
    assert seq.depth == 3
    assert np.array_equal(seq.level(2).dens[0], states[1].dens[0])
    with pytest.raises(ValueError):
        seq.level(0)
    with pytest.raises(ValueError):
        seq.level(4)
    trunc = seq.truncate(2)
    assert trunc.depth == 2
    assert np.array_equal(trunc.level(1).dens[0], states[0].dens[0])


def _kron_power(rho, n):
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, rho)
    return out


def test_iid_extend_passes_exchangeability():
    rng = np.random.default_rng(15)
    rho = random_density(2, rng)
    sigma = make_state(QUBIT, (rho,))
    seq = iid_extend(sigma, 4)
    report = check_exchangeable(seq)
    assert report.ok
    assert report.max_violation < 1e-12
    assert len(report.levels) == 4


def test_singlet_sequence_is_exchangeable():
    report = check_exchangeable(singlet_sequence())
    assert report.ok


def test_check_exchangeable_flags_asymmetric_level():
    k0 = np.diag([1.0, 0.0]).astype(complex)
    k1 = np.diag([0.0, 1.0]).astype(complex)
    lvl1 = make_state(QUBIT, (np.eye(2) / 2,))
    lvl2 = make_state(power_algebra(QUBIT, 2), (np.kron(k0, k1),))  # ordered pair
    seq = make_exch_seq(QUBIT, (lvl1, lvl2), 1e-9)
    report = check_exchangeable(seq)
    assert not report.ok
    lvl = report.levels[1]
    assert lvl.level == 2
    assert lvl.symmetry > 0.5


def test_check_exchangeable_flags_inconsistent_marginals():
    rng = np.random.default_rng(16)
    rho_a = random_density(2, rng)
    rho_b = random_density(2, rng)
    lvl1 = make_state(QUBIT, (rho_a,))
    lvl2 = make_state(power_algebra(QUBIT, 2), (np.kron(rho_b, rho_b),))
    seq = make_exch_seq(QUBIT, (lvl1, lvl2), 1e-9)
    report = check_exchangeable(seq)
    assert not report.ok
    lvl = report.levels[0]  # the marginal defect is charged to the lower level
    assert lvl.consistency > 1e-3
    assert lvl.worst_source == 2


def test_check_exchangeable_classical_base():
    p = np.array([0.2, 0.3, 0.5])
    states = []
    for n in (1, 2, 3):
        probs = p
        for _ in range(n - 1):
            probs = np.kron(probs, p)
        states.append(
            make_state(power_algebra(C3, n), tuple(np.array([[x]]) for x in probs))
        )
    seq = make_exch_seq(C3, states)
    report = check_exchangeable(seq)
    assert report.ok
    assert report.max_violation < 1e-14


def test_qubit_state_helper():
    s = qubit_state(np.diag([1.0, 0.0]))
    assert np.allclose(s.dens[0], np.diag([1.0, 0.0]))


# --- the twirl bound against the exhaustive oracle ------------------------------


def _perturbed_tower(quantum, k, depth, rng, eps):
    """Levels of a random mixture of iid towers, each level n >= 2 pulled
    toward a product of distinct random factors, which breaks its symmetry:
    matrices on a quantum base, probability vectors on a classical one."""
    draw = (lambda: random_density(k, rng)) if quantum else (lambda: rng.dirichlet(np.ones(k)))
    atoms, weights = [draw() for _ in range(3)], rng.dirichlet(np.ones(3))
    levels = []
    for n in range(1, depth + 1):
        level = sum(w * functools.reduce(np.kron, [a] * n) for w, a in zip(weights, atoms))
        if n >= 2:
            level = (1 - eps) * level + eps * functools.reduce(np.kron, [draw() for _ in range(n)])
        levels.append(level)
    return levels


def _report(k, levels, tol=1e-9):
    if levels[0].ndim == 1:
        space = [f"x{i}" for i in range(k)]
        measures = [FinDist(tuple_space(space, n), p) for n, p in enumerate(levels, start=1)]
        return check_exchangeable_measures(ClassicalExchSeq(space, len(levels), measures, tol))
    base = Algebra((k,))
    states = [make_state(power_algebra(base, n), (m,)) for n, m in enumerate(levels, start=1)]
    return check_exchangeable(make_exch_seq(base, states, tol))


@pytest.mark.parametrize(
    "quantum, k, depth, seed",
    [(True, 2, 5, 30), (True, 3, 4, 31), (False, 3, 5, 32), (True, 2, 6, 33)],
    ids=["qubit", "qutrit", "classical", "qubit-6"],
)
def test_adjacent_gap_and_bound_bracket_the_exhaustive_gap(quantum, k, depth, seed):
    rng = np.random.default_rng(seed)
    for eps in (1e-3, 0.3):
        levels = _perturbed_tower(quantum, k, depth, rng, eps)
        report = _report(k, levels)
        for n, lv in enumerate(report.levels, start=1):
            exhaustive = exhaustive_symmetry_gap(levels[n - 1], k, n)
            assert lv.symmetry <= exhaustive + 1e-12
            assert exhaustive <= lv.symmetry_bound + 1e-12
            assert lv.symmetry_bound == min(2.0, 2 * lv.symmetry)
            if n == 2:
                assert abs(lv.symmetry_bound - exhaustive) <= 1e-12
        assert report.max_violation == max(
            max(lv.symmetry_bound, lv.consistency) for lv in report.levels
        )
        assert not report.ok


def _fixture_sequences():
    return {
        "circuit1": circuit1_sequence(3),
        "circuit2": circuit2_sequence(3),
        "equator": equator_sequence(4),
        "unknown-qubit": unknown_qubit_sequence(4),
        "singlet": singlet_sequence(),
        "coin": coin_sequence(5),
    }


def test_verdict_is_no_looser_than_the_exhaustive_one_on_every_fixture():
    for name, seq in _fixture_sequences().items():
        if isinstance(seq, ClassicalExchSeq):
            report = check_exchangeable_measures(seq)
            k, levels = len(seq.space), [seq.level(n).probs for n in range(1, seq.depth + 1)]
        else:
            report = check_exchangeable(seq)
            k, levels = seq.base.blocks[0], [seq.level(n).dens[0] for n in range(1, seq.depth + 1)]
        assert report.ok, name
        for n, lv in enumerate(report.levels, start=1):
            assert exhaustive_symmetry_gap(levels[n - 1], k, n) <= seq.tolerance, (name, n)
            assert lv.consistency <= seq.tolerance, (name, n)


def test_stacked_distances_match_the_pairwise_ones():
    # Hermitian gaps go through one stacked eigensolve, others through the
    # singular values, and packed vectors through the l1 norm: each entry is
    # the pair's sum of singular values, or its l1 distance.
    rng = np.random.default_rng(21)
    g = rng.standard_normal((6, 8, 8)) + 1j * rng.standard_normal((6, 8, 8))
    a = g + g.conj().swapaxes(1, 2)
    a[[1, 4]] += 1e-6 * rng.standard_normal((2, 8, 8))  # not Hermitian
    b = np.zeros_like(a)
    vecs = rng.standard_normal((5, 27))
    for x, y in ((a, b), (a[[1, 4]], b[:2]), (a[[0, 2]], b[:2]), (vecs, vecs[::-1])):
        got = _distances(x, y)
        assert got.shape == (len(x),)
        if x.ndim == 3:
            want = [np.linalg.svd(p - q, compute_uv=False).sum() for p, q in zip(x, y)]
        else:
            want = [np.abs(p - q).sum() for p, q in zip(x, y)]
        assert np.abs(got - want).max() <= 1e-13
