"""End-to-end gate: nine numbered checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v``; every check prints
``[PASS]``/``[FAIL] criterion N: ...`` with the measured numbers so the
whole gate can be audited from the log alone.
"""

import sys
import time

import numpy as np
import pytest

from finetti.classical import (
    FinDist,
    dirac,
    flatten,
    hs_reconstruct,
)
from finetti.cpmaps import (
    SCHRODINGER,
    choi_from_function,
    depolarizing_map,
    identity_map,
    is_completely_positive,
)
from finetti.cstar import Algebra, Element, StateVec, make_state, state_distance, trace_norm
from finetti.definetti import (
    Cone,
    Mixture,
    check_cone,
    default_atoms,
    factorization_error,
    mediating_map,
    moment_independent,
    reconstruct,
    restart_spreads,
    synthesize,
    uniqueness_check,
)
from finetti.exchange import (
    check_exchangeable,
    eta_sigma,
    eta_tau,
    iota_embed,
    make_exch_seq,
    power_algebra,
    restrict_state,
)
from finetti.fixtures import (
    QUBIT,
    bloch_grid_atoms,
    circuit1_atoms,
    circuit1_sequence,
    circuit2_atoms,
    circuit2_sequence,
    coin_grid,
    coin_sequence,
    equator_atoms,
    measure_prepare_cone,
    qubit_state,
    singlet_sequence,
    unknown_qubit_sequence,
)

from oracles import SINGLET_R_MIN, kron_residual, singlet_residual_floor

_SUITE_START = time.perf_counter()
_TIME_BUDGET = 300.0  # seconds for the whole gate


VERDICTS: list[str] = []


def _verdict(num: int, ok: bool, detail: str) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    VERDICTS.append(line)  # echoed by conftest in the terminal summary
    return ok


# --- 1: two-atom belief recovery -------------------------------------------------


def test_c1_two_atom_belief_recovery():
    seq = circuit1_sequence(3)
    atoms = circuit1_atoms()
    t0 = time.perf_counter()
    mix, residual = reconstruct(seq, atoms)
    elapsed = time.perf_counter() - t0
    weight_err = float(np.max(np.abs(mix.weights - 0.5)))
    ok = weight_err <= 1e-8 and residual <= 1e-10 and elapsed < 1.0
    assert _verdict(
        1,
        ok,
        f"two-atom belief: weights ({mix.weights[0]:.9f}, {mix.weights[1]:.9f}), "
        f"residual {residual:.2e}, {elapsed * 1e3:.0f} ms",
    )


# --- 2: maximally mixed belief ----------------------------------------------------


def test_c2_maximally_mixed_belief():
    seq = circuit2_sequence(3)

    singleton = circuit2_atoms()
    mix1, res1 = reconstruct(seq, singleton)
    ok_singleton = abs(mix1.weights[0] - 1.0) <= 1e-8 and res1 <= 1e-10

    atoms = default_atoms(2, 200, seed=0)
    mix2, res2 = reconstruct(seq, atoms)
    maxmix = qubit_state(np.eye(2) / 2)
    gap = state_distance(mix2.barycenter(), maxmix)
    ok_barycenter = gap <= 1e-6

    ok = ok_singleton and ok_barycenter
    assert _verdict(
        2,
        ok,
        f"maximally mixed belief: singleton weight {mix1.weights[0]:.9f} "
        f"(residual {res1:.2e}), 200-atom barycenter gap {gap:.2e} "
        f"(tolerance 1e-6)",
    )


# --- 3: reconstruct/synthesize round trip -----------------------------------------


def _independent_atoms(count: int, seed: int, depth: int):
    for bump in range(5):
        atoms = default_atoms(2, count, seed=seed + 1000 * bump)
        if moment_independent(atoms, depth):
            return atoms
    raise AssertionError("no moment-independent atom set found")


def test_c3_round_trip_and_affinity():
    rng = np.random.default_rng(42)
    depth = 4
    worst_weights = 0.0
    worst_affine = 0.0
    for trial in range(50):
        count = int(rng.integers(2, 9))
        atoms = _independent_atoms(count, seed=trial, depth=depth)
        w_true = rng.dirichlet(np.ones(count))
        seq = synthesize(Mixture(atoms, w_true), depth)
        mix, _ = reconstruct(seq, atoms)
        worst_weights = max(worst_weights, float(np.max(np.abs(mix.weights - w_true))))

        if trial % 5 == 0:
            w_b = rng.dirichlet(np.ones(count))
            seq_b = synthesize(Mixture(atoms, w_b), depth)
            for lam in (0.0, 0.25, 0.5, 1.0):
                levels = [
                    make_state(
                        power_algebra(QUBIT, n),
                        tuple(
                            lam * x + (1 - lam) * y
                            for x, y in zip(seq.level(n).dens, seq_b.level(n).dens)
                        ),
                    )
                    for n in range(1, depth + 1)
                ]
                blend = make_exch_seq(QUBIT, levels)
                mix_l, _ = reconstruct(blend, atoms)
                target = lam * w_true + (1 - lam) * w_b
                worst_affine = max(
                    worst_affine, float(np.max(np.abs(mix_l.weights - target)))
                )
    ok = worst_weights <= 1e-6 and worst_affine <= 1e-12
    assert _verdict(
        3,
        ok,
        f"round trip over 50 random mixtures: worst weight error {worst_weights:.2e}"
        f" (tol 1e-6), worst affinity defect {worst_affine:.2e} (tol 1e-12)",
    )


# --- 4: cone factorization and uniqueness ------------------------------------------


def _random_povm(d: int, k: int, rng) -> list[np.ndarray]:
    gs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(k)]
    es = [g @ g.conj().T for g in gs]
    w, v = np.linalg.eigh(sum(es))
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    return [inv_sqrt @ e @ inv_sqrt for e in es]


def _synthesizable_cone(apex_d: int, atoms, depth: int, rng) -> Cone:
    """Measure the apex state with a random POVM, then emit the matching
    iid product over the atoms; for a one-dimensional apex, a fixed mixture."""
    k = len(atoms.atoms)
    povm = None if apex_d == 1 else _random_povm(apex_d, k, rng)
    wts = rng.dirichlet(np.ones(k)) if apex_d == 1 else None
    channels = []
    for n in range(1, depth + 1):
        prods = []
        for s in atoms.atoms:
            p = np.array([[1.0 + 0j]])
            for _ in range(n):
                p = np.kron(p, s.dens[0])
            prods.append(p)
        if apex_d == 1:
            out = sum(w * p for w, p in zip(wts, prods))
            fn = lambda x, out=out: complex(x[0, 0]) * out
        else:
            fn = lambda x, povm=povm, prods=prods: sum(
                np.trace(e @ x) * p for e, p in zip(povm, prods)
            )
        channels.append(
            choi_from_function(Algebra((apex_d,)), Algebra((2**n,)), fn, SCHRODINGER)
        )
    return Cone(Algebra((apex_d,)), depth, tuple(channels))


def test_c4_cone_factorization_and_uniqueness():
    rng = np.random.default_rng(7)
    cases = [("measure-prepare", measure_prepare_cone(3), circuit1_atoms())]
    for i in range(20):
        apex_d = 1 if i % 4 == 3 else 2
        count = int(rng.integers(2, 7))
        atoms = _independent_atoms(count, seed=100 + i, depth=4)
        cases.append((f"random-{i}", _synthesizable_cone(apex_d, atoms, 4, rng), atoms))

    worst_fact = 0.0
    worst_spread = 0.0
    certified = 0
    for name, cone, atoms in cases:
        assert check_cone(cone).ok, name
        med = mediating_map(cone, atoms)
        worst_fact = max(worst_fact, factorization_error(cone, med))
        rep = uniqueness_check(cone, atoms, trials=10, seed=0)
        assert rep.independent, name
        certified += rep.unique
        # The restarts run at every probe here, certified or not, so that
        # the spread bound is not met by restarts the certificate skipped.
        spread, _ = restart_spreads(atoms, cone.depth, cone.targets()[0], trials=10, seed=0)
        worst_spread = max(worst_spread, spread)
    ok = worst_fact <= 1e-7 and worst_spread <= 1e-8 and certified == len(cases)
    assert _verdict(
        4,
        ok,
        f"{len(cases)} cones factor through mixtures: worst factorization error "
        f"{worst_fact:.2e} (tol 1e-7), worst weight spread over 10 restarts "
        f"{worst_spread:.2e} (tol 1e-8), certified unique {certified}/{len(cases)}",
    )


# --- 5: entangled pair is not a mixture --------------------------------------------


def test_c5_entangled_pair_residual_floor():
    live = singlet_residual_floor()
    assert abs(live - SINGLET_R_MIN) <= 1e-12, "grid floor drifted from frozen value"
    floor = 0.9 * SINGLET_R_MIN

    seq = singlet_sequence()
    assert check_exchangeable(seq).ok

    atom_sets = [
        ("computational pair", circuit1_atoms()),
        ("default-200", default_atoms(2, 200, seed=0)),
        ("default-500", default_atoms(2, 500, seed=1)),
        ("equator-64", equator_atoms(64)),
        ("bloch-grid-512", bloch_grid_atoms((8, 8, 8))),
    ]
    residuals = {}
    for name, atoms in atom_sets:
        _, res = reconstruct(seq, atoms)
        residuals[name] = res
    ok = all(r >= floor for r in residuals.values())
    shown = ", ".join(f"{k} {v:.4f}" for k, v in residuals.items())
    assert _verdict(
        5,
        ok,
        f"entangled pair: grid floor {SINGLET_R_MIN:.6f} reproduced live; "
        f"residuals all >= {floor:.4f} ({shown})",
    )


# --- 6: relabeling maps compose ----------------------------------------------------


def test_c6_relabeling_functoriality():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 5))
        k = int(rng.integers(m, 5))
        tau = tuple(int(x) for x in rng.permutation(m)[:n])
        ups = tuple(int(x) for x in rng.permutation(k)[:m])
        a = Element(
            power_algebra(QUBIT, n),
            (
                rng.standard_normal((2**n, 2**n))
                + 1j * rng.standard_normal((2**n, 2**n)),
            ),
        )
        step = eta_tau(eta_tau(a, QUBIT, tau, m), QUBIT, ups, k)
        direct = eta_tau(a, QUBIT, tuple(ups[t] for t in tau), k)
        worst = max(worst, float(np.max(np.abs(step.mats[0] - direct.mats[0]))))

    # Inclusions collapse to plain embeddings, bijections to permutations,
    # both bit-exactly.
    exact = True
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 5))
        a = Element(
            power_algebra(QUBIT, n),
            (
                rng.standard_normal((2**n, 2**n))
                + 1j * rng.standard_normal((2**n, 2**n)),
            ),
        )
        incl = eta_tau(a, QUBIT, tuple(range(n)), m)
        emb = iota_embed(a, QUBIT, m)
        exact &= np.array_equal(incl.mats[0], emb.mats[0])

        sigma = tuple(int(x) for x in rng.permutation(n))
        bij = eta_tau(a, QUBIT, sigma, n)
        perm = eta_sigma(StateVec(power_algebra(QUBIT, n), (a.mats[0],)), QUBIT, sigma)
        exact &= np.array_equal(bij.mats[0], perm.dens[0])

    ok = worst <= 1e-12 and exact
    assert _verdict(
        6,
        ok,
        f"relabeling maps: composition defect {worst:.2e} over 100 triples "
        f"(tol 1e-12); inclusion and bijection special cases bit-exact: {exact}",
    )


# --- 7: the deepest level determines the family -------------------------------------


def test_c7_top_level_determines_family():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = g @ g.conj().T
        top = make_state(power_algebra(QUBIT, 4), (rho / np.trace(rho).real,))
        family_a = {4: top}
        for n in (3, 2, 1):  # direct restriction from the top
            family_a[n] = restrict_state(top, QUBIT, n)
        family_b = {4: top}
        for n in (3, 2, 1):  # nested single-step restriction
            family_b[n] = restrict_state(family_b[n + 1], QUBIT, n)
        for n in (1, 2, 3):
            worst = max(worst, state_distance(family_a[n], family_b[n]))

    # Classical route: marginals of a random joint distribution.
    for _ in range(10):
        base = Algebra((1, 1, 1))
        p = rng.dirichlet(np.ones(81))
        top = make_state(power_algebra(base, 4), tuple(np.array([[x]]) for x in p))
        direct = restrict_state(top, base, 2)
        nested = restrict_state(restrict_state(top, base, 3), base, 2)
        worst = max(worst, state_distance(direct, nested))

    ok = worst <= 1e-12
    assert _verdict(
        7,
        ok,
        f"top level determines the family: worst route disagreement {worst:.2e} "
        f"(tol 1e-12) over 30 random depth-4 families",
    )


# --- 8: classical side ---------------------------------------------------------------


def test_c8_classical_monad_and_coin():
    rng = np.random.default_rng(17)
    worst_law = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        space = list(range(k))
        mu = FinDist(space, rng.dirichlet(np.ones(k)))
        left = flatten(dirac(mu, [mu]))
        worst_law = max(worst_law, float(np.max(np.abs(left.probs - mu.probs))))
        right = flatten(FinDist([dirac(x, space) for x in space], mu.probs))
        worst_law = max(worst_law, float(np.max(np.abs(right.probs - mu.probs))))
        inners = [FinDist(space, rng.dirichlet(np.ones(k))) for _ in range(2)]
        middles = [FinDist(inners, rng.dirichlet([1, 1])) for _ in range(3)]
        top = FinDist(middles, rng.dirichlet([1, 1, 1]))
        r1 = flatten(flatten(top))
        r2 = flatten(FinDist([flatten(m) for m in middles], top.probs))
        worst_law = max(worst_law, float(np.max(np.abs(r1.probs - r2.probs))))

    grid = coin_grid((0.0, 0.5, 1.0))
    seq = coin_sequence(depth=5)
    w, res = hs_reconstruct(seq, grid)
    coin_err = float(np.max(np.abs(w - 1 / 3)))

    # The fit runs on the encoded tower: its residual against the one the raw
    # probability vectors give at its weights.
    raw = kron_residual([g.probs for g in grid], [mu.probs for mu in seq.measures], w)
    oracle_gap = abs(res - raw)

    ok = worst_law <= 1e-12 and coin_err <= 1e-8 and oracle_gap <= 1e-8
    assert _verdict(
        8,
        ok,
        f"classical side: monad-law defect {worst_law:.2e} over 100 instances "
        f"(tol 1e-12), coin weights off by {coin_err:.2e} (tol 1e-8), "
        f"residual off the raw-vector oracle by {oracle_gap:.2e} (tol 1e-8)",
    )


# --- 9: residual monotonicity, positivity predicates, runtime ------------------------


def test_c9_monotonicity_predicates_runtime():
    fixtures = [
        ("singlet/pair", singlet_sequence(), circuit1_atoms()),
        ("singlet/default-50", singlet_sequence(), default_atoms(2, 50, seed=3)),
        ("unknown-qubit/equator", unknown_qubit_sequence(), equator_atoms(16)),
        ("circuit1/default-50", circuit1_sequence(4), default_atoms(2, 50, seed=4)),
    ]
    monotone = True
    detail = []
    for name, seq, atoms in fixtures:
        prev = -np.inf
        rs = []
        for depth in range(1, seq.depth + 1):
            _, res = reconstruct(seq.truncate(depth), atoms, check=False)
            monotone &= res >= prev - 1e-12
            prev = res
            rs.append(res)
        detail.append(f"{name} " + "->".join(f"{r:.3f}" for r in rs))

    transpose = choi_from_function(QUBIT, QUBIT, lambda x: x.T, SCHRODINGER)
    predicates = (
        not is_completely_positive(transpose)
        and is_completely_positive(identity_map(QUBIT))
        and is_completely_positive(depolarizing_map(2))
    )

    elapsed = time.perf_counter() - _SUITE_START
    ok = monotone and predicates and elapsed < _TIME_BUDGET
    assert _verdict(
        9,
        ok,
        f"residuals non-decreasing in depth ({'; '.join(detail)}); transpose "
        f"rejected / identity+depolarizing accepted: {predicates}; gate took "
        f"{elapsed:.1f} s of {_TIME_BUDGET:.0f} s budget",
    )
