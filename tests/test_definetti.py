import dataclasses
import functools
import gc
import importlib.util
import math
import sys
import weakref
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from finetti.cstar import Algebra, make_state, state_distance
from finetti.definetti import (
    AtomSet,
    Cone,
    ConeLawViolation,
    ConeReport,
    Mixture,
    NotExchangeable,
    NotRepresentable,
    certificate_tolerances,
    certify,
    check_cone,
    default_atoms,
    explicit_atoms,
    factorization_error,
    mediating_map,
    moment_independent,
    moment_matrix,
    moment_rank,
    probe_states,
    random_mixed_state,
    random_pure_state,
    reconstruct,
    restart_spreads,
    sequence_vector,
    synthesize,
    uniqueness_check,
)
from finetti.classical import (
    ClassicalExchSeq,
    FinDist,
    classical_moment_rank,
    grid_atoms,
    hs_reconstruct,
    tuple_space,
)
from finetti.exchange import (
    check_exchangeable,
    eta_sigma,
    iid_extend,
    make_exch_seq,
    power_algebra,
)
from finetti.cpmaps import SCHRODINGER, choi_from_function
from finetti.fixtures import (
    COIN_SPACE,
    QUBIT,
    bloch_grid_atoms,
    broken_cone,
    circuit1_atoms,
    circuit1_sequence,
    circuit2_atoms,
    circuit2_sequence,
    coin_grid,
    coin_sequence,
    constant_cone,
    equator_atoms,
    equator_sequence,
    measure_prepare_cone,
    qubit_state,
    singlet_sequence,
    unknown_qubit_sequence,
)
from finetti import symmetric
from finetti.solvers import realify

from oracles import (
    exhaustive_cone_gap,
    kron_moment_matrix,
    scipy_lead_weighted_lstsq,
    scipy_simplex_lstsq,
)


def test_random_state_generators_are_valid_and_seeded():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    p1 = random_pure_state(3, rng1).dens[0]
    p2 = random_pure_state(3, rng2).dens[0]
    assert np.array_equal(p1, p2)
    assert np.trace(p1) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(p1).max() == pytest.approx(1.0)  # rank one
    m = random_mixed_state(3, rng1).dens[0]
    assert np.trace(m) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(m).min() > 0


def test_default_atoms_reproducible_and_split():
    a1 = default_atoms(2, 10, seed=3)
    a2 = default_atoms(2, 10, seed=3)
    for x, y in zip(a1.atoms, a2.atoms):
        assert np.array_equal(x.dens[0], y.dens[0])
    # 70/30 split: the first 7 atoms are pure, the rest full rank.
    for x in a1.atoms[:7]:
        assert np.linalg.matrix_rank(x.dens[0], tol=1e-10) == 1
    for x in a1.atoms[7:]:
        assert np.linalg.eigvalsh(x.dens[0]).min() > 1e-12
    assert a1.seed == 3
    other = default_atoms(2, 10, seed=4)
    assert other.atoms[0].dens[0][0, 0] != a1.atoms[0].dens[0][0, 0]


def test_atomset_rejects_duplicates_and_invalid():
    k0 = qubit_state(np.diag([1.0, 0.0]))
    near = qubit_state(np.diag([1.0 - 5e-10, 5e-10]))
    with pytest.raises(ValueError, match="distinct"):
        explicit_atoms([k0, near])
    atoms = explicit_atoms([k0, qubit_state(np.diag([0.0, 1.0]))])
    assert len(atoms.atoms) == 2


def test_mixture_validation_and_barycenter():
    atoms = circuit1_atoms()
    with pytest.raises(ValueError):
        Mixture(atoms, np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        Mixture(atoms, np.array([1.2, -0.2]))
    mix = Mixture(atoms, np.array([0.25, 0.75]))
    bary = mix.barycenter()
    assert np.allclose(bary.dens[0], np.diag([0.25, 0.75]))


def test_synthesize_levels_are_iid_mixtures():
    atoms = circuit1_atoms()
    mix = Mixture(atoms, np.array([0.5, 0.5]))
    seq = synthesize(mix, 3)
    assert seq.depth == 3
    # Level 2 of the half/half computational mixture is diagonal with mass
    # 1/2 on |00> and |11>.
    assert np.allclose(seq.level(2).dens[0], np.diag([0.5, 0, 0, 0.5]))
    assert check_exchangeable(seq).ok


def test_synthesize_is_affine_in_weights():
    rng = np.random.default_rng(0)
    atoms = default_atoms(2, 5, seed=1)
    w1 = rng.dirichlet(np.ones(5))
    w2 = rng.dirichlet(np.ones(5))
    for lam in (0.0, 0.25, 0.5, 1.0):
        w = lam * w1 + (1 - lam) * w2
        blend = synthesize(Mixture(atoms, w), 3)
        s1 = synthesize(Mixture(atoms, w1), 3)
        s2 = synthesize(Mixture(atoms, w2), 3)
        for n in (1, 2, 3):
            direct = blend.level(n).dens[0]
            mixed = lam * s1.level(n).dens[0] + (1 - lam) * s2.level(n).dens[0]
            assert np.max(np.abs(direct - mixed)) < 1e-12


def test_moment_matrix_shape_and_rank():
    atoms = circuit1_atoms()
    m = moment_matrix(atoms, 2)
    # Rows stack vec(sigma) for n=1 (4 rows) and vec(sigma x sigma) (16 rows).
    assert m.shape == (4 + 16, 2)
    assert moment_rank(atoms, 1) == 2
    assert moment_independent(atoms, 1)


def test_moment_rank_of_equator_family_is_fourier_limited():
    # States on the equator circle: level-n moments only see 2n+1 Fourier
    # modes, so depth 4 gives rank 9 regardless of how many atoms sit on the
    # circle.
    atoms = equator_atoms(64)
    assert moment_rank(atoms, 4) == 9
    assert not moment_independent(atoms, 4)


def test_reconstruct_round_trip_on_random_mixture():
    rng = np.random.default_rng(1)
    atoms = default_atoms(2, 6, seed=2)
    w_true = rng.dirichlet(np.ones(6))
    seq = synthesize(Mixture(atoms, w_true), 4)
    mix, residual = reconstruct(seq, atoms)
    assert residual < 1e-10
    assert np.max(np.abs(mix.weights - w_true)) < 1e-6


def _qubit_level1_rows(design: np.ndarray) -> np.ndarray:
    half = design.shape[0] // 2  # realified: real parts, then imaginary parts
    return np.r_[0:4, half : half + 4]


def test_reconstruct_matches_maximally_mixed_barycenter_exactly():
    # Acceptance criterion 2's instance.  I/2 lies inside the hull of the 200
    # atoms, so level 1 is matched exactly.  The total residual is then the
    # lexicographic optimum, which the scipy route approaches as the level-1
    # rows are weighted up, and never below the equal-weight optimum.
    seq = circuit2_sequence(3)
    atoms = default_atoms(2, 200, seed=0)
    mix, residual = reconstruct(seq, atoms)
    design = realify(moment_matrix(atoms, 3))
    target = realify(sequence_vector(seq))
    lead = _qubit_level1_rows(design)
    assert np.linalg.norm(design[lead] @ mix.weights - target[lead]) <= 1e-12
    _, weighted = scipy_lead_weighted_lstsq(design, target, lead, 1e4)
    _, equal = scipy_simplex_lstsq(design, target)
    assert weighted == pytest.approx(0.04326514498, abs=1e-10)
    assert equal == pytest.approx(0.0426230883, abs=1e-10)
    assert abs(residual - weighted) <= 1e-8
    assert residual >= equal


@pytest.mark.parametrize(
    "make_seq, make_atoms, depth",
    [
        (unknown_qubit_sequence, bloch_grid_atoms, 4),
        (unknown_qubit_sequence, bloch_grid_atoms, 5),
        (unknown_qubit_sequence, bloch_grid_atoms, 6),
        (equator_sequence, equator_atoms, 7),
    ],
    ids=["bloch-4", "bloch-5", "bloch-6", "equator-7"],
)
def test_reconstruct_uniform_tower_reaches_zero(make_seq, make_atoms, depth):
    # Uniform weights over the 512-atom Bloch grid (64 equator atoms)
    # reproduce the tower, so the optimum is 0.  On the Bloch grid the
    # level-1 fit lands on a degenerate vertex of a few atoms, from which the
    # second stage must still reach that optimum.
    mix, residual = reconstruct(make_seq(depth), make_atoms())
    assert residual <= 1e-10


def test_reconstruct_projects_level_1_outside_the_hull():
    # The iid |+> tower against {|0>, |1>}: |+><+| is outside the hull of the
    # atoms, whose nearest point is I/2, so the weights are (1/2, 1/2) and the
    # residual at depth N is sqrt(sum_{n<=N} (3/2 - 2^(1-n))).
    plus = qubit_state(np.full((2, 2), 0.5))
    seq = synthesize(Mixture(explicit_atoms([plus]), np.array([1.0])), 3)
    residuals = []
    for depth in (1, 2, 3):
        mix, residual = reconstruct(seq.truncate(depth), circuit1_atoms())
        assert np.allclose(mix.weights, [0.5, 0.5], atol=1e-12)
        expected = np.sqrt(sum(1.5 - 2.0 ** (1 - n) for n in range(1, depth + 1)))
        assert residual == pytest.approx(expected, abs=1e-12)
        residuals.append(residual)
    assert residuals == pytest.approx([0.70710678, 1.22474487, 1.65831240], abs=1e-8)
    assert residuals == sorted(residuals)


def test_reconstruct_requires_exchangeability():
    k0 = np.diag([1.0, 0.0]).astype(complex)
    k1 = np.diag([0.0, 1.0]).astype(complex)
    lvl1 = make_state(QUBIT, (np.eye(2) / 2,))
    lvl2 = make_state(power_algebra(QUBIT, 2), (np.kron(k0, k1),))
    seq = make_exch_seq(QUBIT, (lvl1, lvl2), 1e-9)
    with pytest.raises(NotExchangeable) as err:
        reconstruct(seq, circuit1_atoms())
    assert not err.value.report.ok
    # check=False skips the gate and just solves.
    mix, residual = reconstruct(seq, circuit1_atoms(), check=False)
    assert residual > 0.1


def test_reconstruct_weights_are_covariant_under_atom_relabeling():
    rng = np.random.default_rng(2)
    atoms = default_atoms(2, 5, seed=5)
    w = rng.dirichlet(np.ones(5))
    seq = synthesize(Mixture(atoms, w), 3)
    mix1, _ = reconstruct(seq, atoms)
    perm = [3, 0, 4, 1, 2]
    shuffled = explicit_atoms([atoms.atoms[i] for i in perm])
    mix2, _ = reconstruct(seq, shuffled)
    assert np.max(np.abs(mix2.weights - mix1.weights[perm])) < 1e-10


def test_reconstruct_depth_controls_discrimination():
    # The equator family is degenerate at every depth, but a two-atom
    # sub-family is already separated at depth 1.
    atoms = circuit1_atoms()
    seq = circuit1_sequence()
    mix, residual = reconstruct(seq, atoms, depth=1)
    assert residual < 1e-12
    assert np.allclose(mix.weights, [0.5, 0.5], atol=1e-10)


def test_residual_monotone_in_depth():
    # Deeper prefixes add constraints, so the best residual cannot drop.
    atoms = default_atoms(2, 20, seed=9)
    seq = singlet_sequence()
    prev = -1.0
    for depth in (1, 2):
        _, res = reconstruct(seq.truncate(depth), atoms, check=False)
        assert res >= prev - 1e-12
        prev = res


def test_singlet_sequence_not_representable():
    # Entangled pair correlations exceed any iid mixture: large residual.
    _, res = reconstruct(singlet_sequence(), circuit1_atoms(), check=True)
    assert res > 0.5


def test_probe_states_span_the_algebra():
    for alg in (QUBIT, Algebra((1, 1, 1)), Algebra((2, 1))):
        probes, basis = probe_states(alg)
        assert len(probes) == alg.dim
        assert np.linalg.matrix_rank(np.vstack([basis.real, basis.imag])) == alg.dim
        for s in probes:
            for d, m in zip(alg.blocks, s.dens):
                assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() > -1e-12


def test_check_cone_accepts_lawful_cone():
    cone = measure_prepare_cone(3)
    report = check_cone(cone)
    assert report.ok
    assert report.max_violation < 1e-10


def test_check_cone_flags_broken_cone():
    report = check_cone(broken_cone())
    assert not report.ok
    assert len(report.probes) == QUBIT.dim  # one sequence report per probe state
    for probe in report.probes:
        assert not probe.ok
        lv = probe.levels[0]
        # diag(0.9, 0.1) against the marginal I/2 of level 2, in trace norm.
        assert lv.consistency == pytest.approx(0.8, abs=1e-12)
        assert lv.worst_source == 2  # the gap flows from the higher level
    assert report.max_violation == pytest.approx(0.8, abs=1e-12)


def test_constant_cone_is_lawful():
    sigma = qubit_state(np.diag([0.3, 0.7]))
    cone = constant_cone(sigma, depth=3)
    assert check_cone(cone).ok


def _perturbed_qubit_tower(depth, rng, eps):
    """Levels of a random mixture of qubit iid towers, each level n >= 2
    pulled toward a product of distinct random factors."""
    atoms = [random_mixed_state(2, rng).dens[0] for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    levels = []
    for n in range(1, depth + 1):
        level = sum(w * _kron_power(a, n) for w, a in zip(weights, atoms))
        if n >= 2:
            noise = [random_mixed_state(2, rng).dens[0] for _ in range(n)]
            level = (1 - eps) * level + eps * functools.reduce(np.kron, noise)
        levels.append(level)
    return levels


def _kron_power(a, n):
    return functools.reduce(np.kron, [a] * n)


def _measure_prepare(apex, towers, depth):
    """Measure the apex in its standard basis and emit tower ``b`` on
    outcome ``b``: ``Phi_n(x) = sum_b x_bb rho^b_n``."""
    channels = []
    for n in range(1, depth + 1):
        outs = [t[n - 1] for t in towers]
        fn = lambda x, outs=outs: sum(x[b, b] * out for b, out in enumerate(outs))  # noqa: E731
        channels.append(choi_from_function(apex, power_algebra(QUBIT, n), fn, SCHRODINGER))
    return Cone(apex, depth, channels, 1e-9)


def _probe_levels(cone):
    """Levels of the sequence the cone induces at each probe state."""
    probes, _ = probe_states(cone.apex)
    return [[cone.at(k, n).dens[0] for n in range(1, cone.depth + 1)] for k in probes]


@pytest.mark.parametrize(
    "apex",
    [Algebra((1,)), Algebra((1, 1)), QUBIT, Algebra((3,))],
    ids=["A(1)", "A(1+1)", "A(2)", "A(3)"],
)
def test_cone_bound_covers_every_injection(apex):
    rng = np.random.default_rng(40 + apex.dim)
    for depth in range(2, 6):
        for eps in (1e-3, 0.3):
            towers = [_perturbed_qubit_tower(depth, rng, eps) for _ in range(apex.rep_dim)]
            cone = _measure_prepare(apex, towers, depth)
            report = check_cone(cone)
            exhaustive = exhaustive_cone_gap(_probe_levels(cone), 2)
            assert 0 < exhaustive <= report.max_violation + 1e-12, (depth, eps)
            assert not report.ok
            bounds = [
                max(lv.symmetry_bound for lv in p.levels) + max(lv.consistency for lv in p.levels)
                for p in report.probes
            ]
            assert report.max_violation == min(2.0, max(bounds))


def test_cone_verdict_implies_the_exhaustive_verdict_on_every_fixture_cone():
    sigma = qubit_state(np.diag([0.3, 0.7]))
    cones = {
        "measure-prepare": measure_prepare_cone(3),
        "constant-A(2)": constant_cone(sigma, 3),
        "constant-A(1+1)": constant_cone(sigma, 4, Algebra((1, 1))),
        "broken-d2": broken_cone(2),
        "broken-d4": broken_cone(4),
    }
    verdicts = {}
    for name, cone in cones.items():
        report = check_cone(cone)
        exhaustive = exhaustive_cone_gap(_probe_levels(cone), 2)
        assert exhaustive <= report.max_violation + 1e-12, name
        if report.ok:
            assert exhaustive <= cone.tolerance, name
        verdicts[name] = report.ok
    assert verdicts == {
        "measure-prepare": True,
        "constant-A(2)": True,
        "constant-A(1+1)": True,
        "broken-d2": False,
        "broken-d4": False,
    }


def test_trivial_apex_cone_reports_the_levels_of_its_sequence():
    trivial = Algebra((1,))
    sequences = {
        "circuit1": circuit1_sequence(3),
        "circuit2": circuit2_sequence(3),
        "equator": equator_sequence(4),
        "unknown-qubit": unknown_qubit_sequence(4),
        "singlet": singlet_sequence(),
    }
    for name, seq in sequences.items():
        channels = [
            choi_from_function(
                trivial,
                power_algebra(QUBIT, n),
                lambda x, rho=seq.level(n).dens[0]: x[0, 0] * rho,
                SCHRODINGER,
            )
            for n in range(1, seq.depth + 1)
        ]
        report = check_cone(Cone(trivial, seq.depth, channels, seq.tolerance))
        assert report.probes == (check_exchangeable(seq),), name


def test_mediating_map_on_measure_prepare_cone():
    cone = measure_prepare_cone(3)
    atoms = circuit1_atoms()
    med = mediating_map(cone, atoms)
    # The apex state |+><+| measures to the uniform bit, so its mixture puts
    # weight 1/2 on each computational atom.
    plus = qubit_state(np.full((2, 2), 0.5))
    mix = med.mixture_for(plus)
    assert np.allclose(mix.weights, [0.5, 0.5], atol=1e-8)
    assert factorization_error(cone, med) < 1e-7


def test_cone_fits_are_one_stacked_solve_each(monkeypatch):
    # mediating_map fits all probes in one call of the solver, and the
    # restarts all probes x trials restarts in one more; each probe row
    # matches reconstruct's own fit of that probe.
    import finetti.definetti as definetti

    calls = []
    real = definetti.lead_first_lstsq
    monkeypatch.setattr(
        definetti,
        "lead_first_lstsq",
        lambda a, b, *args, **kw: calls.append(np.shape(b)) or real(a, b, *args, **kw),
    )
    cone = measure_prepare_cone(3)  # apex A(2): four probe states
    atoms = default_atoms(2, 12, seed=5)
    assert moment_independent(atoms, 3)
    med = mediating_map(cone, atoms, max_residual=1.0)  # no exact fit here
    weight_spread, _ = restart_spreads(atoms, 3, cone.targets()[0], trials=3, seed=0)
    rows = 4 + 10 + 20
    assert calls == [(4, rows), (12, rows)]
    assert weight_spread <= 1e-12
    for kappa, w, res in zip(med.probes, med.weights, med.residuals):
        mix, alone = reconstruct(cone.sequence(kappa), atoms, check=False)
        assert np.abs(mix.weights - w).max() <= 1e-12
        assert abs(alone - res) <= 1e-12


def test_mediating_map_weights_interpolate_linearly():
    cone = measure_prepare_cone(3)
    med = mediating_map(cone, circuit1_atoms())
    s0 = qubit_state(np.diag([1.0, 0.0]))
    s1 = qubit_state(np.diag([0.0, 1.0]))
    w0 = med.weights_for(s0)
    w1 = med.weights_for(s1)
    blend = qubit_state(np.diag([0.25, 0.75]))
    wb = med.weights_for(blend)
    assert np.allclose(wb, 0.25 * w0 + 0.75 * w1, atol=1e-10)
    assert np.allclose(w0, [1.0, 0.0], atol=1e-8)
    assert np.allclose(w1, [0.0, 1.0], atol=1e-8)


def test_mediating_map_gate_on_broken_cone():
    with pytest.raises(ConeLawViolation):
        mediating_map(broken_cone(), circuit1_atoms())


def test_mediating_map_not_representable_for_entangled_cone():
    # A cone whose tower is the singlet family satisfies the cone laws but
    # cannot be expressed through iid mixtures over any finite atom family.
    seq = singlet_sequence()
    channels = []
    for n in (1, 2):
        target_state = seq.level(n)

        def const(x, t=target_state):
            return np.trace(x) * t.dens[0]

        channels.append(
            choi_from_function(QUBIT, power_algebra(QUBIT, n), const, SCHRODINGER)
        )
    cone = Cone(QUBIT, 2, tuple(channels), 1e-9)
    assert check_cone(cone).ok
    with pytest.raises(NotRepresentable) as err:
        mediating_map(cone, default_atoms(2, 50, seed=0))
    assert err.value.residual > err.value.threshold


def test_perturbed_mediating_map_has_visible_error():
    cone = measure_prepare_cone(3)
    med = mediating_map(cone, circuit1_atoms())
    base_err = factorization_error(cone, med)
    assert base_err < 1e-7
    tampered = type(med)(
        med.apex,
        med.atomset,
        med.probes,
        med.probe_basis,
        med.weights + np.array([0.1, -0.1]),
        med.residuals,
    )
    assert factorization_error(cone, tampered) > 1e-3


def test_uniqueness_check_on_independent_atoms():
    cone = measure_prepare_cone(3)
    report = uniqueness_check(cone, circuit1_atoms(), trials=10, seed=0)
    assert report.independent
    assert report.moment_rank == 2
    assert report.max_weight_spread <= 1e-8
    assert report.max_moment_spread <= 1e-8
    assert report.unique and report.restarts == 0 and report.trials == 10


def test_uniqueness_check_flags_degenerate_atoms():
    # Many equator atoms are moment-degenerate: weights wander between
    # restarts but the induced moments stay pinned.
    cone = constant_cone(qubit_state(np.eye(2) / 2), depth=2)
    report = uniqueness_check(cone, equator_atoms(16), trials=5, seed=1)
    assert not report.independent
    assert report.moment_rank < 16
    assert report.max_moment_spread <= 1e-8


@pytest.mark.parametrize(
    "atoms, depth",
    [(functools.partial(equator_atoms, n), depth) for n in (16, 32) for depth in (2, 3, 4)]
    + [(bloch_grid_atoms, 3)],
    ids=[f"equator{n}-d{depth}" for n in (16, 32) for depth in (2, 3, 4)] + ["bloch-d3"],
)
def test_uniqueness_restarts_detect_degenerate_weights(atoms, depth):
    # I/2 is the barycenter of many mixtures over these atoms: restarts on
    # random faces must land on visibly different weights, one moment image.
    # The certificate settles none of the four probes, so all of them restart.
    cone = constant_cone(qubit_state(np.eye(2) / 2), depth=depth)
    report = uniqueness_check(cone, atoms(), trials=10)
    assert not report.unique and report.margin <= report.margin_tol
    assert report.restarts == 4 * 10
    assert report.max_weight_spread >= 0.1
    assert report.max_moment_spread <= 1e-8


def test_uniqueness_restarts_skip_the_drop_walk(monkeypatch):
    # A restart on a random q-face of the simplex starts near stage 1's
    # optimal face; a dense start over all 50 atoms first drops about k - q
    # of them one step at a time (about 51 steps per restart).  The restarts
    # step as one stack, so each stacked step counts once per live problem.
    import finetti.solvers as solvers

    steps = []
    real = solvers._passive_steps
    monkeypatch.setattr(
        solvers, "_passive_steps", lambda *args: steps.append(len(args[0])) or real(*args)
    )
    cone = measure_prepare_cone(3)  # apex A(2): four probe states
    restart_spreads(default_atoms(2, 50, seed=3), 3, cone.targets()[0], trials=10, seed=0)
    restarts = 4 * 10
    assert 0 < sum(steps) <= 25 * restarts


@pytest.mark.parametrize("trials", [0, 1, -1])
def test_uniqueness_check_refuses_fewer_than_two_trials(trials):
    # One restart has no other to disagree with: a spread of 0 would read as
    # "unique" on atoms of moment rank 20 < 50.
    cone = measure_prepare_cone(3)
    with pytest.raises(ValueError, match="trials must be at least 2"):
        uniqueness_check(cone, default_atoms(2, 50, seed=3), trials=trials)


def test_uniqueness_check_refuses_atoms_on_another_base():
    cone = measure_prepare_cone(3)  # base A(2), q = 4
    points = Algebra((1, 1, 1, 1))  # also q = 4
    on_points = explicit_atoms(
        make_state(points, [np.array([[p]]) for p in probs])
        for probs in ([0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1])
    )
    for atoms in (on_points, default_atoms(3, 5, seed=0)):
        with pytest.raises(ValueError, match="cone base .* != atom base"):
            uniqueness_check(cone, atoms, trials=2)


def _augmented(a: np.ndarray) -> np.ndarray:
    return np.vstack([np.ones((1, a.shape[1])), a])


def test_certificate_on_full_support_needs_no_solve(monkeypatch):
    # Every probe of the measure-prepare cone weighs both of its two atoms:
    # no atom is off the support, so the rank test alone decides, with
    # margin inf, and no solve runs on the empty off-support design.
    import finetti.definetti as definetti

    def no_solve(*args, **kw):
        raise AssertionError("solve on an empty design")

    monkeypatch.setattr(definetti, "simplex_lstsq", no_solve)
    atoms = circuit1_atoms()
    report = uniqueness_check(measure_prepare_cone(3), atoms, trials=10)
    assert report.support == (2, 2, 2, 2)
    assert report.unique and report.margin == math.inf and report.restarts == 0
    cert = certify(atoms.design(3), np.array([0.5, 0.5]))
    assert cert.unique and cert.margin == math.inf and cert.direction is None


def test_certificate_refutes_uniqueness_with_a_null_direction():
    # A target synthesized over all 50 atoms, at moment rank 20, has many
    # optimal weight vectors.  Every refutation returns a direction d that
    # keeps [1; A] d = 0 and is nonnegative off the support: for the fitted
    # weights (the projected off-support design reaches 0), and for the
    # synthesizing weights themselves (the support is rank-deficient, also
    # with more support atoms than rows, as for a generic 3 x 10 design).
    atoms = default_atoms(2, 50, seed=3)
    a = atoms.design(3)
    margin_tol = certificate_tolerances(a)[1]
    w_true = np.random.default_rng(1).dirichlet(np.ones(50))
    mix, residual = reconstruct(synthesize(Mixture(atoms, w_true), 3), atoms)
    assert residual <= 1e-10
    wide = np.random.default_rng(3).random((3, 10))
    cases = [(a, mix.weights, margin_tol), (a, w_true, 0.0), (wide, np.full(10, 0.1), 0.0)]
    for a, w, margin in cases:
        cert = certify(a, w)
        assert not cert.unique and cert.margin <= margin
        d = cert.direction
        assert np.abs(d).sum() >= 1.0 - 1e-12
        assert d[w == 0].min(initial=0.0) >= 0.0
        assert np.linalg.norm(_augmented(a) @ d) <= 1e-10


def test_certificate_margin_bounds_the_off_support_mass():
    # Every simplex point w' puts at most ||A (w' - w)|| / margin of its mass
    # off the support of a certified w, from far away and from close by.
    atoms = default_atoms(2, 50, seed=3)
    a = atoms.design(3)
    rng = np.random.default_rng(2)
    for support, weights in (([0], [1.0]), ([1, 2], [0.3, 0.7])):
        w = np.zeros(50)
        w[support] = weights
        cert = certify(a, w)
        assert cert.unique and cert.margin > certificate_tolerances(a)[1]
        for t in np.logspace(-6, 0, 40):
            w2 = (1 - t) * w + t * rng.dirichlet(np.ones(50))
            off = np.delete(w2, support).sum()
            assert off <= np.linalg.norm(a @ (w2 - w)) / cert.margin * (1 + 1e-9)


def test_factor_cones_benchmark_cones_are_certified_with_no_restart(monkeypatch):
    # The factorable cones of the factor-cones workload (seed 5): constant
    # cones and the measure-prepare cone over 50 qubit atoms at moment rank
    # 20 or 35 have unique mediating maps, and the certificate shows it.
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    env = workloads.FactorCones(5, "").setup()
    factorable = [key for key in env["cones"] if not key.startswith("broken")]
    assert len(factorable) == 8
    for key in factorable:
        report = uniqueness_check(env["cones"][key], env["atoms"], trials=10, seed=5)
        assert not report.independent, key
        assert report.unique and report.restarts == 0 and report.trials == 10, key
        assert report.margin > report.margin_tol, key
        assert report.max_weight_spread == report.max_moment_spread == 0.0, key


def test_synthesize_matches_eta_invariance():
    atoms = default_atoms(2, 4, seed=11)
    seq = synthesize(Mixture(atoms, np.full(4, 0.25)), 3)
    lvl3 = seq.level(3)
    rolled = eta_sigma(lvl3, QUBIT, (1, 2, 0))
    assert state_distance(lvl3, rolled) < 1e-12


def test_mixture_rejects_non_finite_weights():
    atoms = default_atoms(2, 3, seed=1)
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            Mixture(atoms, np.array(bad))


# --- the stored moment design ------------------------------------------------


def _commutative_atoms():
    space = Algebra((1, 1, 1))
    grid = [(0.2, 0.3, 0.5), (0.6, 0.1, 0.3), (1.0, 0.0, 0.0), (0.25, 0.25, 0.5)]
    return explicit_atoms(
        make_state(space, [np.array([[p]], dtype=complex) for p in probs]) for probs in grid
    )


def _packed(atoms):
    if atoms.base.n_blocks == 1:
        return [s.dens[0] for s in atoms.atoms]
    return [np.array([m[0, 0] for m in s.dens]) for s in atoms.atoms]


def _gram(design: np.ndarray) -> np.ndarray:
    """Inner products of the columns: real for the symmetric design, and the
    real part for a complex design of Hermitian columns."""
    return (design.conj().T @ design).real


@pytest.mark.parametrize(
    "make, depth",
    [
        (lambda: default_atoms(2, 7, seed=3), 5),
        (lambda: default_atoms(3, 5, seed=4), 3),
        (_commutative_atoms, 4),
    ],
    ids=["qubit", "qutrit", "commutative-1+1+1"],
)
def test_stored_design_matches_per_atom_kron(make, depth):
    # The full design expanded from the stored one is the oracle's, entry by
    # entry.  The stored design has C(n+q-1, n) rows at level n, and at each
    # level the same column inner products as the oracle's level: it is the
    # oracle's level in orthonormal coordinates of the symmetric subspace.
    atoms = make()
    ref = kron_moment_matrix(_packed(atoms), depth)
    got = moment_matrix(atoms, depth)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-15
    q = atoms.base.dim
    design, at, at_ref = atoms.design(depth), 0, 0
    for n in range(1, depth + 1):
        rows, size = math.comb(n + q - 1, n), q**n
        gap = _gram(design[at : at + rows]) - _gram(ref[at_ref : at_ref + size])
        assert np.abs(gap).max() <= 1e-13
        at, at_ref = at + rows, at_ref + size
    assert design.shape == (at, len(atoms))


def test_shallower_design_is_the_stored_prefix():
    deep_first = default_atoms(2, 9, seed=5)
    deep = deep_first.design(5)
    shallow = deep_first.design(3)
    rows = 4 + 10 + 20
    assert np.array_equal(shallow, deep[:rows])
    assert np.array_equal(shallow, default_atoms(2, 9, seed=5).design(3))
    assert np.array_equal(moment_matrix(deep_first, 3), moment_matrix(deep_first, 5)[:84])
    ref = kron_moment_matrix(_packed(deep_first), 3)
    assert np.abs(_gram(shallow) - _gram(ref)).max() <= 1e-13


def test_reconstruct_from_a_deeper_store_matches_a_fresh_store(monkeypatch):
    k = 200
    deeper, fresh = default_atoms(2, k, seed=8), default_atoms(2, k, seed=8)
    deeper.design(5)
    copies = []
    real_copy = np.asfortranarray
    monkeypatch.setattr(np, "asfortranarray", lambda a: copies.append(a.shape) or real_copy(a))
    rng = np.random.default_rng(9)
    for _ in range(3):
        w = np.zeros(k)
        w[rng.choice(k, 4, replace=False)] = rng.dirichlet(np.ones(4))
        seq = synthesize(Mixture(fresh, w), 3)
        got, got_residual = reconstruct(seq, deeper)
        ref, ref_residual = reconstruct(seq, fresh)
        assert np.abs(got.weights - ref.weights).max() <= 1e-14
        assert abs(got_residual - ref_residual) <= 1e-14
        oracle = kron_moment_matrix(_packed(deeper), 3) @ got.weights - sequence_vector(seq)
        assert abs(got_residual - np.linalg.norm(oracle)) <= 1e-12
    # The prefix view has contiguous columns, so no solve copies it.
    assert (4 + 10 + 20, k) not in copies


def _coin_grid_as_atoms():
    return coin_grid(tuple(np.linspace(0.0, 1.0, 21)))


@pytest.mark.parametrize(
    "make, depth",
    [
        (lambda: default_atoms(2, 40, seed=3), 6),
        (lambda: default_atoms(3, 30, seed=4), 4),
        (_commutative_atoms, 6),
        (_coin_grid_as_atoms, 10),
    ],
    ids=["qubit", "qutrit", "commutative-1+1+1", "coin"],
)
def test_symmetric_design_gram_matches_kron_oracle(make, depth):
    # The map to symmetric coordinates is an isometry on the span of the
    # iid columns, so the column inner products are the oracle's, and so is
    # the rank.
    atoms = make()
    if isinstance(atoms, list):  # a classical grid: the design of hs_reconstruct
        design = grid_atoms(atoms).design(depth)
        ref = kron_moment_matrix([mu.probs for mu in atoms], depth)
        rank = classical_moment_rank(atoms, depth)
    else:
        design = atoms.design(depth)
        ref = kron_moment_matrix(_packed(atoms), depth)
        rank = moment_rank(atoms, depth)
    assert np.abs(_gram(design) - _gram(ref)).max() <= 1e-13
    assert rank == np.linalg.matrix_rank(realify(ref))


def _product_tower(levels1):
    """Levels ``s_1 (x) ... (x) s_n``: consistent, not symmetric."""
    out, cur = [], None
    for s in levels1:
        cur = s if cur is None else np.kron(cur, s)
        out.append(cur)
    return out


def _oracle_residual(columns, weights, levels) -> float:
    depth = len(levels)
    target = np.concatenate([np.asarray(lv).ravel() for lv in levels])
    return float(np.linalg.norm(kron_moment_matrix(columns, depth) @ weights - target))


@pytest.mark.parametrize(
    "make",
    [
        lambda: (circuit1_sequence(3), circuit1_atoms()),
        lambda: (circuit2_sequence(3), default_atoms(2, 50, seed=1)),
        lambda: (equator_sequence(5), equator_atoms()),
        lambda: (unknown_qubit_sequence(4), bloch_grid_atoms()),
        lambda: (singlet_sequence(), default_atoms(2, 200, seed=0)),
        lambda: (singlet_sequence(), bloch_grid_atoms()),
    ],
    ids=["circuit1", "circuit2", "equator", "unknown-qubit", "singlet", "singlet-bloch"],
)
def test_reported_residual_is_the_full_design_residual(make):
    seq, atoms = make()
    mix, residual = reconstruct(seq, atoms)
    levels = [seq.level(n).dens[0] for n in range(1, seq.depth + 1)]
    assert abs(residual - _oracle_residual(_packed(atoms), mix.weights, levels)) <= 1e-12


def test_residual_counts_the_part_off_the_symmetric_subspace():
    # Product towers of distinct states are consistent but not symmetric:
    # the part no mixture reaches enters the residual, as in the oracle's.
    rng = np.random.default_rng(12)
    for d, depth, k in [(2, 4, 30), (3, 3, 20)]:
        atoms = default_atoms(d, k, seed=d)
        levels = _product_tower([random_mixed_state(d, rng).dens[0] for _ in range(depth)])
        states = [make_state(Algebra((m.shape[0],)), [m]) for m in levels]
        seq = make_exch_seq(Algebra((d,)), states)
        assert not check_exchangeable(seq).ok
        mix, residual = reconstruct(seq, atoms, check=False)
        oracle = _oracle_residual(_packed(atoms), mix.weights, levels)
        assert oracle > 1e-2
        assert abs(residual - oracle) <= 1e-12
    levels = _product_tower([np.array([p, 1 - p]) for p in (0.2, 0.7, 0.4)])
    measures = [FinDist(tuple_space(COIN_SPACE, n), lv) for n, lv in enumerate(levels, start=1)]
    grid = _coin_grid_as_atoms()
    for seq in (
        ClassicalExchSeq(COIN_SPACE, 3, measures),
        coin_sequence(6, biases=(0.1, 0.35, 0.8), weights=(0.5, 0.3, 0.2)),
    ):
        w, residual = hs_reconstruct(seq, grid, check=False)
        oracle = _oracle_residual([mu.probs for mu in grid], w, [mu.probs for mu in seq.measures])
        assert abs(residual - oracle) <= 1e-12


def test_synthesized_inputs_reach_residual_1e_12():
    rng = np.random.default_rng(13)
    for atoms, depth in [(default_atoms(2, 200, seed=5), 5), (default_atoms(3, 60, seed=6), 4)]:
        w = np.zeros(len(atoms))
        w[rng.choice(len(atoms), 4, replace=False)] = rng.dirichlet(np.ones(4))
        _, residual = reconstruct(synthesize(Mixture(atoms, w), depth), atoms)
        assert residual <= 1e-12


def test_stored_design_and_atoms_are_read_only():
    atoms = default_atoms(2, 4, seed=6)
    for arr in (atoms.design(3), moment_matrix(atoms, 3)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert isinstance(atoms.atoms, tuple)
    with pytest.raises(TypeError):
        atoms.atoms[0] = atoms.atoms[1]
    with pytest.raises(AttributeError):
        atoms.atoms = atoms.atoms[:2]
    assert not atoms.atoms[0].dens[0].flags.writeable


def _count_level_builds(monkeypatch):
    import finetti.symmetric as symmetric

    builds = []
    real = symmetric.iid_level

    def counted(coords, n):
        out = real(coords, n)
        builds.append(out.shape[1:])
        return out

    monkeypatch.setattr(symmetric, "iid_level", counted)
    return builds


def test_reconstruct_then_moment_rank_build_each_level_once(monkeypatch):
    atoms = default_atoms(2, 20, seed=7)
    oracle = kron_moment_matrix(_packed(atoms), 3)
    oracle_ranks = [np.linalg.matrix_rank(realify(oracle[:rows])) for rows in (84, 20)]
    builds = _count_level_builds(monkeypatch)
    ranks = []
    real_rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda m: ranks.append(m.shape) or real_rank(m))
    seq = synthesize(Mixture(atoms, np.full(20, 0.05)), 3)
    assert builds == [(4,), (10,), (20,)]
    _, residual = reconstruct(seq, atoms)
    assert residual < 1e-10
    assert moment_rank(atoms, 3) == moment_rank(atoms, 3) == oracle_ranks[0]
    assert moment_rank(atoms, 2) == oracle_ranks[1]
    assert builds == [(4,), (10,), (20,)]
    assert ranks == [(4 + 10 + 20, 20), (4 + 10, 20)]


def test_mediating_map_builds_the_design_once_for_all_probes(monkeypatch):
    builds = _count_level_builds(monkeypatch)
    cone = measure_prepare_cone(3)  # apex A(2): four probe states
    atoms = circuit1_atoms()
    med = mediating_map(cone, atoms)
    assert len(med.probes) == 4
    assert builds == [(4,), (10,), (20,)]
    uniqueness_check(cone, atoms, trials=3)
    assert factorization_error(cone, med) < 1e-7
    assert builds == [(4,), (10,), (20,)]


def _table_misses() -> tuple[int, int]:
    """Builds so far of the process-wide orbit tables and slot maps."""
    return symmetric.orbits.cache_info().misses, symmetric.slot_map.cache_info().misses


def test_orbit_tables_and_slot_maps_are_built_once_and_read_only():
    for q, n in [(2, 5), (4, 3), (6, 2)]:
        tables = symmetric.orbits(q, n)
        assert symmetric.orbits(q, n) is tables
        for arr in tables:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
    for base in (QUBIT, Algebra((1, 1, 1))):
        u = symmetric.slot_map(base)
        assert symmetric.slot_map(Algebra(base.blocks)) is u
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 1.0


def test_second_fit_over_an_atom_set_rebuilds_no_tables(monkeypatch):
    # The orbit tables and slot maps are built once per process, and the
    # stage-2 equality rows once with the atom set's fit context: later fits
    # at that depth only read them.
    import finetti.solvers as solvers

    cone = measure_prepare_cone(3)
    atoms = circuit1_atoms()
    seq = circuit1_sequence(3)
    reconstruct(seq, atoms)
    mediating_map(cone, atoms)
    misses = _table_misses()
    calls = []
    real = solvers._row_basis
    monkeypatch.setattr(solvers, "_row_basis", lambda c: calls.append(c.shape) or real(c))
    reconstruct(seq, atoms)
    med = mediating_map(cone, atoms)
    uniqueness_check(cone, atoms, trials=3)
    factorization_error(cone, med)
    synthesize(med.mixture_for(med.probes[0]), 3)
    moment_matrix(atoms, 3)
    assert calls == []
    reconstruct(seq, circuit1_atoms())  # a new atom set prepares its own fit
    assert calls
    assert _table_misses() == misses


def test_second_classical_fit_and_quantum_check_build_no_tables():
    grid = coin_grid(tuple(np.linspace(0.0, 1.0, 21)))
    seq = coin_sequence(depth=10)
    rho = qubit_state(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    tower = iid_extend(rho, 7)
    first = hs_reconstruct(seq, grid), check_exchangeable(tower)
    misses = _table_misses()
    second = hs_reconstruct(seq, grid), check_exchangeable(tower)
    assert _table_misses() == misses
    assert np.array_equal(first[0][0], second[0][0]) and first[1] == second[1]


def test_fit_context_is_read_only_and_views_the_store():
    atoms = default_atoms(2, 12, seed=5)
    atoms.design(4)
    fit = atoms.context(3)
    assert atoms.context(3) is fit
    arrays = [fit.first.at, fit.first.ct, fit.second.at, fit.second.ct]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    # The solver gathers passive columns as rows of the store itself.
    assert np.shares_memory(fit.second.at, atoms._moments)
    assert np.array_equal(fit.second.a, atoms.design(3))
    with pytest.raises(AttributeError):
        atoms._contexts = {}


def test_deeper_design_frees_the_store_a_context_viewed():
    atoms = default_atoms(2, 200, seed=1)
    atoms.context(3)
    store = weakref.ref(atoms._moments)
    deep = atoms.design(5)
    gc.collect()
    assert store() is None
    assert np.shares_memory(atoms.context(3).second.a, deep)


def test_factorization_error_matches_per_probe_synthesis():
    # One unproject call for all probes gives the per-probe synthesize route.
    cases = [
        (measure_prepare_cone(3), default_atoms(2, 12, seed=5), 1.0),  # inexact fit
        (measure_prepare_cone(3), circuit1_atoms(), 1e-6),  # exact fit
        (constant_cone(qubit_state(np.diag([0.3, 0.7])), 4), equator_atoms(), 1.0),
    ]
    for cone, atoms, bound in cases:
        med = mediating_map(cone, atoms, max_residual=bound)
        worst = 0.0
        for kappa, w in zip(med.probes, med.weights):
            synth = synthesize(Mixture(atoms, w), cone.depth)
            for got, want in zip(cone.sequence(kappa).levels, synth.levels):
                worst = max(worst, np.linalg.svd(got - want, compute_uv=False).sum())
        assert abs(factorization_error(cone, med) - worst) <= 1e-14


def test_factorization_error_refuses_a_map_on_another_apex():
    sigma = qubit_state(np.diag([0.3, 0.7]))
    med = mediating_map(constant_cone(sigma, 3, Algebra((1, 1))), circuit2_atoms(), max_residual=1.0)
    with pytest.raises(ValueError, match="apex"):
        factorization_error(constant_cone(sigma, 3), med)


def test_spreads_are_the_largest_gaps_over_all_pairs_of_restarts(monkeypatch):
    # The restarts' levels are synthesized once, then compared pair by pair;
    # the reference synthesizes each pair's weight gap.  Random weights stand
    # in for the solves, so that the restarts' moments differ.
    import finetti.definetti as definetti

    rng = np.random.default_rng(4)
    drawn = []

    def solve(fit, b, start):
        drawn.append(rng.dirichlet(np.ones(start.shape[1]), size=len(b)))
        return drawn[-1], np.zeros(len(b))

    monkeypatch.setattr(definetti, "lead_first_lstsq", solve)
    cases = [
        (measure_prepare_cone(3), default_atoms(2, 12, seed=5)),
        (constant_cone(qubit_state(np.eye(2) / 2), 3, Algebra((1, 1))), equator_atoms(16)),
    ]
    trials = 6
    for cone, atoms in cases:
        spreads = restart_spreads(atoms, cone.depth, cone.targets()[0], trials, seed=2)
        sols = drawn[-1].reshape(-1, trials, len(atoms))
        i, j = np.triu_indices(trials, 1)
        gaps = (sols[:, i] - sols[:, j]).reshape(-1, len(atoms))
        levels = symmetric.unproject(atoms.base, cone.depth, gaps @ atoms.design(cone.depth).T)
        assert spreads[0] == np.abs(gaps).max()
        ref = max(np.abs(lv).max() for lv in levels)
        assert ref > 1e-3
        assert abs(spreads[1] - ref) <= 1e-15


# --- a cone's probe data --------------------------------------------------------


def _count_channel_applications(monkeypatch):
    import finetti.definetti as definetti

    calls = []
    real = definetti.apply_dense
    monkeypatch.setattr(
        definetti, "apply_dense", lambda f, dense: calls.append(id(f)) or real(f, dense)
    )
    return calls


def test_factor_pipeline_builds_each_probe_tower_once(monkeypatch):
    # The cone derives its probe towers, law report and targets on first
    # use: the whole factor pipeline, run twice, applies each channel once at
    # each probe state.  A new cone builds its own.
    applied = _count_channel_applications(monkeypatch)
    atoms = circuit1_atoms()
    cone = measure_prepare_cone(3)  # apex A(2): four probe states
    assert applied == []
    for _ in range(2):
        assert check_cone(cone).ok
        med = mediating_map(cone, atoms)
        assert factorization_error(cone, med) < 1e-7
        uniqueness_check(cone, atoms, trials=3)
    assert sorted(applied) == sorted(4 * [id(ch) for ch in cone.channels])
    fresh = measure_prepare_cone(3)
    mediating_map(fresh, atoms)
    assert len(applied) == 2 * 4 * 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: measure_prepare_cone(3),
        lambda: constant_cone(qubit_state(np.diag([0.3, 0.7])), 4, Algebra((1, 1))),
        lambda: broken_cone(3),
    ],
    ids=["measure-prepare", "constant-A(1+1)", "broken"],
)
def test_cone_memo_is_its_towers_and_read_only(make):
    cone = make()
    probes, report, (targets, offs) = cone.probes(), cone.report(), cone.targets()
    assert cone.probes() is probes and cone.report() is report
    assert cone.targets()[0] is targets
    states, basis = probe_states(cone.apex)
    assert np.array_equal(probes.basis, basis)
    fresh = []
    for i, (kappa, tower) in enumerate(zip(probes.states, probes.towers, strict=True)):
        ref = cone.sequence(kappa)
        fresh.append(check_exchangeable(ref))
        assert all(np.array_equal(a, b) for a, b in zip(tower.levels, ref.levels, strict=True))
        target, off = symmetric.project(cone.base, ref.levels)
        assert np.array_equal(targets[i], target)
        assert offs[i] == off
    assert report == ConeReport(cone.tolerance, tuple(fresh))
    arrays = [probes.basis, targets, offs]
    arrays += [lv for tower in probes.towers for lv in tower.levels]
    arrays += [m for s in probes.states for m in s.dens]
    arrays += [ch.choi for ch in cone.channels]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    assert isinstance(cone.channels, tuple)
    with pytest.raises(FrozenInstanceError):
        cone.tolerance = 1.0
    with pytest.raises(FrozenInstanceError):
        probes.towers[0].levels = probes.towers[0].levels[:1]
    with pytest.raises(FrozenInstanceError):
        cone.channels[0].choi = np.eye(len(cone.channels[0].choi))


def test_cone_with_a_new_tolerance_reports_its_own_verdict():
    cone = broken_cone()
    assert not check_cone(cone).ok
    loose = dataclasses.replace(cone, tolerance=0.9)
    assert check_cone(loose).ok
    assert check_cone(loose).tolerance == 0.9
    assert not check_cone(cone).ok


def test_reports_are_frozen():
    report = check_cone(broken_cone())
    probe = report.probes[0]
    assert isinstance(report.probes, tuple) and isinstance(probe.levels, tuple)
    for obj, name in [
        (report, "tolerance"),
        (report, "probes"),
        (probe, "tolerance"),
        (probe, "levels"),
        (probe.levels[0], "symmetry"),
    ]:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0.0)


# --- the distinctness screen ---------------------------------------------------


def _near_pair(gap: float):
    sigma = np.diag([0.5, 0.5]).astype(complex)
    shift = np.diag([gap / 2, -gap / 2])  # trace distance ||shift||_1 = gap
    return [make_state(QUBIT, [sigma]), make_state(QUBIT, [sigma + shift])]


def test_distinctness_screen_threshold():
    with pytest.raises(ValueError, match="atoms 0 and 1 are not distinct"):
        explicit_atoms(_near_pair(1e-8))
    assert len(explicit_atoms(_near_pair(1e-5))) == 2


def test_distinctness_screen_finds_pairs_across_blocks(monkeypatch):
    import finetti.definetti as definetti

    monkeypatch.setattr(definetti, "SCREEN_ENTRIES", 64)  # blocks of 1-2 rows
    states = list(default_atoms(2, 40, seed=8).atoms)
    sigma = states[3].dens[0]
    states.append(make_state(QUBIT, [sigma + np.diag([5e-9, -5e-9])]))
    with pytest.raises(ValueError, match="atoms 3 and 40 are not distinct"):
        explicit_atoms(states)
    assert len(explicit_atoms(states[:40])) == 40


def test_distinctness_screen_memory_is_blocked():
    import tracemalloc

    tracemalloc.start()
    try:
        atoms = default_atoms(2, 3000, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(atoms) == 3000
    assert peak < 100 * 2**20
