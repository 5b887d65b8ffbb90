import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from finetti import symmetric
from finetti.definetti import default_atoms, moment_independent, probe_states
from finetti.fixtures import QUBIT, measure_prepare_cone
from finetti.solvers import (
    SolverDidNotConverge,
    lead_first_lstsq,
    nnls,
    realify,
    simplex_lstsq,
)

from oracles import scipy_lead_weighted_lstsq


def random_problem(rng, m, n):
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return a, b


def test_nnls_matches_scipy_on_random_problems():
    rng = np.random.default_rng(0)
    for _ in range(40):
        m, n = rng.integers(3, 12, size=2)
        a, b = random_problem(rng, m, n)
        x = nnls(a, b)
        x_ref, r_ref = scipy_nnls(a, b)
        assert np.all(x >= 0)
        assert np.linalg.norm(a @ x - b) <= r_ref + 1e-9
        assert np.allclose(x, x_ref, atol=1e-8)


def test_nnls_exact_when_solution_is_nonnegative():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((20, 5))
    x_true = rng.uniform(0.1, 2.0, size=5)
    x = nnls(a, a @ x_true)
    assert np.allclose(x, x_true, atol=1e-10)


def test_nnls_tiny_hand_case():
    # min ||x - (-1)|| over x >= 0 is x = 0.
    x = nnls(np.array([[1.0]]), np.array([-1.0]))
    assert x == pytest.approx(0.0)
    # Identity system with mixed signs clips the negative coordinate.
    x = nnls(np.eye(2), np.array([3.0, -2.0]))
    assert np.allclose(x, [3.0, 0.0])


def test_nnls_rank_deficient():
    # Duplicate columns: any split of the mass is optimal; residual must
    # still match scipy's.
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    x = nnls(a, b)
    assert np.all(x >= 0)
    assert np.linalg.norm(a @ x - b) <= 1e-12


def test_nnls_warm_start_reaches_same_optimum():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((30, 8))
    b = rng.standard_normal(30)
    cold = nnls(a, b)
    for k in range(5):
        start = rng.dirichlet(np.ones(8))
        warm = nnls(a, b, start=start)
        assert np.allclose(warm, cold, atol=1e-9), f"restart {k} diverged"


def test_nnls_rejects_negative_start():
    with pytest.raises(ValueError):
        nnls(np.eye(2), np.ones(2), start=np.array([1.0, -0.5]))


def test_realify_stacks_real_and_imaginary_parts():
    m = np.array([[1 + 2j, 3.0], [0.0, -1j]])
    r = realify(m)
    assert r.shape == (4, 2)
    assert np.allclose(r[:2], m.real)
    assert np.allclose(r[2:], m.imag)


def test_simplex_lstsq_weights_sum_to_one_exactly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((15, 6))
    b = rng.standard_normal(15)
    w, res = simplex_lstsq(a, b)
    assert w.sum() == pytest.approx(1.0, abs=0)  # renormalized exactly
    assert np.all(w >= 0)
    assert res == pytest.approx(np.linalg.norm(a @ w - b))


def test_simplex_lstsq_recovers_interior_mixture():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 5))
    w_true = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    w, res = simplex_lstsq(a, a @ w_true)
    assert np.allclose(w, w_true, atol=1e-6)
    assert res < 1e-8


def test_simplex_lstsq_matches_scipy_route():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((12, 7))
        b = rng.standard_normal(12)
        w, res = simplex_lstsq(a, b)
        n = a.shape[1]
        aa = np.vstack([a, 1e4 * np.ones((1, n))])
        ba = np.concatenate([b, [1e4]])
        x_ref, _ = scipy_nnls(aa, ba)
        w_ref = x_ref / x_ref.sum()
        assert res <= np.linalg.norm(a @ w_ref - b) + 1e-9
        assert np.allclose(w, w_ref, atol=1e-7)


def test_simplex_lstsq_warm_start_consistency():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((25, 6))
    b = a @ rng.dirichlet(np.ones(6))
    w_cold, res_cold = simplex_lstsq(a, b)
    for _ in range(5):
        w_warm, res_warm = simplex_lstsq(a, b, start=rng.dirichlet(np.ones(6)))
        assert np.allclose(w_warm, w_cold, atol=1e-9)
        assert res_warm == pytest.approx(res_cold, abs=1e-11)


def test_lead_first_lstsq_holds_the_lead_image_exactly():
    # Two lead rows over nine columns: the stage-1 optimum is not unique, and
    # stage 2 moves the weights only along the face that keeps its image.
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 9))
    b = rng.standard_normal(20)
    lead = np.array([0, 1])
    w1, _ = simplex_lstsq(a[lead], b[lead])
    w, res = lead_first_lstsq(a, b, lead)
    assert np.all(w >= 0) and w.sum() == 1.0
    assert np.abs(a[lead] @ w - a[lead] @ w1).max() <= 1e-12
    assert np.abs(w - w1).max() > 0.1
    assert res == pytest.approx(np.linalg.norm(a @ w - b))
    # The held solve can only lose against the free one.
    _, free = simplex_lstsq(a, b)
    assert res >= free - 1e-12


def test_lead_first_lstsq_against_weighted_scipy_route():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.standard_normal((14, 12))
        b = a @ rng.dirichlet(np.ones(12)) + 0.1 * rng.standard_normal(14)
        lead = np.arange(4)
        w, res = lead_first_lstsq(a, b, lead)
        _, res1 = simplex_lstsq(a[lead], b[lead])
        # Level 1 is optimal on its own, then the rest is fitted under it.
        assert np.linalg.norm(a[lead] @ w - b[lead]) == pytest.approx(res1, abs=1e-12)
        # The weighted route relaxes the lead rows, so its total residual is
        # lower, by a gap that closes as the weight grows.
        _, ref = scipy_lead_weighted_lstsq(a, b, lead, 1e4)
        assert ref - 1e-12 <= res <= ref + 1e-6
        _, equal = simplex_lstsq(a, b)
        assert res >= equal - 1e-12


def test_nnls_raises_at_the_iteration_cap():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 10))
    b = a @ rng.uniform(0.5, 1.0, size=10)
    with pytest.raises(SolverDidNotConverge, match="did not converge"):
        nnls(a, b, max_iter=5)
    # With the default cap the same problem is solved to the optimum.
    assert np.linalg.norm(a @ nnls(a, b) - b) < 1e-10


def _face_starts(rng, count, n, face):
    starts = np.zeros((count, n))
    for start in starts:
        start[rng.choice(n, face, replace=False)] = rng.dirichlet(np.ones(face))
    return starts


@pytest.mark.parametrize("cold", [False, True], ids=["face-starts", "cold"])
def test_stacked_lead_first_lstsq_matches_single_solves(cold):
    # Moment-independent atoms: the stage-2 optimum is unique, so the stacked
    # loop and the single loop must agree to round-off, supports included.
    atoms = default_atoms(2, 12, seed=5)
    assert moment_independent(atoms, 3)
    a = atoms.design(3)
    lead = slice(0, 4)
    rng = np.random.default_rng(10)
    mixtures = a @ rng.dirichlet(np.ones(12), size=8).T
    b = np.repeat((mixtures + 0.05 * rng.standard_normal(mixtures.shape)).T, 3, axis=0)
    starts = None if cold else _face_starts(rng, len(b), 12, 4)
    w, res = lead_first_lstsq(a, b, lead, start=starts)
    assert w.shape == (len(b), 12) and res.shape == (len(b),)
    for i in range(len(b)):
        w1, res1 = lead_first_lstsq(a, b[i], lead, start=None if cold else starts[i])
        assert np.abs(w[i] - w1).max() <= 1e-12
        assert abs(res[i] - res1) <= 1e-12
        assert np.array_equal(w[i] > 0, w1 > 0)
        assert w[i].sum() == 1.0


def test_stack_of_one_runs_the_single_loop():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((14, 12))
    b = a @ rng.dirichlet(np.ones(12)) + 0.1 * rng.standard_normal(14)
    start = rng.dirichlet(np.ones(12))
    w, res = lead_first_lstsq(a, b, np.arange(4), start=start)
    ws, rs = lead_first_lstsq(a, b[None], np.arange(4), start=start[None])
    assert np.array_equal(ws, w[None])
    assert rs.shape == (1,) and rs[0] == pytest.approx(res, abs=1e-15)


def test_stacked_solve_caps_each_problem():
    # One problem starts at its optimum, the other at a vertex far from an
    # interior optimum.  Under a cap of 3 steps the first finishes and the
    # second raises, alone or stacked in either order.
    from finetti.solvers import (
        Design,
        _active_set,
        _atom_major,
        _default_grad_tol,
        _stacked_active_set,
    )

    rng = np.random.default_rng(12)
    a = rng.standard_normal((20, 8))
    b = np.stack([a[:, 0], a @ rng.uniform(0.5, 1.0, size=8) / 6])
    x = np.zeros((2, 8))
    x[:, 0] = 1.0
    design = Design.build(_atom_major(a), np.ones((8, 1)))
    tol = _default_grad_tol(a, b)
    assert np.array_equal(_active_set(design, b[0], x[0], tol[0], 3), x[0])
    with pytest.raises(SolverDidNotConverge):
        _active_set(design, b[1], x[1], tol[1], 3)
    for order in ([0, 1], [1, 0]):
        with pytest.raises(SolverDidNotConverge, match="1 of the stacked problems"):
            _stacked_active_set(design, b[order], x[order], tol[order], 3)
    # Uncapped, both rows match their single solves.
    both = _stacked_active_set(design, b, x, tol, 60)
    for i in range(2):
        assert np.abs(both[i] - _active_set(design, b[i], x[i], tol[i], 60)).max() <= 1e-12


def test_stacked_restarts_on_degenerate_atoms_reach_the_single_optimum():
    # Fifty atoms of moment rank 20: optimal weights need not be unique, and
    # restarts set aside entrants that do not raise the passive rank.  Each
    # stacked row still reaches the residual of its single solve.
    atoms = default_atoms(2, 50, seed=3)
    cone = measure_prepare_cone(3)
    probes, _ = probe_states(cone.apex)
    a = atoms.design(3)
    targets = np.stack([symmetric.project(QUBIT, cone.sequence(p).levels)[0] for p in probes])
    rng = np.random.default_rng(18)  # these starts set entrants aside
    b = np.repeat(targets, 5, axis=0)
    starts = _face_starts(rng, len(b), 50, 4)
    w, res = lead_first_lstsq(a, b, slice(0, 4), start=starts)
    for i in range(len(b)):
        w1, res1 = lead_first_lstsq(a, b[i], slice(0, 4), start=starts[i])
        assert abs(res[i] - res1) <= 1e-12
        assert np.abs(a[:4] @ (w[i] - w1)).max() <= 1e-12


def test_active_set_steps_take_two_svds_and_no_lstsq(monkeypatch):
    # Each passive step factors the constraint block and the passive system
    # once each; the equality multipliers come from the first factorization.
    import finetti.solvers as solvers

    atoms = default_atoms(2, 50, seed=3)
    fit = atoms.context(3)
    rng = np.random.default_rng(19)
    a = atoms.design(3)
    b = a @ rng.dirichlet(np.ones(50)) + 0.02 * rng.standard_normal(a.shape[0])
    svds, steps = [], []
    real_svd, real_step = np.linalg.svd, solvers._passive_step
    monkeypatch.setattr(
        np.linalg, "svd", lambda *args, **kw: svds.append(1) or real_svd(*args, **kw)
    )
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: pytest.fail("lstsq called"))
    monkeypatch.setattr(solvers, "_passive_step", lambda *args: steps.append(1) or real_step(*args))
    lead_first_lstsq(fit, b)
    assert len(steps) >= 10
    assert len(svds) <= 2 * len(steps)


def _passive_system(rng, deficient):
    e, p, m = (int(v) for v in rng.integers((1, 1, 5), (6, 12, 30)))
    cp = rng.standard_normal((e, p))
    if deficient:  # one row a combination of the others, or a zero row
        cp[-1] = rng.standard_normal(e - 1) @ cp[:-1] if e > 1 else 0.0
    return rng.standard_normal((m, p)), rng.standard_normal(m), cp, rng.standard_normal(p)


@pytest.mark.parametrize("deficient", [False, True], ids=["full-rank", "rank-deficient"])
def test_passive_multipliers_match_lstsq(deficient):
    # The pseudo-inverse from the constraint SVD fits the multipliers as
    # numpy's lstsq does, at its cut-off, single and stacked.
    from finetti.solvers import _passive_step, _passive_steps

    rng = np.random.default_rng(20)
    systems = [_passive_system(rng, deficient) for _ in range(40)]
    for ap, r, cp, g in systems:
        ref = np.linalg.lstsq(cp.T, g, rcond=None)[0]
        _, _, pinv = _passive_step(ap, r, cp, 1e-12)
        assert np.abs(pinv @ g - ref).max() <= 1e-12
    # The stacked form pads every problem to one width with zero columns.
    for e in range(1, 6):
        group = [s for s in systems if s[2].shape[0] == e]
        if not group:
            continue
        m = min(s[0].shape[0] for s in group)
        width = max(s[2].shape[1] for s in group)
        size = np.array([s[2].shape[1] for s in group])
        ap = np.zeros((len(group), m, width))
        cp = np.zeros((len(group), e, width))
        for i, (a_i, _, c_i, _) in enumerate(group):
            ap[i, :, : size[i]] = a_i[:m]
            cp[i, :, : size[i]] = c_i
        r = np.stack([s[1][:m] for s in group])
        _, _, pinv = _passive_steps(ap, r, cp, size, 1e-12)
        for i, (_, _, c_i, g) in enumerate(group):
            ref = np.linalg.lstsq(c_i.T, g, rcond=None)[0]
            assert np.abs(pinv[i, :, : size[i]] @ g - ref).max() <= 1e-12
