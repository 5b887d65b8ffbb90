import re

import numpy as np
import pytest

from finetti.classical import (
    ClassicalExchSeq,
    FinDist,
    Kernel,
    bernoulli,
    check_exchangeable_measures,
    classical_moment_rank,
    dirac,
    encode_space,
    flatten,
    grid_atoms,
    hs_reconstruct,
    kleisli_compose,
    product_measure,
    pushforward,
    synthesize_measures,
    tuple_space,
)
from finetti.definetti import NotExchangeable
from finetti.fixtures import COIN_SPACE, coin_grid, coin_sequence

from oracles import kron_residual, vandermonde_rank

ABC = ["a", "b", "c"]


def random_dist(space, rng):
    return FinDist(list(space), rng.dirichlet(np.ones(len(space))))


def random_kernel(source, target, rng):
    rows = rng.dirichlet(np.ones(len(target)), size=len(source))
    return Kernel(list(source), list(target), rows)


def test_findist_validation():
    with pytest.raises(ValueError):
        FinDist(ABC, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        FinDist(ABC, np.array([0.7, 0.7, -0.4]))  # negative
    with pytest.raises(ValueError):
        FinDist(ABC, np.array([0.3, 0.3, 0.3]))  # does not sum to 1
    d = FinDist(ABC, np.array([0.2, 0.3, 0.5]))
    assert d.probs[2] == 0.5


def test_findist_rejects_non_finite_entries():
    # Every comparison with NaN is false, so only an explicit test stops it.
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [0.5, 0.5, -np.inf]):
        with pytest.raises(ValueError):
            FinDist(ABC, np.array(bad))


def test_dirac_is_point_mass():
    d = dirac("b", ABC)
    assert np.array_equal(d.probs, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        dirac("z", ABC)


def test_pushforward_with_function_and_dict():
    d = FinDist(ABC, np.array([0.2, 0.3, 0.5]))
    out = pushforward(lambda x: x.upper(), d, ["A", "B", "C"])
    assert np.array_equal(out.probs, d.probs)
    merged = pushforward({"a": 0, "b": 0, "c": 1}.get, d, [0, 1])
    assert np.allclose(merged.probs, [0.5, 0.5])


def test_flatten_averages_inner_distributions():
    inner0 = FinDist(["H", "T"], np.array([1.0, 0.0]))
    inner1 = FinDist(["H", "T"], np.array([0.0, 1.0]))
    outer = FinDist([inner0, inner1], np.array([0.5, 0.5]))
    flat = flatten(outer)
    assert flat.space == ["H", "T"]
    assert np.allclose(flat.probs, [0.5, 0.5])


def test_monad_unit_laws():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = random_dist(ABC, rng)
        # flatten(dirac(mu)) == mu
        left = flatten(dirac(mu, [mu]))
        assert np.allclose(left.probs, mu.probs, atol=1e-15)
        # flatten(map(dirac, mu)) == mu
        inner = [dirac(x, ABC) for x in ABC]
        right = flatten(FinDist(inner, mu.probs))
        assert np.allclose(right.probs, mu.probs, atol=1e-15)


def test_monad_associativity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        # Distribution over distributions over distributions.
        inners = [random_dist(ABC, rng) for _ in range(2)]
        middles = [FinDist(inners, rng.dirichlet([1, 1])) for _ in range(3)]
        top = FinDist(middles, rng.dirichlet([1, 1, 1]))
        route1 = flatten(flatten(top))
        mapped = FinDist([flatten(m) for m in middles], top.probs)
        route2 = flatten(mapped)
        assert route1.space == route2.space
        assert np.allclose(route1.probs, route2.probs, atol=1e-14)


def test_kernel_validation_and_call():
    with pytest.raises(ValueError):
        Kernel(ABC, ["x"], np.array([[0.5], [1.0], [1.0]]))  # row sums
    with pytest.raises(ValueError, match="finite"):
        Kernel(["a", "b"], ["x", "y"], np.array([[np.nan, np.nan], [0.5, 0.5]]))
    k = Kernel(ABC, ["x", "y"], np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    out = k(FinDist(ABC, np.array([0.2, 0.3, 0.5])))
    assert np.allclose(out.probs, [0.2 + 0.25, 0.3 + 0.25])


def test_kleisli_compose_matches_double_sum():
    rng = np.random.default_rng(2)
    xs, ys, zs = list("pqr"), list("klmn"), list("uv")
    f = random_kernel(xs, ys, rng)
    g = random_kernel(ys, zs, rng)
    h = kleisli_compose(f, g)
    for i in range(len(xs)):
        for k in range(len(zs)):
            acc = sum(f.rows[i, j] * g.rows[j, k] for j in range(len(ys)))
            assert h.rows[i, k] == pytest.approx(acc, abs=1e-14)


def test_kleisli_associativity():
    rng = np.random.default_rng(3)
    a, b, c, d = list("xy"), list("pqr"), list("mn"), list("st")
    f = random_kernel(a, b, rng)
    g = random_kernel(b, c, rng)
    h = random_kernel(c, d, rng)
    lhs = kleisli_compose(kleisli_compose(f, g), h)
    rhs = kleisli_compose(f, kleisli_compose(g, h))
    assert np.allclose(lhs.rows, rhs.rows, atol=1e-14)


def test_tuple_space_ordering_is_lexicographic():
    assert tuple_space(["H", "T"], 2) == [
        ("H", "H"),
        ("H", "T"),
        ("T", "H"),
        ("T", "T"),
    ]
    assert tuple_space(ABC, 1) == [("a",), ("b",), ("c",)]


def test_product_measure_biased_coin():
    # Bias 0.25 toward heads: pair probabilities by direct multiplication.
    mu = FinDist(["H", "T"], np.array([0.25, 0.75]))
    pair = product_measure(mu, 2)
    assert np.allclose(pair.probs, [0.0625, 0.1875, 0.1875, 0.5625], atol=0)
    triple = product_measure(mu, 3)
    assert triple.probs[0] == pytest.approx(0.25**3)
    assert triple.probs[-1] == pytest.approx(0.75**3)


def _coordinates(tau):
    """The coordinate map ``(x_1..x_m) -> (x_tau(1)..x_tau(n))`` on tuples."""
    return lambda x: tuple(x[j] for j in tau)


def test_pushforward_along_a_coordinate_swap_moves_coordinates():
    mu = FinDist(["H", "T"], np.array([0.25, 0.75]))
    nu = FinDist(["H", "T"], np.array([0.6, 0.4]))
    joint = FinDist(tuple_space(["H", "T"], 2), np.kron(mu.probs, nu.probs))
    swapped = pushforward(_coordinates((1, 0)), joint, joint.space)
    expected = np.kron(nu.probs, mu.probs)
    assert np.allclose(swapped.probs, expected, atol=1e-15)


def test_pushforward_along_a_coordinate_selection_marginalizes():
    mu = FinDist(["H", "T"], np.array([0.25, 0.75]))
    nu = FinDist(["H", "T"], np.array([0.6, 0.4]))
    joint = FinDist(tuple_space(["H", "T"], 2), np.kron(mu.probs, nu.probs))
    singles = tuple_space(["H", "T"], 1)
    first = pushforward(_coordinates((0,)), joint, singles)
    assert np.allclose(first.probs, mu.probs, atol=1e-15)
    second = pushforward(_coordinates((1,)), joint, singles)
    assert np.allclose(second.probs, nu.probs, atol=1e-15)
    flipped = pushforward(_coordinates((1, 0)), joint, joint.space)
    assert np.allclose(flipped.probs, np.kron(nu.probs, mu.probs), atol=1e-15)


def test_pushforward_along_a_coordinate_selection_of_a_product_is_a_product():
    rng = np.random.default_rng(4)
    mu = random_dist(ABC, rng)
    big = product_measure(mu, 4)
    out = pushforward(_coordinates((3, 1)), big, tuple_space(ABC, 2))
    assert np.allclose(out.probs, product_measure(mu, 2).probs, atol=1e-14)


def test_iid_measures_and_exchangeability():
    mu = FinDist(["H", "T"], np.array([0.3, 0.7]))
    seq = synthesize_measures([mu], [1.0], 4)
    report = check_exchangeable_measures(seq)
    assert report.ok
    assert report.max_violation < 1e-14


def test_check_exchangeable_measures_flags_bad_sequences():
    mu = FinDist(["H", "T"], np.array([0.5, 0.5]))
    ordered = FinDist(tuple_space(["H", "T"], 2), np.array([0.0, 1.0, 0.0, 0.0]))
    seq = ClassicalExchSeq(["H", "T"], 2, (mu, ordered), 1e-9)
    report = check_exchangeable_measures(seq)
    assert not report.ok
    assert report.levels[1].symmetry > 0.5


def test_synthesize_measures_mixes_products():
    grid = coin_grid((0.0, 1.0))
    seq = synthesize_measures(grid, np.array([0.5, 0.5]), 3)
    # Mixture of deterministic coins: only all-H and all-T tuples survive.
    lvl3 = seq.measures[2]
    assert lvl3.probs[0] == pytest.approx(0.5)
    assert lvl3.probs[-1] == pytest.approx(0.5)
    assert lvl3.probs[1:-1].max() == pytest.approx(0.0, abs=1e-15)


def test_classical_moment_rank_matches_vandermonde():
    # Tuple probabilities are polynomials in the bias, so the moment rank
    # equals the rank of the Vandermonde system on powers 0..depth.
    for biases, depth in [
        ((0.0, 0.5, 1.0), 5),
        ((0.1, 0.3, 0.5, 0.7, 0.9), 3),
        ((0.1, 0.3, 0.5, 0.7, 0.9), 9),
        ((0.2, 0.8), 1),
    ]:
        grid = coin_grid(biases)
        got = classical_moment_rank(grid, depth)
        assert got == min(vandermonde_rank(biases, depth), len(biases))


def test_hs_reconstruct_recovers_coin_mixture():
    grid = coin_grid((0.0, 0.5, 1.0))
    seq = coin_sequence(depth=5)
    w, residual = hs_reconstruct(seq, grid)
    assert residual < 1e-10
    assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-8)


def test_hs_reconstruct_unique_at_sufficient_depth():
    biases = (0.1, 0.3, 0.5, 0.7, 0.9)
    grid = coin_grid(biases)
    rng = np.random.default_rng(5)
    w_true = rng.dirichlet(np.ones(5))
    seq = synthesize_measures(grid, w_true, 9)
    assert classical_moment_rank(grid, 9) == 5
    w, residual = hs_reconstruct(seq, grid)
    assert residual < 1e-10
    assert np.max(np.abs(w - w_true)) < 1e-7


def test_hs_reconstruct_degenerate_at_shallow_depth():
    biases = (0.1, 0.3, 0.5, 0.7, 0.9)
    grid = coin_grid(biases)
    assert classical_moment_rank(grid, 3) == 4  # rank-deficient: 5 atoms
    rng = np.random.default_rng(6)
    w_true = rng.dirichlet(np.ones(5))
    seq = synthesize_measures(grid, w_true, 3)
    w, residual = hs_reconstruct(seq, grid)
    # The tuple statistics are still matched even though weights may differ.
    assert residual < 1e-10


def raw_residual(seq: ClassicalExchSeq, grid, weights) -> float:
    """The residual of ``weights`` over all levels, recomputed on the raw
    probability vectors of the grid and the family."""
    return kron_residual([g.probs for g in grid], [mu.probs for mu in seq.measures], weights)


def test_hs_reconstruct_fits_level_1_first():
    # An iid coin of bias 0.4 over the grid {0.2, 0.8}: level 1 pins the
    # weights to (2/3, 1/3), which the higher levels cannot pull away from.
    # The residual is the one the raw probability vectors give.
    grid = coin_grid((0.2, 0.8))
    seq = synthesize_measures([bernoulli(COIN_SPACE, 0.4)], [1.0], 3)
    w, residual = hs_reconstruct(seq, grid)
    assert np.max(np.abs(w - [2 / 3, 1 / 3])) < 1e-12
    assert residual > 0.05
    assert abs(residual - raw_residual(seq, grid, w)) < 1e-12


def test_hs_reconstruct_rejects_non_exchangeable():
    mu = FinDist(["H", "T"], np.array([0.5, 0.5]))
    ordered = FinDist(tuple_space(["H", "T"], 2), np.array([0.0, 1.0, 0.0, 0.0]))
    seq = ClassicalExchSeq(["H", "T"], 2, (mu, ordered), 1e-9)
    with pytest.raises(NotExchangeable):
        hs_reconstruct(seq, coin_grid())


def test_coin_grid_with_biases_closer_than_the_distinctness_tolerance_is_refused():
    # A grid is an atom set: two biases within DISTINCT_TOL of each other are
    # refused by name, as reconstruct and --atoms refuse them.
    grid = coin_grid((0.0, 0.3, 0.3 + 1e-7, 1.0))
    with pytest.raises(ValueError, match="atoms 1 and 2 are not distinct"):
        hs_reconstruct(coin_sequence(depth=3), grid)
    with pytest.raises(ValueError, match="atoms 1 and 2 are not distinct"):
        classical_moment_rank(grid, 3)


def _heads_family(depth=4):
    """An even mixture of coins of bias 0.2 and 0.9 on H, on ``["H", "T"]``."""
    return synthesize_measures(coin_grid((0.2, 0.9)), [0.5, 0.5], depth)


def test_a_grid_on_reordered_labels_is_read_in_the_family_order():
    # FinDist(["T", "H"], [p, 1 - p]) puts bias p on T, so this grid does not
    # hold the family's components: the fit is the one of the grid written
    # out on ["H", "T"], not an exact one.
    seq = _heads_family()
    flipped = [FinDist(["T", "H"], [p, 1 - p]) for p in (0.2, 0.9)]
    reordered = [FinDist(["H", "T"], [1 - p, p]) for p in (0.2, 0.9)]
    w, residual = hs_reconstruct(seq, flipped)
    w_ref, residual_ref = hs_reconstruct(seq, reordered)
    assert np.array_equal(w, w_ref) and residual == residual_ref
    assert residual > 0.1
    assert np.allclose(w, [0.643, 0.357], atol=1e-3)
    # A grid that mixes label orders fits like its copy in one order.
    mixed = [FinDist(["H", "T"], [0.2, 0.8]), FinDist(["T", "H"], [0.1, 0.9])]
    ordered = [FinDist(["H", "T"], [0.2, 0.8]), FinDist(["H", "T"], [0.9, 0.1])]
    w, residual = hs_reconstruct(seq, mixed)
    w_ref, residual_ref = hs_reconstruct(seq, ordered)
    assert np.array_equal(w, w_ref) and residual == residual_ref < 1e-10
    # synthesize_measures reads its grid the same way.
    got = synthesize_measures(mixed, [0.5, 0.5], 4)
    want = synthesize_measures(ordered, [0.5, 0.5], 4)
    for a, b in zip(got.measures, want.measures, strict=True):
        assert np.array_equal(a.probs, b.probs)


def test_a_grid_on_other_labels_is_refused_by_name():
    seq = _heads_family()
    for grid in (
        [FinDist(["A", "B"], [0.2, 0.8])],
        [FinDist(["H", "T", "A"], [0.2, 0.3, 0.5])],
        [bernoulli(COIN_SPACE, 0.2), FinDist(["H", "H"], [0.2, 0.8])],
    ):
        message = f"labels {grid[-1].space} are not a reordering of ['H', 'T']"
        with pytest.raises(ValueError, match=re.escape(message)):
            hs_reconstruct(seq, grid)
        with pytest.raises(ValueError, match="not a reordering"):
            grid_atoms(grid, ["H", "T"])


def test_family_levels_are_read_in_tuple_order():
    # FinDist(["T", "H"], [0.2, 0.8]) puts 0.8 on H: the family is the coin
    # of bias 0.8 on H, whatever order its levels list their labels in.
    grid = [bernoulli(COIN_SPACE, 0.2), bernoulli(COIN_SPACE, 0.8)]
    flipped = ClassicalExchSeq(COIN_SPACE, 1, [FinDist(["T", "H"], [0.2, 0.8])])
    w, residual = hs_reconstruct(flipped, grid)
    assert np.array_equal(w, [0.0, 1.0]) and residual <= 1e-15
    seq = _heads_family(2)
    level2 = seq.level(2)
    order = [3, 1, 2, 0]
    shuffled = FinDist([level2.space[i] for i in order], level2.probs[order])
    again = ClassicalExchSeq(COIN_SPACE, 2, [seq.level(1), shuffled])
    assert again.level(2).space == tuple_space(COIN_SPACE, 2)
    assert np.array_equal(again.level(2).probs, level2.probs)
    other = FinDist([("H", "H"), ("H", "T"), ("T", "H"), ("T", "A")], level2.probs)
    for levels in ([FinDist(["A", "H"], [0.2, 0.8])], [seq.level(1), other]):
        with pytest.raises(ValueError, match="not a reordering of"):
            ClassicalExchSeq(COIN_SPACE, len(levels), levels)


def test_encode_space_and_dist():
    alg = encode_space(ABC)
    assert alg.blocks == (1, 1, 1)
    (s,) = grid_atoms([FinDist(ABC, np.array([0.2, 0.3, 0.5]))]).atoms
    assert [m[0, 0].real for m in s.dens] == pytest.approx([0.2, 0.3, 0.5])
    # A grid's atom set puts every atom on one base, each point a 1x1 block
    # holding its probability.
    grid = coin_grid((0.0, 0.3, 1.0))
    atoms = grid_atoms(grid)
    assert atoms.base == encode_space(COIN_SPACE)
    for g, atom in zip(grid, atoms.atoms, strict=True):
        assert all(np.array_equal(a, [[p]]) for a, p in zip(atom.dens, g.probs, strict=True))


def test_encoded_reconstruction_agrees_with_native():
    # The fit runs on the encoded tower; its residual is checked against the
    # raw probability vectors, on an exact mixture over the grid and on a
    # family that is no mixture over it.
    grid = coin_grid((0.0, 0.5, 1.0))
    for seq in [coin_sequence(depth=5), coin_sequence(depth=5, biases=(0.3, 0.7))]:
        w, residual = hs_reconstruct(seq, grid)
        assert abs(residual - raw_residual(seq, grid, w)) < 1e-8
    assert residual > 0.05


def test_bernoulli_helper():
    b = bernoulli(COIN_SPACE, 0.25)
    assert np.allclose(b.probs, [0.25, 0.75])
    with pytest.raises(ValueError):
        bernoulli(ABC, 0.5)  # needs a two-point space
