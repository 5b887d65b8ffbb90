"""Mixtures of iid towers and their recovery from exchangeable sequences.

The pieces:

* :class:`AtomSet` -- a finite dictionary of candidate level-1 states, with
  its moment design and, per depth, that design prepared for the solver;
* :func:`synthesize` -- turn a weighted atom set into the exchangeable
  sequence ``rho_n = sum_k w_k sigma_k^(x n)``;
* :func:`reconstruct` -- invert that: simplex-constrained least squares,
  level 1 (the barycenter) first and then the stacked level data with the
  barycenter held, returning the mixture and the attained residual;
* :class:`Cone` -- a parameterized family of channels ``Phi_n`` from an apex
  algebra into the tower, compatible with all injection actions, with its
  towers at the probe states of the apex derived once;
* :func:`mediating_map` -- factor a cone through an atom set by
  reconstructing at a spanning family of apex states and extending linearly.

A strictly positive reconstruction residual that persists as atom sets grow
is the finite-depth witness that a sequence is not a mixture of iid towers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from . import symmetric
from .cpmaps import SCHRODINGER, ChoiMap, apply, apply_dense
from .cstar import (
    Algebra,
    StateVec,
    dense_to_blocks,
    hermitian_basis,
    probability_vector,
    state_distance,
    state_to_dense,
)
from .exchange import (
    ExchSeq,
    ExchangeReport,
    check_exchangeable,
    power_algebra,
    _distances,
    _pack,
    _unpack,
)
from .solvers import EPS, LeadFit, lead_first_lstsq, realify, simplex_lstsq

DISTINCT_TOL = 1e-6
SYNTH_TOL = 1e-10
# Entries of one block of the distinctness screen's pairwise table.
SCREEN_ENTRIES = 1 << 19


class NotExchangeable(ValueError):
    """Input sequence failed the symmetry/consistency check."""

    def __init__(self, report: ExchangeReport):
        self.report = report
        super().__init__(
            f"sequence is not exchangeable: worst violation {report.max_violation:.3e} "
            f"exceeds tolerance {report.tolerance:.1e}"
        )


class ConeLawViolation(ValueError):
    """A cone failed compatibility with some injection action."""

    def __init__(self, report: "ConeReport"):
        self.report = report
        super().__init__(
            f"cone laws violated: worst bound {report.max_violation:.3e} "
            f"exceeds tolerance {report.tolerance:.1e}"
        )


class NotRepresentable(ValueError):
    """Reconstruction residual stayed above threshold at some probe state."""

    def __init__(self, probe_index: int, residual: float, threshold: float):
        self.probe_index = probe_index
        self.residual = residual
        self.threshold = threshold
        super().__init__(
            f"no mixture over the given atoms: probe {probe_index} leaves "
            f"residual {residual:.3e} > {threshold:.1e}"
        )


# --- atom sets and mixtures ---------------------------------------------------

def random_pure_state(d: int, rng: np.random.Generator) -> StateVec:
    """A pure state drawn from the unitarily invariant measure."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return StateVec(Algebra((d,)), [np.outer(v, v.conj())])


def random_mixed_state(d: int, rng: np.random.Generator) -> StateVec:
    """A density matrix from the Hilbert-Schmidt-induced measure."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return StateVec(Algebra((d,)), [rho / np.trace(rho).real])


@dataclass(frozen=True)
class AtomSet:
    """Pairwise-distinct candidate states on a common base algebra.

    An atom set owns its moment design (see :meth:`design`): levels are built
    for all atoms at once when first asked for, kept, and served to every
    later call, so the design of a dictionary is built once however many
    sequences are fitted over it.  So is the design prepared for the solver
    (:meth:`context`).  The atoms are a tuple, the instance is frozen and the
    stored arrays are read-only, so the store cannot go stale.
    """

    base: Algebra
    atoms: tuple[StateVec, ...] = field(repr=False)
    seed: int | None = None
    method: str = "explicit"
    # Symmetric design, atom-major, and the depth it reaches: row k holds,
    # level by level, the symmetric coordinates of sigma_k^(x n), so the
    # columns of every shallower depth are a prefix.
    _moments: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _depth: int = field(init=False, repr=False, compare=False, default=0)
    _ranks: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _contexts: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("need at least one atom")
        for s in self.atoms:
            if s.algebra != self.base:
                raise ValueError(f"atom on {s.algebra} does not live on base {self.base}")
        self._check_distinct()

    def _check_distinct(self) -> None:
        # Frobenius distance lower-bounds trace distance, so a Frobenius
        # screen settles almost every pair cheaply.  It comes from the real
        # Gram matrix, ||a - b||^2 = ||a||^2 + ||b||^2 - 2 Re<a, b>, one block
        # of rows at a time; pairs within round-off of the threshold go on to
        # the trace distance.
        vecs = np.stack([state_to_dense(s).ravel() for s in self.atoms])
        x = np.concatenate([vecs.real, vecs.imag], axis=1)
        sq = np.einsum("ij,ij->i", x, x)
        k, m = x.shape
        step = max(1, SCREEN_ENTRIES // k)
        for i0 in range(0, k, step):
            i1 = min(i0 + step, k)
            norms = sq[i0:i1, None] + sq[None, i0:]
            gap = norms - 2.0 * (x[i0:i1] @ x[i0:].T)
            # Pairs j > i only; the slack covers the round-off of the Gram form.
            close = np.triu(gap <= DISTINCT_TOL**2 + 4 * (m + 2) * EPS * norms, 1)
            for i, j in zip(*np.nonzero(close)):
                i, j = i0 + int(i), i0 + int(j)
                if state_distance(self.atoms[i], self.atoms[j]) <= DISTINCT_TOL:
                    raise ValueError(f"atoms {i} and {j} are not distinct")

    def __len__(self) -> int:
        return len(self.atoms)

    def _rows(self, depth: int) -> int:
        """Design rows of levels 1..depth: ``C(n+q-1, n)`` for each level n,
        with ``q`` the dimension of the base."""
        return comb(depth + self.base.dim, depth) - 1

    def design(self, depth: int) -> np.ndarray:
        """Moment design up to ``depth`` in symmetric coordinates, read-only:
        column k holds, for n = 1..depth, the coordinates of
        ``sigma_k^(x n)`` on the permutation-invariant subspace of level n
        (see :mod:`finetti.symmetric`), so the rows of level 1 come first.

        Levels are built once, for all atoms together, and kept: a deeper
        request extends the stored levels and a shallower one is a view of
        them.
        """
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if depth > self._depth:
            coords = symmetric.coordinates(
                self.base, np.stack([_pack(self.base, s) for s in self.atoms])
            )
            parts = [symmetric.iid_levels(coords, range(self._depth + 1, depth + 1))]
            if self._depth:
                parts.insert(0, self._moments)
            # C order: every column of the design view is contiguous, as the
            # solver's passive-column gathers want it.
            moments = np.ascontiguousarray(np.concatenate(parts, axis=1))
            moments.setflags(write=False)
            object.__setattr__(self, "_moments", moments)
            object.__setattr__(self, "_depth", depth)
            # A memoized context views the store it was built on: drop them,
            # so that the old store is freed.
            self._contexts.clear()
        return self._moments[:, : self._rows(depth)].T

    def rank(self, depth: int) -> int:
        """Numerical rank of the moment design up to ``depth``, memoized."""
        if depth not in self._ranks:
            self._ranks[depth] = int(np.linalg.matrix_rank(self.design(depth)))
        return self._ranks[depth]

    def context(self, depth: int) -> LeadFit:
        """The design up to ``depth`` prepared for the level-1-first solve
        (:class:`~finetti.solvers.LeadFit`, whose design is an atom-major
        view of the store), memoized until a deeper :meth:`design` replaces
        the store it views."""
        if depth not in self._contexts:
            self._contexts[depth] = LeadFit.build(self.design(depth), slice(0, self.base.dim))
        return self._contexts[depth]


def explicit_atoms(states) -> AtomSet:
    states = list(states)
    return AtomSet(states[0].algebra, states, method="explicit")


def default_atoms(d: int, count: int, seed: int) -> AtomSet:
    """Seeded default dictionary: 70% pure (unitarily invariant) and 30%
    mixed (Hilbert-Schmidt) states, in that order."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    n_pure = int(round(0.7 * count))
    atoms = [random_pure_state(d, rng) for _ in range(n_pure)]
    atoms += [random_mixed_state(d, rng) for _ in range(count - n_pure)]
    return AtomSet(Algebra((d,)), atoms, seed=seed, method="default-70-30")


@dataclass
class Mixture:
    """A weight vector over an atom set (a finitely supported measure)."""

    atomset: AtomSet
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = probability_vector(self.weights, len(self.atomset))

    def barycenter(self) -> StateVec:
        """Level-1 state of the mixture, ``sum_k w_k sigma_k``."""
        base = self.atomset.base
        acc = sum(
            w * _pack(base, s) for w, s in zip(self.weights, self.atomset.atoms)
        )
        return _unpack(base, 1, acc, StateVec)


def synthesize(mix: Mixture, depth: int, tolerance: float = SYNTH_TOL) -> ExchSeq:
    """The exchangeable sequence of a mixture: ``rho_n = sum_k w_k sigma_k^(x n)``."""
    base = mix.atomset.base
    levels = symmetric.unproject(base, depth, (mix.atomset.design(depth) @ mix.weights)[None])
    return ExchSeq(base, tuple(level[0] for level in levels), tolerance)


# --- moment systems -----------------------------------------------------------

def moment_matrix(atoms: AtomSet, depth: int) -> np.ndarray:
    """Complex design matrix, read-only: column k stacks ``vec(sigma_k^(x n))``
    for n <= depth.  Expanded on demand from the atom set's symmetric design;
    no reconstruction needs it."""
    levels = symmetric.unproject(atoms.base, depth, atoms.design(depth).T)
    out = np.concatenate([lv.reshape(len(atoms), -1) for lv in levels], axis=1).T
    out.setflags(write=False)
    return out


def sequence_vector(seq: ExchSeq, depth: int | None = None) -> np.ndarray:
    if depth is not None:
        seq = seq.truncate(depth)
    return np.concatenate([lv.ravel() for lv in seq.levels])


def moment_rank(atoms: AtomSet, depth: int) -> int:
    """Numerical rank of the stacked moment columns (memoized on ``atoms``)."""
    return atoms.rank(depth)


def moment_independent(atoms: AtomSet, depth: int) -> bool:
    return moment_rank(atoms, depth) == len(atoms)


def reconstruct(
    seq: ExchSeq,
    atoms: AtomSet,
    *,
    depth: int | None = None,
    check: bool = True,
) -> tuple[Mixture, float]:
    """Best mixture of iid towers over ``atoms`` matching the sequence.

    Level 1 comes first, since the level-1 state of a mixture is its
    barycenter ``sum_k w_k sigma_k``.  Stage 1 minimizes
    ``||rho_1 - sum_k w_k sigma_k||_F`` over the probability simplex.  Stage
    2 minimizes ``sum_n ||rho_n - sum_k w_k sigma_k^(x n)||_F^2`` over the
    simplex with the barycenter held exactly at the stage-1 one.  So the
    barycenter equals ``rho_1`` whenever ``rho_1`` lies in the hull of the
    atoms, and is its projection onto that hull when it does not.  See
    :func:`~finetti.solvers.lead_first_lstsq`.  The input is rejected with
    :class:`NotExchangeable` unless it passes
    :func:`~finetti.exchange.check_exchangeable` at the sequence tolerance;
    pass ``check=False`` to skip that gate.  The design comes from the atom
    set's store (:meth:`AtomSet.design`), in symmetric coordinates: every
    atom column lies in the permutation-invariant subspace, so the fit runs
    on the sequence's projection there, at the same optimum.

    Returns the mixture and the residual ``sqrt(sum_n ||...||_F^2)`` over all
    levels at that mixture: the residual of the fit, with the part of the
    sequence off the symmetric subspace added back.  The residual is the
    non-representability witness: it stays above a strictly positive bound
    for sequences that are not mixtures.
    """
    if seq.base != atoms.base:
        raise ValueError(f"sequence base {seq.base} != atom base {atoms.base}")
    if depth is not None:
        seq = seq.truncate(depth)
    if check:
        report = check_exchangeable(seq)
        if not report.ok:
            raise NotExchangeable(report)
    target, off = symmetric.project(seq.base, seq.levels)
    w, residual = lead_first_lstsq(atoms.context(seq.depth), target)
    return Mixture(atoms, w), float(np.hypot(residual, off))


# --- cones and mediating maps -------------------------------------------------

class ConeProbes(NamedTuple):
    """What every check and fit of a cone reads at the probe states of its
    apex, read-only (see :meth:`Cone.probes`): the probe family and its basis
    (:func:`probe_states`), and the tower the cone induces at each probe
    (:meth:`Cone.sequence`)."""

    states: tuple[StateVec, ...]
    basis: np.ndarray
    towers: tuple[ExchSeq, ...]


@dataclass(frozen=True)
class Cone:
    """Channels ``Phi_n`` from an apex algebra into the tower, one per level.

    A cone is immutable: the channels are a tuple (a list is accepted) and
    the instance is frozen, so a new tolerance makes a new cone
    (``dataclasses.replace``).  What its checks and fits read at the probe
    states -- the towers (:meth:`probes`), the law report (:meth:`report`)
    and the towers' symmetric coordinates (:meth:`targets`) -- is derived
    when first asked for, kept read-only and served to every later call.
    Constructing a cone derives none of it.
    """

    apex: Algebra
    depth: int
    channels: tuple[ChoiMap, ...] = field(repr=False)
    tolerance: float = 1e-9
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.depth != len(self.channels):
            raise ValueError(f"depth {self.depth} != {len(self.channels)} channels")
        if self.depth < 1:
            raise ValueError("need at least one level")
        base = self.channels[0].target
        for n, ch in enumerate(self.channels, start=1):
            if ch.direction != SCHRODINGER:
                raise ValueError("cone channels must be Schrodinger maps")
            if ch.source != self.apex:
                raise ValueError(f"channel {n} has source {ch.source}, apex is {self.apex}")
            if ch.target != power_algebra(base, n):
                raise ValueError(
                    f"channel {n} has target {ch.target}, expected {power_algebra(base, n)}"
                )

    @property
    def base(self) -> Algebra:
        return self.channels[0].target

    def at(self, kappa: StateVec, n: int) -> StateVec:
        return apply(self.channels[n - 1], kappa)

    def sequence(self, kappa: StateVec) -> ExchSeq:
        """The tower of the channels' outputs at ``kappa``, packed straight
        from the outputs' rep-space matrices."""
        if kappa.algebra != self.apex:
            raise ValueError(f"state lives on {kappa.algebra}, apex is {self.apex}")
        dense = state_to_dense(kappa)
        levels = [apply_dense(ch, dense) for ch in self.channels]
        if self.base.is_commutative:  # the block values sit on the diagonal
            levels = [lv.diagonal() for lv in levels]
        return ExchSeq(self.base, tuple(levels), self.tolerance)

    def probes(self) -> ConeProbes:
        """The probe family of the apex and the cone's tower at each probe,
        memoized."""
        if "probes" not in self._memo:
            states, basis = probe_states(self.apex)
            basis.setflags(write=False)
            towers = tuple(self.sequence(kappa) for kappa in states)
            self._memo["probes"] = ConeProbes(tuple(states), basis, towers)
        return self._memo["probes"]

    def report(self) -> "ConeReport":
        """The cone-law report of :func:`check_cone`, memoized."""
        if "report" not in self._memo:
            reports = tuple(check_exchangeable(tower) for tower in self.probes().towers)
            self._memo["report"] = ConeReport(self.tolerance, reports)
        return self._memo["report"]

    def targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric coordinates of the probe towers, one row per probe, and
        the norm of each tower's part off the symmetric subspace
        (:func:`~finetti.symmetric.project`), memoized."""
        if "targets" not in self._memo:
            rows, offs = zip(
                *(symmetric.project(self.base, tower.levels) for tower in self.probes().towers)
            )
            rows, offs = np.stack(rows), np.array(offs)
            rows.setflags(write=False)
            offs.setflags(write=False)
            self._memo["targets"] = (rows, offs)
        return self._memo["targets"]


def probe_states(algebra: Algebra) -> tuple[list[StateVec], np.ndarray]:
    """A spanning family of states built from the Hermitian matrix-unit basis.

    Each basis observable ``H`` of :func:`~finetti.cstar.hermitian_basis`
    (diagonal unit, or symmetrized off-diagonal pair scaled by 1/sqrt(2)) is
    mixed with the unit to land inside the state space:
    ``s = (H + 1) / (tr H + rep_dim)``.  Returns the states and the
    matrix whose columns are their dense vectorizations (full column rank).
    """
    rep = algebra.rep_dim
    eye = np.eye(rep, dtype=complex)
    states, cols = [], []
    for h in hermitian_basis(algebra):
        dense = (h + eye) / (np.trace(h).real + rep)
        states.append(StateVec(algebra, dense_to_blocks(algebra, dense)))
        cols.append(dense.ravel())
    basis = np.stack(cols, axis=1)
    if np.linalg.matrix_rank(realify(basis)) != len(states):
        raise RuntimeError("probe family unexpectedly rank-deficient")
    return states, basis


@dataclass(frozen=True)
class ConeReport:
    """One exchangeability report per probe state of the apex, each on the
    sequence the cone induces there (:meth:`Cone.sequence`)."""

    tolerance: float
    probes: tuple[ExchangeReport, ...]

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tolerance

    @property
    def max_violation(self) -> float:
        """Bound on the gap of every injection law at every probe: a pullback
        along ``tau: n -> m`` permutes level m, then restricts it to level n,
        and the partial trace is contractive in trace norm.  So the
        permutation bound (twice the twirl distance, see
        :attr:`~finetti.exchange.LevelReport.symmetry_bound`) plus the
        consistency gap bounds it."""
        worst = 0.0
        for report in self.probes:
            sym = max(lv.symmetry_bound for lv in report.levels)
            cons = max(lv.consistency for lv in report.levels)
            worst = max(worst, min(2.0, sym + cons))
        return worst


def check_cone(cone: Cone) -> ConeReport:
    """Verify ``pullback along eta_tau of Phi_m = Phi_n`` for all injections.

    Every injection is a permutation followed by the standard inclusion, so
    the laws hold at an apex state exactly when its sequence is
    exchangeable: :func:`~finetti.exchange.check_exchangeable` (one twirl
    distance per level) runs on the cone's tower at each probe state, and
    the verdict uses :attr:`ConeReport.max_violation`.  The report is the
    cone's own (:meth:`Cone.report`), built once.
    By linearity an exact zero at the probes holds at every apex state; a
    probe gap ``g`` allows a gap up to ``sum_b |c_b| g`` at ``kappa``, where
    ``c`` is :meth:`MediatingMap.expansion` of ``kappa``.
    """
    return cone.report()


@dataclass
class MediatingMap:
    """Linear factorization of a cone through mixtures over an atom set.

    ``weights[b]`` is the reconstructed weight vector at probe state ``b``;
    arbitrary apex states are handled by expanding them over the probe family
    and extending linearly: exact at every state when exact at the probes,
    else off by up to ``sum_b |c_b|`` times the probe error, ``c`` the
    :meth:`expansion` of the state.
    """

    apex: Algebra
    atomset: AtomSet
    probes: list[StateVec] = field(repr=False)
    probe_basis: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)

    def expansion(self, kappa: StateVec) -> np.ndarray:
        if kappa.algebra != self.apex:
            raise ValueError(f"state on {kappa.algebra}, apex is {self.apex}")
        target = realify(state_to_dense(kappa).ravel())
        coeff, *_ = np.linalg.lstsq(realify(self.probe_basis), target, rcond=None)
        recon = self.probe_basis @ coeff
        if np.abs(recon - state_to_dense(kappa).ravel()).max() > 1e-9:
            raise ValueError("state outside the probe span")
        return coeff

    def weights_for(self, kappa: StateVec) -> np.ndarray:
        """Linear extension of the probe weights (may carry tiny negatives)."""
        return self.weights.T @ self.expansion(kappa)

    def mixture_for(self, kappa: StateVec, clip_tol: float = 1e-8) -> Mixture:
        w = self.weights_for(kappa)
        if w.min() < -clip_tol or abs(w.sum() - 1.0) > clip_tol:
            raise ValueError(
                f"extension left the simplex (min {w.min():.3e}, sum {w.sum():.6f})"
            )
        w = np.clip(w, 0.0, None)
        return Mixture(self.atomset, w / w.sum())


def mediating_map(
    cone: Cone,
    atoms: AtomSet,
    *,
    max_residual: float = 1e-6,
) -> MediatingMap:
    """Factor a cone through an atom set.

    Checks the cone laws first (raising :class:`ConeLawViolation`), then
    reconstructs the induced sequence at each probe state as
    :func:`reconstruct` does, all probes in one stacked solve on the cone's
    targets (:meth:`Cone.targets`); a residual
    above ``max_residual`` raises :class:`NotRepresentable` for the first
    such probe.
    """
    report = check_cone(cone)
    if not report.ok:
        raise ConeLawViolation(report)
    if cone.base != atoms.base:
        raise ValueError(f"cone base {cone.base} != atom base {atoms.base}")
    probes = cone.probes()
    # Cone laws already certify exchangeability of the probe sequences.
    targets, offs = cone.targets()
    weights, fits = lead_first_lstsq(atoms.context(cone.depth), targets)
    residuals = np.hypot(fits, offs)
    for idx, res in enumerate(residuals):
        if res > max_residual:
            raise NotRepresentable(idx, float(res), max_residual)
    return MediatingMap(cone.apex, atoms, list(probes.states), probes.basis, weights, residuals)


def factorization_error(cone: Cone, med: MediatingMap) -> float:
    """Largest trace-norm gap ``||Phi_n(kappa) - sum_k w_k sigma_k^(x n)||``
    over the probe states and all levels.  The mixture towers of all probes
    come from one :func:`~finetti.symmetric.unproject` call, and each level's
    gaps from one stacked norm over the probes."""
    if med.apex != cone.apex:
        raise ValueError(f"mediating map on apex {med.apex}, cone apex is {cone.apex}")
    design = med.atomset.design(cone.depth)
    synth = symmetric.unproject(med.atomset.base, cone.depth, med.weights @ design.T)
    towers = cone.probes().towers
    worst = 0.0
    for n, want in enumerate(synth):
        got = np.stack([tower.levels[n] for tower in towers])
        worst = max(worst, float(_distances(got, want).max()))
    return worst


class Certificate(NamedTuple):
    """Whether a simplex point is the only one with its moment image (see
    :func:`certify`): the verdict, the margin ``delta_lo`` and, when it is
    not certified, a direction ``d`` with ``[1; A] d = 0`` up to round-off
    and ``d >= 0`` off the support (``None`` when it is)."""

    unique: bool
    margin: float
    direction: np.ndarray | None


def certificate_tolerances(a: np.ndarray) -> tuple[float, float]:
    """The rank and margin thresholds of :func:`certify` over the design
    ``a`` (``m x k``), scaled by the largest column norm of ``[1; A]``.

    A singular value of ``[1; A]_S`` at or below the rank threshold,
    ``eps * max(m + 1, k)`` times that norm (the cut-off of
    :func:`numpy.linalg.matrix_rank`), counts as zero.  A margin must exceed
    ``sqrt(eps)`` times that norm to certify: well above the round-off of
    the projected off-support columns, which a margin of 0 reads as.
    """
    norm = float(np.sqrt(1.0 + np.einsum("ij,ij->j", a, a).max()))
    return float(EPS * max(a.shape[0] + 1, a.shape[1]) * norm), float(np.sqrt(EPS)) * norm


def certify(a: np.ndarray, w: np.ndarray) -> Certificate:
    """Prove or refute that the simplex point ``w`` is the only one with the
    image ``a @ w``.

    With ``Ã = [1; A]``, the simplex points of that image are the ``w' >= 0``
    with ``Ã w' = Ã w``.  Let ``S`` be the support of ``w`` and ``P_S`` the
    projector onto the range of ``Ã_S``.  Then ``w`` is the only one iff
    ``Ã_S`` has full column rank and ``delta = min ||(I - P_S) Ã_off d||``
    over the simplex points ``d`` off ``S`` is positive: the nonnegative
    analogue of the uniqueness condition of Bruckstein, Elad & Zibulevsky
    (IEEE Trans. Inf. Theory 54, 2008).  ``delta`` is one
    :func:`~finetti.solvers.simplex_lstsq` solve, and the Frank-Wolfe gap of
    ``f(d) = ||M d||^2`` at its point (Jaggi, ICML 2013) bounds it from
    below: ``delta^2 >= 2 min_k (M^T M d)_k - ||M d||^2``.  That bound is the
    margin; it holds at any simplex point, so it does not rest on the solve
    reaching its optimum.

    ``w`` is certified when the rank test and ``margin > tau`` pass, at the
    thresholds of :func:`certificate_tolerances`.  The margin is ``inf``
    when ``S`` covers every atom (no solve runs) and 0 when the rank test
    fails.  It is a stability bound too: every simplex point ``w'`` puts at
    most ``||A (w' - w)|| / margin`` of its mass off ``S``.
    """
    rank_tol, margin_tol = certificate_tolerances(a)
    aug = np.vstack([np.ones((1, a.shape[1])), a])
    on = w > 0
    # The full SVD: with more support atoms than rows, vt[-1] still spans
    # a null direction.
    u, s, vt = np.linalg.svd(aug[:, on])
    rank = int(np.count_nonzero(s > rank_tol))
    if rank < len(vt):
        direction = np.zeros(len(w))
        direction[on] = vt[-1]
        return Certificate(False, 0.0, direction)
    off = aug[:, ~on]
    if not off.shape[1]:
        return Certificate(True, float("inf"), None)
    u = u[:, :rank]
    coef = u.T @ off
    m = off - u @ coef
    d, _ = simplex_lstsq(m, np.zeros(len(m)))
    md = m @ d
    margin = float(np.sqrt(max(0.0, 2.0 * (m.T @ md).min() - md @ md)))
    if margin > margin_tol:
        return Certificate(True, margin, None)
    direction = np.zeros(len(w))
    direction[~on] = d
    direction[on] = -vt.T @ ((coef @ d) / s)
    return Certificate(False, margin, direction)


@dataclass
class UniquenessReport:
    """How :func:`uniqueness_check` settled the mediating map's uniqueness.

    ``unique`` is the certificate's verdict over every probe state,
    ``margin`` the least margin (``inf`` when every probe's support covers
    every atom), ``support`` the support size of each probe's weights, and
    ``rank_tol`` and ``margin_tol`` the thresholds of
    :func:`certificate_tolerances`.  ``restarts`` counts the restarts run:
    ``trials`` at each probe the certificate left open, and the two spreads
    are taken over those probes (0.0 when there are none).
    """

    n_atoms: int
    moment_rank: int
    independent: bool
    trials: int
    seed: int
    max_weight_spread: float
    max_moment_spread: float
    unique: bool
    margin: float
    support: tuple[int, ...]
    restarts: int
    rank_tol: float
    margin_tol: float


def uniqueness_check(
    cone: Cone,
    atoms: AtomSet,
    trials: int = 10,
    seed: int = 0,
) -> UniquenessReport:
    """Certify that the mediating map of ``cone`` over ``atoms`` is unique,
    and restart the fit at every probe state the certificate cannot settle.

    The probes are fitted as :func:`mediating_map` fits them, and each
    distinct weight vector (bit for bit) goes through :func:`certify` once,
    against the design of the final stage: that stage's fitted image is
    unique, so its optimal weights are the simplex points with that image.
    Uniqueness at the probes, which span the apex, makes the linear
    mediating map unique.

    A probe the certificate leaves open gets ``trials`` restarts seeded by
    ``seed`` (:func:`restart_spreads`), and the report carries their
    spreads.  Raises ``ValueError`` when ``trials`` is below 2, which leaves
    no pair of restarts to compare, and when the cone's base is not the
    atoms' base, as :func:`mediating_map` does.
    """
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    if cone.base != atoms.base:
        raise ValueError(f"cone base {cone.base} != atom base {atoms.base}")
    rank = moment_rank(atoms, cone.depth)
    targets, _ = cone.targets()
    fit = atoms.context(cone.depth)
    a = fit.second.a
    weights, _ = lead_first_lstsq(fit, targets)
    certs: dict[bytes, Certificate] = {}
    for w in weights:
        if w.tobytes() not in certs:
            certs[w.tobytes()] = certify(a, w)
    settled = np.array([certs[w.tobytes()].unique for w in weights])
    open_probes = targets[~settled]
    spreads = restart_spreads(atoms, cone.depth, open_probes, trials, seed)
    k = len(atoms)
    rank_tol, margin_tol = certificate_tolerances(a)
    return UniquenessReport(
        k,
        rank,
        rank == k,
        trials,
        seed,
        *spreads,
        unique=bool(settled.all()),
        margin=min(c.margin for c in certs.values()),
        support=tuple(int(n) for n in np.count_nonzero(weights, axis=1)),
        restarts=len(open_probes) * trials,
        rank_tol=rank_tol,
        margin_tol=margin_tol,
    )


def restart_spreads(
    atoms: AtomSet, depth: int, targets: np.ndarray, trials: int, seed: int
) -> tuple[float, float]:
    """Re-solve the fit of :func:`reconstruct` at each row of ``targets``
    (symmetric coordinates up to ``depth``, as :meth:`Cone.targets` gives
    them) from ``trials`` random restarts, seeded by ``seed``, and return the
    largest weight spread and the largest moment spread (0.0 for no rows).

    A restart seeds stage 1 with a random point of a random q-face of the
    simplex: Dirichlet(1) weights on ``min(q, k)`` atoms drawn at random, q
    the dimension of the base.  Stage 1 fits only the q level-1 rows, so its
    optimum needs at most q atoms; a start on more than q atoms spends one
    blocked step per extra atom dropping it, which says nothing about the
    optimal face.  The random face keeps the starts spread over the whole
    dictionary.  The starts are drawn row by row, restart by restart, and
    the rows x trials restarts run as one stacked solve of
    :func:`~finetti.solvers.lead_first_lstsq`.

    With a unique optimum every restart must land on the same weight
    vector; with several, the weight spread shows them, while only the
    moment image is expected to agree.  The moment spread is the largest
    entry of the gap between the synthesized levels of two restarts at one
    row: each restart's levels are synthesized once, then compared pair by
    pair.  ``trials`` must be at least 2.
    """
    n_rows, k = len(targets), len(atoms)
    if not n_rows:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    face = min(atoms.base.dim, k)
    starts = np.zeros((n_rows * trials, k))
    for start in starts:
        start[rng.choice(k, face, replace=False)] = rng.dirichlet(np.ones(face))
    b = np.repeat(targets, trials, axis=0)
    sols, _ = lead_first_lstsq(atoms.context(depth), b, start=starts)
    levels = symmetric.unproject(atoms.base, depth, sols @ atoms.design(depth).T)
    i, j = np.triu_indices(trials, 1)

    def spread(rows: np.ndarray) -> float:
        rows = rows.reshape(n_rows, trials, -1)
        return float(np.abs(rows[:, i] - rows[:, j]).max())

    return spread(sols), max(spread(lv) for lv in levels)
