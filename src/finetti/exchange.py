"""Tensor powers, index actions, and exchangeable state sequences.

Levels of the tower over a base algebra hold states ``rho_n`` on the n-fold
tensor power.  Two index actions generate everything here:

* ``eta_sigma`` permutes tensor slots (slot ``i`` moves to ``sigma[i]``);
* ``eta_tau`` places an ``n``-slot element into ``m`` slots along an
  injection ``tau``, padding the unhit slots with units.

``iota_embed`` is ``eta_tau`` along the standard inclusion, i.e. padding on
the right, and ``restrict_state`` is its dual on states (partial trace over
the trailing slots).

Bases may be single-block (full matrix algebra) or commutative (all-ones
blocks); commutative levels are handled as probability/value vectors over
tuples in lexicographic order, which matches the kron convention used on the
quantum side.  One check on packed levels serves quantum towers, classical
measures and cone laws: per level, one stacked trace-norm call gives the
distance to the slot twirl (the average over S_n, the projection onto the
permutation invariants) and to the restriction of every level above.  The
twirl is the mean over the S_n orbits of the level's slot-index tuples,
read from the orbit tables of :mod:`finetti.symmetric`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import symmetric
from .cstar import Algebra, Element, StateVec, trace_norms

DEFAULT_SEQ_TOL = 1e-9


# --- tower structure --------------------------------------------------------

def _base_kind(base: Algebra) -> str:
    if base.n_blocks == 1 and base.blocks[0] > 1:
        return "quantum"
    if base.is_commutative and base.n_blocks > 1:
        return "classical"
    raise ValueError(
        f"base {base} is not supported: need a single matrix block of size >= 2 "
        "or a commutative algebra on >= 2 points"
    )


def power_algebra(base: Algebra, n: int) -> Algebra:
    """Algebra of the n-th tensor power of the base."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if n == 0:
        return Algebra((1,))
    if _base_kind(base) == "quantum":
        return Algebra((base.blocks[0] ** n,))
    return Algebra((1,) * (base.n_blocks ** n))


def level_of(base: Algebra, algebra: Algebra) -> int:
    """Recover the level of a tower algebra over the base."""
    if algebra == Algebra((1,)):
        return 0
    if _base_kind(base) == "quantum":
        d, size = base.blocks[0], algebra.blocks[0]
    else:
        d, size = base.n_blocks, algebra.n_blocks
    n, power = 0, 1
    while power < size:
        n, power = n + 1, power * d
    if power_algebra(base, n) != algebra:
        raise ValueError(f"{algebra} is not a tensor power of {base}")
    return n


def _pack(base: Algebra, x) -> np.ndarray:
    # Quantum levels pack to the full matrix; classical levels pack to the
    # vector of block values (every block is 1x1).
    mats = x.mats if isinstance(x, Element) else x.dens
    if _base_kind(base) == "quantum":
        return mats[0]
    return np.array([m[0, 0] for m in mats])


def _unpack(base: Algebra, n: int, arr: np.ndarray, kind: type):
    alg = power_algebra(base, n)
    if _base_kind(base) == "quantum":
        blocks = [arr]
    else:
        blocks = [np.array([[v]]) for v in arr]
    if kind is Element:
        return Element(alg, blocks)
    return StateVec(alg, blocks)


def _slot_count(base: Algebra) -> int:
    return base.blocks[0] if _base_kind(base) == "quantum" else base.n_blocks


# --- index actions ----------------------------------------------------------

def _permute_axes(d: int, arr: np.ndarray, sigma) -> np.ndarray:
    """Permute the slots of a packed level with ``d`` values per slot."""
    n, inv = len(sigma), np.argsort(sigma)
    if arr.ndim == 2:  # a matrix: row and column slot groups move together
        t = arr.reshape((d,) * (2 * n))
        t = t.transpose(tuple(inv) + tuple(n + j for j in inv))
        return t.reshape(d**n, d**n)
    t = arr.reshape((d,) * n)
    return t.transpose(tuple(inv)).reshape(d**n)


def _check_sigma(sigma, n: int) -> tuple[int, ...]:
    sigma = tuple(int(i) for i in sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"{sigma} is not a permutation of 0..{n - 1}")
    return sigma


def eta_sigma(x, base: Algebra, sigma):
    """Permute tensor slots: the factor in slot ``i`` moves to slot ``sigma[i]``."""
    n = level_of(base, x.algebra)
    sigma = _check_sigma(sigma, n)
    out = _permute_axes(_slot_count(base), _pack(base, x), sigma)
    return _unpack(base, n, out, type(x))


def iota_embed(a: Element, base: Algebra, m: int) -> Element:
    """Pad an element on the right with units up to level ``m``."""
    n = level_of(base, a.algebra)
    if m < n:
        raise ValueError(f"cannot embed level {n} into lower level {m}")
    if m == n:
        return a
    arr = _pack(base, a)
    d = _slot_count(base)
    if arr.ndim == 2:
        out = np.kron(arr, np.eye(d ** (m - n), dtype=complex))
    else:
        out = np.kron(arr, np.ones(d ** (m - n), dtype=complex))
    return _unpack(base, m, out, Element)


def restrict_state(s: StateVec, base: Algebra, n: int) -> StateVec:
    """Partial trace (marginalization) over the trailing slots down to level ``n``."""
    m = level_of(base, s.algebra)
    if n > m or n < 0:
        raise ValueError(f"cannot restrict level {m} to level {n}")
    if n == m:
        return s
    return _unpack(base, n, _restrict(_pack(base, s), _slot_count(base), n), StateVec)


def _restrict(arr: np.ndarray, d: int, n: int) -> np.ndarray:
    """Partial trace of a packed level over its trailing slots down to level ``n``."""
    keep = d**n
    if arr.ndim == 2:
        drop = arr.shape[0] // keep
        return np.einsum("abcb->ac", arr.reshape(keep, drop, keep, drop))
    return arr.reshape(keep, -1).sum(axis=1)


def _completion(tau, m: int) -> tuple[int, ...]:
    # Extend an injection on n slots to a permutation of m slots, sending the
    # padding slots to the unhit targets in increasing order.
    rest = [j for j in range(m) if j not in set(tau)]
    return tuple(tau) + tuple(rest)


def eta_tau(a: Element, base: Algebra, tau, m: int) -> Element:
    """Place slot ``i`` of ``a`` at slot ``tau[i]`` of level ``m``, units elsewhere.

    Reduces exactly to ``iota_embed`` when ``tau`` is the standard inclusion
    and to ``eta_sigma`` when ``tau`` is a bijection.
    """
    n = level_of(base, a.algebra)
    tau = tuple(int(i) for i in tau)
    if len(tau) != n or len(set(tau)) != n or any(j < 0 or j >= m for j in tau):
        raise ValueError(f"{tau} is not an injection of {n} slots into {m}")
    pi = _completion(tau, m)
    if pi == tuple(range(m)):
        return iota_embed(a, base, m)
    return eta_sigma(iota_embed(a, base, m), base, pi)


def pullback_state(s: StateVec, base: Algebra, tau, n: int) -> StateVec:
    """Dual of ``eta_tau`` on states: eval(pullback(s), a) = eval(s, eta_tau(a))."""
    inv = np.argsort(_completion(tau, level_of(base, s.algebra)))
    return restrict_state(eta_sigma(s, base, inv), base, n)


# --- the slot twirl ----------------------------------------------------------

def _twirl(arr: np.ndarray, d: int, n: int) -> np.ndarray:
    """The average of a packed level over all n! permutations of its slots.

    Every permutation of a slot-index tuple lies in its S_n orbit, and each
    orbit member is hit equally often, so the average is the mean of each
    entry's orbit (:func:`~finetti.symmetric.orbits`).  A slot of a matrix
    holds its row and its column index, so the matrix is read as n slot
    indices below ``d**2`` (a vector as n indices below ``d``).
    """
    if arr.ndim == 2:
        axes = symmetric._interleave(n)
        t, q = arr.reshape((d,) * (2 * n)).transpose(axes).ravel(), d * d
    else:
        t, q = arr, d
    orbit, sizes, _ = symmetric.orbits(q, n)
    means = np.bincount(orbit, weights=t.real) / sizes
    if np.iscomplexobj(t):
        means = means + 1j * (np.bincount(orbit, weights=t.imag) / sizes)
    out = means[orbit]
    if arr.ndim == 2:
        out = out.reshape((d,) * (2 * n)).transpose(np.argsort(axes))
    return out.reshape(arr.shape)


# --- exchangeable sequences --------------------------------------------------

@dataclass(frozen=True)
class ExchSeq:
    """States ``rho_1 .. rho_N`` on the tensor-power tower over ``base``.

    A tower is immutable (a new tolerance makes a new tower,
    ``dataclasses.replace``), and each level is held packed and read-only:
    level n is a ``d^n x d^n`` matrix on a single-block base, or a length
    ``b^n`` vector of block values on a commutative base on ``b`` points.
    :meth:`level` gives it back as a :class:`~finetti.cstar.StateVec`;
    :func:`make_exch_seq` builds a tower from StateVecs.
    """

    base: Algebra
    levels: tuple[np.ndarray, ...] = field(repr=False)
    tolerance: float = DEFAULT_SEQ_TOL

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("need at least one level")
        d = _slot_count(self.base)
        axes = 2 if _base_kind(self.base) == "quantum" else 1
        object.__setattr__(self, "levels", tuple(map(np.array, self.levels)))
        for n, lv in enumerate(self.levels, start=1):
            if lv.shape != (d**n,) * axes:
                raise ValueError(f"level {n} has shape {lv.shape}, expected {(d**n,) * axes}")
            lv.setflags(write=False)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> StateVec:
        if not 1 <= n <= self.depth:
            raise ValueError(f"level {n} outside 1..{self.depth}")
        return _unpack(self.base, n, self.levels[n - 1], StateVec)

    def truncate(self, depth: int) -> "ExchSeq":
        if not 1 <= depth <= self.depth:
            raise ValueError(f"cannot truncate depth {self.depth} to {depth}")
        return ExchSeq(self.base, self.levels[:depth], self.tolerance)


def make_exch_seq(base: Algebra, states, tolerance: float = DEFAULT_SEQ_TOL) -> ExchSeq:
    """The tower of the states ``rho_1 .. rho_N``, level n a StateVec on
    the n-th tensor power of ``base``."""
    levels = []
    for n, s in enumerate(states, start=1):
        expect = power_algebra(base, n)
        if s.algebra != expect:
            raise ValueError(f"level {n} lives on {s.algebra}, expected {expect}")
        levels.append(_pack(base, s))
    return ExchSeq(base, tuple(levels), tolerance)


def iid_extend(sigma: StateVec, depth: int, tolerance: float = DEFAULT_SEQ_TOL) -> ExchSeq:
    """The iid tower of a level-1 state: level n is the n-fold tensor power."""
    first = make_exch_seq(sigma.algebra, [sigma]).levels[0]
    levels = [first]
    for _ in range(depth - 1):
        levels.append(np.kron(levels[-1], first))
    return ExchSeq(sigma.algebra, tuple(levels[:depth]), tolerance)


@dataclass(frozen=True)
class LevelReport:
    level: int
    symmetry: float
    consistency: float
    worst_source: int | None

    @property
    def symmetry_bound(self) -> float:
        """Certified upper bound on ``max_{sigma in S_n} ||rho_n - sigma.rho_n||``.

        ``symmetry`` is ``||rho_n - T rho_n||`` with ``T`` the slot twirl.
        Every sigma fixes ``T rho_n`` and preserves the norm, so
        ``||rho_n - sigma.rho_n|| <= ||rho_n - T rho_n|| + ||T rho_n -
        sigma.rho_n|| = 2 symmetry``; and ``symmetry`` itself is at most the
        largest such gap, by convexity.  The bound is exact at n = 2, where
        ``rho - T rho = (rho - swap.rho) / 2``.  Two states are never further
        apart than 2.
        """
        return min(2.0, 2.0 * self.symmetry)


@dataclass(frozen=True)
class ExchangeReport:
    tolerance: float
    levels: tuple[LevelReport, ...]

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tolerance

    @property
    def max_violation(self) -> float:
        return max(max(lv.symmetry_bound, lv.consistency) for lv in self.levels)


def check_exchangeable(seq: ExchSeq) -> ExchangeReport:
    """Verify symmetry and marginal consistency of a sequence.

    Per level ``n`` the report carries the trace-norm distance
    ``||rho_n - T rho_n||`` to the slot twirl ``T`` (the average over S_n),
    its certified factor-2 bound on the gap of every permutation
    (:attr:`LevelReport.symmetry_bound`), and the largest consistency
    violation ``max_{m > n} ||rho_n - restrict(rho_m, n)||`` (with the
    witnessing source level).  The verdict compares the bound, not the
    twirl distance, with the tolerance.
    """
    return _check_levels(seq.levels, _slot_count(seq.base), seq.tolerance)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace norm of ``a - b`` for each pair of packed levels in two stacks
    (broadcast): l1 for packed vectors (diagonals)."""
    if a.ndim == 3:
        return trace_norms(a - b)
    return np.abs(a - b).sum(axis=1)


def _check_levels(levels, d: int, tolerance: float) -> ExchangeReport:
    """The exchangeability check on packed levels ``1..N`` with ``d`` values
    per slot: matrices for a single-block base, vectors for a commutative
    one.  Every exchangeability verdict in the package comes from here."""
    reports = []
    for n, rho in enumerate(levels, start=1):
        # Row 0 is the twirl (rho itself at level 1); row j >= 1 is the
        # restriction of level n + j.
        rows = [_twirl(rho, d, n)] + [_restrict(lv, d, n) for lv in levels[n:]]
        gaps = _distances(rho[None], np.stack(rows))
        j = 1 + int(np.argmax(gaps[1:])) if n < len(levels) else 0
        cons, worst_m = (float(gaps[j]), n + j) if j and gaps[j] > 0 else (0.0, None)
        reports.append(LevelReport(n, float(gaps[0]), cons, worst_m))
    return ExchangeReport(tolerance, tuple(reports))
