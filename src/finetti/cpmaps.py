"""Linear maps between block algebras in Choi form.

A map ``f`` from algebra ``S`` to algebra ``T`` is stored as the Choi matrix

    J = sum_ij E_ij (x) f(E_ij)

over the block-diagonal representation spaces, so ``J`` is square of side
``S.rep_dim * T.rep_dim``.  Complete positivity is positivity of ``J``.

The ``direction`` flag records which picture the map lives in:
``"H"`` (Heisenberg) maps observables (:class:`Element`), ``"S"``
(Schrodinger) maps densities (:class:`StateVec`).  Both use the same Choi
action; ``dualize`` swaps the pictures and transposes the pairing, so that

    eval_state(apply(dualize(f), s), a) == eval_state(s, apply(f, a)).

Maps are assumed block-diagonal (no cross-block matrix units are fed to the
constructors); applying a map cuts the output back to the target blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cstar import (
    PSD_TOL,
    Algebra,
    Element,
    StateVec,
    blocks_to_dense,
    dense_to_blocks,
    element_to_dense,
    state_to_dense,
)

HEISENBERG = "H"
SCHRODINGER = "S"

# Entrywise tolerance for comparing maps numerically.
MAP_TOL = 1e-9


@dataclass(frozen=True)
class ChoiMap:
    """A linear map between two block algebras, in Choi form; immutable, its
    Choi matrix read-only."""

    source: Algebra
    target: Algebra
    direction: str
    choi: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.direction not in (HEISENBERG, SCHRODINGER):
            raise ValueError(f"direction must be 'H' or 'S', got {self.direction!r}")
        side = self.source.rep_dim * self.target.rep_dim
        choi = np.array(self.choi, dtype=complex)
        if choi.shape != (side, side):
            raise ValueError(f"Choi matrix shape {choi.shape} does not match ({side}, {side})")
        choi.setflags(write=False)
        object.__setattr__(self, "choi", choi)

    def _choi4(self) -> np.ndarray:
        ds, dt = self.source.rep_dim, self.target.rep_dim
        return self.choi.reshape(ds, dt, ds, dt)


def choi_from_function(source: Algebra, target: Algebra, fn, direction: str) -> ChoiMap:
    """Build the Choi matrix by applying ``fn`` to every rep-space matrix unit.

    ``fn`` takes and returns dense rep-space matrices.  Off-block inputs are
    fed as-is; describe block-diagonal maps by returning 0 on them (any
    callable defined via block data does this automatically).
    """
    ds, dt = source.rep_dim, target.rep_dim
    j4 = np.zeros((ds, dt, ds, dt), dtype=complex)
    unit = np.zeros((ds, ds), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            unit[i, j] = 1.0
            j4[i, :, j, :] = np.asarray(fn(unit), dtype=complex)
            unit[i, j] = 0.0
    return ChoiMap(source, target, direction, j4.reshape(ds * dt, ds * dt))


def identity_map(algebra: Algebra, direction: str = SCHRODINGER) -> ChoiMap:
    return choi_from_function(algebra, algebra, lambda x: x, direction)


def depolarizing_map(d: int, direction: str = SCHRODINGER) -> ChoiMap:
    """x -> Tr(x) I/d on a full matrix block (self-dual, unital, CP)."""
    alg = Algebra((d,))
    eye = np.eye(d, dtype=complex) / d
    return choi_from_function(alg, alg, lambda x: np.trace(x) * eye, direction)


def dephasing_map(d: int, direction: str = SCHRODINGER) -> ChoiMap:
    """Measure in the standard basis: x -> diag(x)."""
    alg = Algebra((d,))
    return choi_from_function(alg, alg, lambda x: np.diag(np.diag(x)), direction)


def apply(f: ChoiMap, x):
    """Apply a map: Elements through Heisenberg maps, StateVecs through Schrodinger.

    The output is cut back to the target's diagonal blocks (the maps handled
    here are block-diagonal, so nothing is lost).
    """
    if f.direction == HEISENBERG:
        if not isinstance(x, Element):
            raise TypeError("Heisenberg maps act on Elements")
        if x.algebra != f.source:
            raise ValueError(f"element lives on {x.algebra}, map expects {f.source}")
        dense = element_to_dense(x)
    else:
        if not isinstance(x, StateVec):
            raise TypeError("Schrodinger maps act on StateVecs")
        if x.algebra != f.source:
            raise ValueError(f"state lives on {x.algebra}, map expects {f.source}")
        dense = state_to_dense(x)
    blocks = dense_to_blocks(f.target, apply_dense(f, dense))
    if f.direction == HEISENBERG:
        return Element(f.target, blocks)
    return StateVec(f.target, blocks)


def apply_dense(f: ChoiMap, dense: np.ndarray) -> np.ndarray:
    """The map's Choi action on a rep-space matrix of its source, as a
    rep-space matrix of its target (no block cut, no type check)."""
    return np.einsum("ij,ikjl->kl", dense, f._choi4())


def is_completely_positive(f: ChoiMap, tol: float = PSD_TOL) -> bool:
    """Choi positivity test (symmetrizing before the eigensolve)."""
    j = f.choi
    h = (j + j.conj().T) / 2.0
    if np.abs(j - h).max() > tol:
        return False
    return float(np.linalg.eigvalsh(h).min()) >= -tol


def is_unital(f: ChoiMap, tol: float = MAP_TOL) -> bool:
    """True iff a Heisenberg map sends the source unit to the target unit."""
    if f.direction != HEISENBERG:
        raise ValueError("unitality is a Heisenberg-picture predicate")
    out = apply(f, f.source.unit())
    unit = f.target.unit()
    gap = max(np.abs(a - b).max() for a, b in zip(out.mats, unit.mats))
    return gap <= tol


def is_trace_preserving(f: ChoiMap, tol: float = MAP_TOL) -> bool:
    """True iff a Schrodinger map has partial trace of Choi equal to the source unit."""
    if f.direction != SCHRODINGER:
        raise ValueError("trace preservation is a Schrodinger-picture predicate")
    ds, dt = f.source.rep_dim, f.target.rep_dim
    # Tr_target J = sum_k J4[:, k, :, k]
    marginal = np.einsum("ikjk->ij", f._choi4())
    return bool(np.abs(marginal - np.eye(ds)).max() <= tol)


def _superop(f: ChoiMap) -> np.ndarray:
    # Row-major vec convention: vec(f(X)) = M vec(X), M[(k,l),(i,j)] = J4[i,k,j,l].
    ds, dt = f.source.rep_dim, f.target.rep_dim
    return f._choi4().transpose(1, 3, 0, 2).reshape(dt * dt, ds * ds)


def _choi_from_superop(source: Algebra, target: Algebra, m: np.ndarray, direction: str) -> ChoiMap:
    ds, dt = source.rep_dim, target.rep_dim
    j4 = m.reshape(dt, dt, ds, ds).transpose(2, 0, 3, 1)
    return ChoiMap(source, target, direction, j4.reshape(ds * dt, ds * dt))


def compose(f: ChoiMap, g: ChoiMap) -> ChoiMap:
    """Run ``f`` first, then ``g`` (so ``compose(identity, f) == f``)."""
    if f.direction != g.direction:
        raise ValueError("can only compose maps in the same picture")
    if f.target != g.source:
        raise ValueError(f"cannot chain {f.target} into {g.source}")
    m = _superop(g) @ _superop(f)
    return _choi_from_superop(f.source, g.target, m, f.direction)


def tensor(f: ChoiMap, g: ChoiMap) -> ChoiMap:
    """Tensor product of maps.

    Supported when the kron ordering of the representation spaces agrees with
    the block ordering of the tensor algebra: both factors single-block, or
    both commutative.
    """
    if f.direction != g.direction:
        raise ValueError("can only tensor maps in the same picture")

    def _tensor_alg(a: Algebra, b: Algebra) -> Algebra:
        if a.n_blocks == 1 and b.n_blocks == 1:
            return Algebra((a.blocks[0] * b.blocks[0],))
        if a.is_commutative and b.is_commutative:
            return Algebra((1,) * (a.n_blocks * b.n_blocks))
        raise NotImplementedError(
            "tensor products mixing multi-block quantum algebras are not supported"
        )

    source = _tensor_alg(f.source, g.source)
    target = _tensor_alg(f.target, g.target)
    s1, t1 = f.source.rep_dim, f.target.rep_dim
    s2, t2 = g.source.rep_dim, g.target.rep_dim
    big = np.kron(f.choi, g.choi)
    # kron index order (i1 k1 i2 k2 | j1 l1 j2 l2) -> (i1 i2 k1 k2 | j1 j2 l1 l2)
    big = big.reshape(s1, t1, s2, t2, s1, t1, s2, t2)
    big = big.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    side = s1 * s2 * t1 * t2
    return ChoiMap(source, target, f.direction, big.reshape(side, side))


def dualize(f: ChoiMap) -> ChoiMap:
    """Adjoint for the bilinear trace pairing; swaps picture and endpoints."""
    j4 = f._choi4().transpose(3, 2, 1, 0)
    ds, dt = f.source.rep_dim, f.target.rep_dim
    direction = SCHRODINGER if f.direction == HEISENBERG else HEISENBERG
    return ChoiMap(f.target, f.source, direction, j4.reshape(dt * ds, dt * ds))


def maps_close(f: ChoiMap, g: ChoiMap, tol: float = MAP_TOL) -> bool:
    """Entrywise max-norm equality of two maps with matching endpoints."""
    if (f.source, f.target, f.direction) != (g.source, g.target, g.direction):
        return False
    return bool(np.abs(f.choi - g.choi).max() <= tol)
