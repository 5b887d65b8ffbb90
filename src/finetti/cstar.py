"""Finite-dimensional operator algebras as direct sums of full matrix blocks.

An algebra is described by its block sizes ``(d_1, ..., d_k)``: the algebra
``M_{d_1} + ... + M_{d_k}`` acting block-diagonally on ``C^(d_1+...+d_k)``.
Commutative algebras are exactly the all-ones block lists (functions on a
finite set); single-block algebras are full matrix algebras.

Elements carry one complex matrix per block.  States are trace-like
functionals represented by density matrices, evaluated through
``eval_state(s, a) = sum_i Tr(dens_i @ mats_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Default tolerances for positivity (eigenvalue floor) and trace normalization.
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
# Tolerance of a probability vector's sign and sum.
PROB_TOL = 1e-9


def _as_locked_complex(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Algebra:
    """A finite direct sum of full matrix algebras, given by block sizes."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) == 0:
            raise ValueError("an algebra needs at least one block")
        if any((not isinstance(d, (int, np.integer))) or d < 1 for d in self.blocks):
            raise ValueError(f"block sizes must be positive integers, got {self.blocks}")
        object.__setattr__(self, "blocks", tuple(int(d) for d in self.blocks))

    @property
    def dim(self) -> int:
        """Vector-space dimension, sum of squared block sizes."""
        return int(sum(d * d for d in self.blocks))

    @property
    def rep_dim(self) -> int:
        """Dimension of the block-diagonal representation space."""
        return int(sum(self.blocks))

    @property
    def is_commutative(self) -> bool:
        return all(d == 1 for d in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def unit(self) -> "Element":
        return Element(self, [np.eye(d, dtype=complex) for d in self.blocks])

    def __str__(self) -> str:
        return "A(" + "+".join(str(d) for d in self.blocks) + ")"


def make_algebra(blocks) -> Algebra:
    """Build an :class:`Algebra` from an iterable of block sizes."""
    return Algebra(tuple(blocks))


def _check_block_shapes(algebra: Algebra, mats, what: str) -> list[np.ndarray]:
    mats = list(mats)
    if len(mats) != algebra.n_blocks:
        raise ValueError(
            f"{what}: expected {algebra.n_blocks} blocks, got {len(mats)}"
        )
    out = []
    for d, m in zip(algebra.blocks, mats):
        m = np.asarray(m, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"{what}: block of size {m.shape} does not match ({d}, {d})")
        out.append(m)
    return out


@dataclass
class Element:
    """An algebra element: one complex matrix per block.

    Treat as immutable; the block matrices are locked against writes.
    """

    algebra: Algebra
    mats: list[np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        checked = _check_block_shapes(self.algebra, self.mats, "Element")
        self.mats = [_as_locked_complex(m) for m in checked]


@dataclass
class StateVec:
    """A state on an algebra, stored as one density block per algebra block."""

    algebra: Algebra
    dens: list[np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        checked = _check_block_shapes(self.algebra, self.dens, "StateVec")
        self.dens = [_as_locked_complex(m) for m in checked]


def hermiticity_defect(mats) -> float:
    """Largest entrywise deviation ``max |M - M^dagger|`` over the blocks."""
    if isinstance(mats, (Element, StateVec)):
        mats = mats.mats if isinstance(mats, Element) else mats.dens
    defect = 0.0
    for m in mats:
        defect = max(defect, float(np.abs(m - m.conj().T).max()))
    return defect


def _min_eig_symmetrized(m: np.ndarray) -> float:
    # Symmetrize before the eigensolve; callers report the defect separately.
    h = (m + m.conj().T) / 2.0
    return float(np.linalg.eigvalsh(h).min())


def is_positive_element(a: Element, tol: float = PSD_TOL) -> bool:
    """True iff every block is Hermitian (within ``tol``) with spectrum >= -tol."""
    if hermiticity_defect(a) > tol:
        return False
    return all(_min_eig_symmetrized(m) >= -tol for m in a.mats)


def make_state(algebra: Algebra, dens) -> StateVec:
    """Build a :class:`StateVec`, checking positivity and unit total trace.

    Raises
    ------
    ValueError
        If a density block is non-Hermitian beyond ``PSD_TOL``, has an
        eigenvalue below ``-PSD_TOL``, or the traces do not sum to 1 within
        ``TRACE_TOL``.  The message includes the measured defect.
    """
    s = StateVec(algebra, dens)
    defect = hermiticity_defect(s)
    if defect > PSD_TOL:
        raise ValueError(f"density blocks not Hermitian: defect {defect:.3e}")
    for i, m in enumerate(s.dens):
        lo = _min_eig_symmetrized(m)
        if lo < -PSD_TOL:
            raise ValueError(f"density block {i} not positive: min eigenvalue {lo:.3e}")
    total = sum(float(np.trace(m).real) for m in s.dens)
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"total trace {total!r} differs from 1 beyond {TRACE_TOL}")
    return s


def probability_vector(probs, size: int) -> np.ndarray:
    """``probs`` as a read-only float vector of ``size`` entries, checked
    finite, nonnegative and summing to 1 (the last two within ``PROB_TOL``):
    a state on ``size`` points, and the one check of a measure, a kernel row
    or mixture weights."""
    p = np.asarray(probs, dtype=float)
    if p.shape != (size,):
        raise ValueError(f"{p.shape} probabilities for {size} points")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.min() < -PROB_TOL or abs(p.sum() - 1.0) > PROB_TOL:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    p.setflags(write=False)
    return p


def eval_state(s: StateVec, a: Element) -> complex:
    """Pair a state with an element: ``sum_i Tr(dens_i @ mats_i)``."""
    if s.algebra != a.algebra:
        raise ValueError(f"algebra mismatch: {s.algebra} vs {a.algebra}")
    return complex(sum(np.trace(d @ m) for d, m in zip(s.dens, a.mats)))


# --- dense (block-diagonal) representation helpers -------------------------

def blocks_to_dense(algebra: Algebra, mats) -> np.ndarray:
    """Assemble per-block matrices into one block-diagonal rep-space matrix."""
    n = algebra.rep_dim
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for d, m in zip(algebra.blocks, mats):
        out[off : off + d, off : off + d] = m
        off += d
    return out


def dense_to_blocks(algebra: Algebra, mat: np.ndarray) -> list[np.ndarray]:
    """Cut the diagonal blocks of a rep-space matrix (off-block parts dropped)."""
    mat = np.asarray(mat, dtype=complex)
    n = algebra.rep_dim
    if mat.shape != (n, n):
        raise ValueError(f"expected ({n}, {n}) matrix, got {mat.shape}")
    out = []
    off = 0
    for d in algebra.blocks:
        out.append(mat[off : off + d, off : off + d].copy())
        off += d
    return out


def hermitian_basis(algebra: Algebra) -> list[np.ndarray]:
    """An orthonormal basis of the Hermitian elements, as rep-space matrices.

    Per block: the diagonal units, and for each pair ``j < k`` of block
    indices the symmetric and antisymmetric combinations of the off-diagonal
    units, scaled by 1/sqrt(2).  Orthonormal in the Hilbert-Schmidt inner
    product, so a Hermitian ``x`` is ``sum_a tr(H_a x) H_a`` with real
    coefficients.
    """
    rep = algebra.rep_dim
    hermitians: list[np.ndarray] = []
    off = 0
    for d in algebra.blocks:
        for j in range(d):
            h = np.zeros((rep, rep), dtype=complex)
            h[off + j, off + j] = 1.0
            hermitians.append(h)
            for k in range(j + 1, d):
                h = np.zeros((rep, rep), dtype=complex)
                h[off + j, off + k] = h[off + k, off + j] = 1 / np.sqrt(2)
                hermitians.append(h)
                h = np.zeros((rep, rep), dtype=complex)
                h[off + j, off + k] = -1j / np.sqrt(2)
                h[off + k, off + j] = 1j / np.sqrt(2)
                hermitians.append(h)
        off += d
    return hermitians


def element_to_dense(a: Element) -> np.ndarray:
    return blocks_to_dense(a.algebra, a.mats)


def state_to_dense(s: StateVec) -> np.ndarray:
    return blocks_to_dense(s.algebra, s.dens)


# --- norms ------------------------------------------------------------------

def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values (eigensolve shortcut for Hermitian inputs)."""
    return float(trace_norms(np.asarray(mat)[None])[0])


def trace_norms(mats: np.ndarray) -> np.ndarray:
    """Sum of singular values of each matrix of a ``(k, d, d)`` stack, the
    Hermitian ones in one stacked eigensolve."""
    mats = np.asarray(mats, dtype=complex)
    adj = mats.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    herm = np.abs(mats - adj).max(axis=(-2, -1)) <= 1e-12 * scale
    out = np.empty(len(mats))
    if herm.any():
        h = (mats[herm] + adj[herm]) / 2.0
        out[herm] = np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)
    if not herm.all():
        out[~herm] = np.linalg.svd(mats[~herm], compute_uv=False).sum(axis=-1)
    return out


def state_distance(s1: StateVec, s2: StateVec) -> float:
    """Trace-norm distance between two states on the same algebra."""
    if s1.algebra != s2.algebra:
        raise ValueError(f"algebra mismatch: {s1.algebra} vs {s2.algebra}")
    return sum(trace_norm(a - b) for a, b in zip(s1.dens, s2.dens))
