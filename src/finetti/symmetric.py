"""Symmetric coordinates of tower levels: the design of iid mixtures.

Let ``H_1 .. H_q`` be the Hermitian orthonormal basis of the base
(:func:`~finetti.cstar.hermitian_basis`; ``q = d^2`` for a matrix block, the
block indicators for a commutative base on ``b`` points, so ``q = b``).  The
products ``H_a1 (x) ... (x) H_an`` are an orthonormal basis of level n, so a
level is its coefficient tensor ``C_a = tr(H_a1 (x) ... (x) H_an rho_n)``,
with the same Frobenius norm.

Every iid level ``sigma^(x n)`` has the coefficient tensor ``x^(x n)``, which
is invariant under permutations of the n slots.  Those tensors span a
subspace with one orthonormal vector per multiset ``m`` of n basis indices,
the orbit sum of ``m`` over ``sqrt(multinomial(n; m))``: ``C(n+q-1, n)``
coordinates in all (Harrow, "The church of the symmetric subspace",
arXiv:1308.6595; on a commutative base these are the type counts of
Diaconis & Freedman, "Finite exchangeable sequences", 1980).  In them

* ``sigma^(x n)`` has coordinate ``sqrt(multinomial(n; m)) prod_i x_(m_i)``
  on ``m`` (:func:`iid_levels`), a scaled monomial and no Kronecker power;
* a level ``rho_n`` projects to the orbit sums of ``C`` over
  ``sqrt(multinomial(n; m))`` (:func:`project`);
* ``||rho_n - sum_k w_k sigma_k^(x n)||_F^2`` is the squared distance in
  these coordinates plus ``||C - orbit means of C||^2``, the part of
  ``rho_n`` off the symmetric subspace, which no mixture can reach.

The slot map of a base (:func:`slot_map`) and the orbit tables of each
``(q, n)`` (:func:`orbits`) are built once per process, read-only, and are
the only source of orbit data in the package: the slot twirl of
:mod:`finetti.exchange` is the orbit mean of the same tables.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .cstar import Algebra, hermitian_basis


@cache
def slot_map(base: Algebra) -> np.ndarray:
    """The ``(q, s)`` matrix taking a packed level-1 element (``s`` entries:
    the matrix of a single-block base, the block values of a commutative one)
    to its coefficients ``tr(H_a x)``.  It is unitary: ``s = q``.  Memoized
    per base, read-only."""
    pack = np.diagonal if base.is_commutative else np.ravel
    u = np.stack([pack(h).conj() for h in hermitian_basis(base)])
    u.setflags(write=False)
    return u


@cache
def orbits(q: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbits of the index tuples of a ``(q,) * n`` tensor under slot
    permutations, one per multiset of n indices below q.

    Returns ``(orbit, sizes, members)``: ``orbit[i]`` is the orbit of flat
    index ``i``; ``sizes`` are the orbit sizes ``multinomial(n; m)``;
    ``members`` holds each orbit's sorted index tuple, ``(R, n)``.  Orbits
    come in the lexicographic order of those tuples.  Memoized per
    ``(q, n)`` for the life of the process; the arrays are read-only.
    """
    shape = (q,) * n
    # An orbit is named by its sorted tuple, read as a flat index.
    digits = np.indices(shape, dtype=np.min_scalar_type(q - 1)).reshape(n, -1)
    keys = np.ravel_multi_index(np.sort(digits, axis=0), shape)
    named = np.zeros(q**n, dtype=bool)
    named[keys] = True
    # The tables live as long as the process, so the orbit numbers take the
    # smallest integer type that holds them.
    count = np.count_nonzero(named)
    orbit = (np.cumsum(named) - 1).astype(np.min_scalar_type(count - 1))[keys]
    members = np.stack(np.unravel_index(np.flatnonzero(named), shape), axis=1)
    tables = orbit, np.bincount(orbit), members
    for arr in tables:
        arr.setflags(write=False)
    return tables


def iid_level(coords: np.ndarray, n: int) -> np.ndarray:
    """Symmetric coordinates of level n of the iid tower of each row of
    ``coords`` (a ``(k, q)`` array of coefficients): ``(k, C(n+q-1, n))``."""
    _, sizes, members = orbits(coords.shape[1], n)
    return np.sqrt(sizes) * np.prod(coords[:, members], axis=2)


def iid_levels(coords: np.ndarray, levels) -> np.ndarray:
    """:func:`iid_level` for each level in ``levels``, side by side."""
    return np.concatenate([iid_level(coords, n) for n in levels], axis=1)


def coordinates(base: Algebra, packed: np.ndarray) -> np.ndarray:
    """Real coefficients ``tr(H_a x)`` of a ``(k, ...)`` stack of packed
    Hermitian level-1 elements: ``(k, q)``."""
    return (packed.reshape(len(packed), -1) @ slot_map(base).T).real


def _interleave(n: int) -> list[int]:
    """Axis order that pairs the row and column index of each of n slots."""
    return [a for slot in range(n) for a in (slot, n + slot)]


def project(base: Algebra, levels) -> tuple[np.ndarray, float]:
    """Symmetric coordinates of the packed levels ``1..N`` of a tower over
    ``base``, level by level, and the Frobenius norm of the levels' part off
    the symmetric subspace: the distance of each coefficient tensor from its
    orbit means of the real part, which also carries any anti-Hermitian
    part."""
    u = slot_map(base)
    q = len(u)
    parts, off = [], 0.0
    for n, arr in enumerate(levels, start=1):
        orbit, sizes, _ = orbits(q, n)
        if not base.is_commutative:
            d = base.blocks[0]
            arr = arr.reshape((d,) * (2 * n)).transpose(_interleave(n))
        c = arr.reshape(q, -1)
        for _ in range(n):  # each step maps the leading slot, moved to the end
            c = (c.T @ u.T).reshape(q, -1)
        c = c.ravel()
        sums = np.bincount(orbit, weights=c.real)
        parts.append(sums / np.sqrt(sizes))
        off = np.hypot(off, np.linalg.norm(c - (sums / sizes)[orbit]))
    return np.concatenate(parts), float(off)


def unproject(base: Algebra, depth: int, coords: np.ndarray) -> list[np.ndarray]:
    """Packed levels ``1..depth`` of a tower over ``base`` with the
    symmetric coordinates ``coords``: for a ``(k, rows)`` array, one
    ``(k, ...)`` stack per level."""
    u = slot_map(base).conj()
    q, k, at = len(u), len(coords), 0
    out = []
    for n in range(1, depth + 1):
        orbit, sizes, _ = orbits(q, n)
        y = coords[:, at : at + len(sizes)] / np.sqrt(sizes)
        at += len(sizes)
        t = y[:, orbit]
        for _ in range(n):  # each step maps the leading slot, moved to the end
            t = t.reshape(k, q, q ** (n - 1)).transpose(0, 2, 1) @ u
        if not base.is_commutative:
            d = base.blocks[0]
            back = np.argsort(_interleave(n)) + 1
            t = t.reshape((k,) + (d,) * (2 * n)).transpose([0, *back])
            out.append(t.reshape(k, d**n, d**n))
        else:
            out.append(t.reshape(k, q**n))
    return out
