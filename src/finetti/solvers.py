"""Nonnegative and simplex-constrained least squares.

One primal active-set method (Lawson & Hanson, *Solving Least Squares
Problems*, 1974, ch. 20-23; Nocedal & Wright, *Numerical Optimization*,
Alg. 16.3) solves ``min ||A w - b||_2`` subject to ``w >= 0`` and ``C w = d``
from a feasible start.  Each step solves the equality-constrained problem on
the passive set exactly, by a null-space basis of the passive columns of
``C``; no penalty row enters the data.  The SVD of those columns that gives
the basis also gives, by its pseudo-inverse, the equality multipliers of the
optimality test, so a step costs two SVDs.  What depends on the design alone
is computed once for every solve over it (as Bro & De Jong, "A fast
non-negativity-constrained least squares algorithm", J. Chemometrics 11,
1997, precompute the cross-products of theirs).

* :func:`nnls` is the case without equality rows.
* :func:`simplex_lstsq` carries the ones row ``sum w = 1``.
* :func:`lead_first_lstsq` is the lexicographic objective of the
  reconstruction routines: fit the lead rows (level 1) over the simplex
  first, then fit every row while holding the lead rows' image at that first
  optimum.  It is exact on the lead rows when their target lies in the hull
  of the columns, and their projection onto that hull when it does not.
  Its design-only part (the atom-major copy or view of the design, the
  stage-2 equality rows, the truncation tolerances) is a :class:`LeadFit`,
  which a caller fitting many targets over one design builds once.

:func:`lead_first_lstsq` also takes a stack of B targets ``b`` (and starts)
over the shared ``A`` and ``C``, as the restarts and probe fits of a cone
have them (Van Benthem & Keenan, "Fast algorithm for the solution of
large-scale non-negativity-constrained least squares problems",
J. Chemometrics 18, 2004).  The stacked problems step in lockstep: every
live problem takes the step it takes alone, the passive systems of one step
padded with zero columns to a common width and solved by one batched SVD, and
a problem leaves the stack when it passes its optimality test.  A single
target runs the unstacked loop, which costs less at B = 1.

The solvers raise :class:`SolverDidNotConverge` when the iteration cap is
reached before the Karush-Kuhn-Tucker test passes, so every returned point
has passed it (variables set aside as round-off excepted, see
:func:`_active_set`).  In a stack the cap holds for each problem: a problem
still live after that many steps raises.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

EPS = np.finfo(float).eps


class SolverDidNotConverge(RuntimeError):
    """The active set reached its iteration cap before the optimality test
    passed; the last iterate is not a certified optimum."""


def realify(mat: np.ndarray) -> np.ndarray:
    """Stack real and imaginary parts so complex least squares becomes real."""
    mat = np.asarray(mat)
    return np.concatenate([mat.real, mat.imag], axis=0).astype(float)


def _as_problem(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"shape mismatch: a {a.shape}, b {b.shape}")
    return a, b


def _default_grad_tol(a: np.ndarray, b: np.ndarray):
    """Optimality threshold for the target ``b``, one per row of a stack."""
    # Scaled by the data rows only: an equality row must not loosen the test.
    m = a.shape[0]
    scale = np.abs(a.T @ b.T).max(axis=0, initial=0.0)
    return EPS * np.sqrt(m) * np.maximum(1.0, scale)


def _max_iter(n: int) -> int:
    """Default iteration cap of an active-set solve over ``n`` variables."""
    return max(6 * n, 60)


def _atom_major(a: np.ndarray) -> np.ndarray:
    """``a.T``, read-only, with each row (a column of ``a``) contiguous: a
    view when the columns of ``a`` already are, else a copy."""
    at = a.T if a.strides[0] == a.itemsize else np.ascontiguousarray(a.T)
    at = at.view()  # the caller's array keeps its own flags
    at.setflags(write=False)
    return at


class Design(NamedTuple):
    """What the active set reads of a design ``a`` (``m x n``) and its
    equality rows ``c`` (``e x n``), built once for every solve over them.

    ``at`` and ``ct`` hold ``a.T`` and ``c.T``, read-only, so a passive set
    gathers whole contiguous rows; ``tol`` is the singular value below which
    a direction of a passive system is round-off.
    """

    at: np.ndarray
    ct: np.ndarray
    tol: float

    @classmethod
    def build(cls, at: np.ndarray, ct: np.ndarray) -> "Design":
        """From the atom-major ``at`` (see :func:`_atom_major`) and ``c.T``."""
        ct = np.ascontiguousarray(ct, dtype=float)
        ct.setflags(write=False)
        norm = float(np.sqrt(np.einsum("ij,ij->i", at, at).max()))
        return cls(at, ct, EPS * max(at.shape) * norm)

    @property
    def a(self) -> np.ndarray:
        return self.at.T


class LeadFit(NamedTuple):
    """A design prepared for :func:`lead_first_lstsq`: stage 1 over the
    ``lead`` rows and the ones row, stage 2 over all rows and the row basis
    of the ones and lead rows (:meth:`build`)."""

    lead: slice | np.ndarray
    first: Design
    second: Design

    @classmethod
    def build(cls, a: np.ndarray, lead) -> "LeadFit":
        """Prepare the design ``a`` with its ``lead`` rows."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"design must be a matrix, got shape {a.shape}")
        at = _atom_major(a)
        ones = np.ones((a.shape[1], 1))
        basis = _row_basis(np.vstack([ones.T, a[lead]]))
        return cls(lead, Design.build(at[:, lead], ones), Design.build(at, basis.T))


def _row_basis(c: np.ndarray) -> np.ndarray:
    """Rows spanning the row space of ``c``, as many as its rank."""
    _, s, vt = np.linalg.svd(c, full_matrices=False)
    keep = s > s[0] * max(c.shape) * EPS
    return s[keep, None] * vt[keep]


def _lstsq(m: np.ndarray, r: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Minimum-norm ``min ||m y - r||`` by a truncated SVD: directions of ``m``
    with singular value below ``tol`` are left out.  Returns ``y`` and the
    number of directions kept, the numerical rank of ``m``.
    """
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > tol
    return vt[keep].T @ ((u[:, keep].T @ r) / s[keep]), int(keep.sum())


def _passive_step(
    ap: np.ndarray, r: np.ndarray, cp: np.ndarray, tol: float
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Least-squares step ``p`` for ``min ||ap p - r||`` with ``cp p = 0``,
    solved on an orthonormal basis of the null space of ``cp``.  Directions
    in which ``ap`` is below ``tol`` are round-off and do not move.

    Also returns the rank of the passive system, that of ``cp`` plus that of
    ``ap`` on the null space of ``cp``, and the pseudo-inverse of ``cp.T``
    at the cut-off :func:`numpy.linalg.lstsq` uses, from the same SVD: it
    fits the equality multipliers to a reduced gradient on the passive set
    (``None`` without equality rows).
    """
    if not cp.shape[0]:
        return (*_lstsq(ap, r, tol), None)
    u, s, vt = np.linalg.svd(cp)
    rank = int(np.count_nonzero(s > s[0] * max(cp.shape) * EPS))
    pinv = (u[:, :rank] / s[:rank]) @ vt[:rank]
    null = vt[rank:].T
    if not null.shape[1]:
        return np.zeros(ap.shape[1]), rank, pinv
    y, rank_null = _lstsq(ap @ null, r, tol)
    return null @ y, rank + rank_null, pinv


def _active_set(
    design: Design,
    b: np.ndarray,
    x: np.ndarray,
    grad_tol: float,
    max_iter: int,
) -> np.ndarray:
    """``min ||a x - b||`` over ``x >= 0``, ``c x = c x0``, from the feasible
    ``x0``, for the ``a`` and ``c`` of ``design``.

    The passive set starts as the support of ``x``.  A step blocked by a
    bound drops only the one blocking variable, which keeps degenerate
    vertices from cycling.  A variable let in by a negative reduced gradient
    must raise the rank of the passive system and must not step below its
    bound.  One that fails either test was let in by round-off, and is set
    aside until the point moves (the safeguards of Lawson & Hanson's NNLS).
    A step takes two SVDs, both in :func:`_passive_step`, whose
    pseudo-inverse of the passive constraint block also gives the equality
    multipliers of the optimality test.
    """
    at, ct = design.at, design.ct
    n = at.shape[0]
    x = x.copy()
    passive = x > 0
    set_aside = np.zeros(n, dtype=bool)
    entering, rank = -1, 0
    for _ in range(max_iter):
        idx = np.flatnonzero(passive)
        apt = at[idx]
        z, new_rank = x.copy(), 0
        if idx.size:
            step, new_rank, pinv = _passive_step(apt.T, b - x[idx] @ apt, ct[idx].T, design.tol)
            z[idx] += step
        # Round-off zeros of the passive solve count as feasible.
        zero_tol = EPS * max(idx.size, 1) * max(1.0, float(np.abs(z).max()))
        if entering >= 0 and (new_rank <= rank or z[entering] < -zero_tol):
            # The point stays put, so the reduced gradient of the last test
            # still holds; the entrant is masked below.
            set_aside[entering] = True
            passive[entering] = False
        else:
            rank = new_rank
            blocked = passive & (z < -zero_tol)
            set_aside[:] = False
            if blocked.any():
                cand = np.flatnonzero(blocked)
                ratios = x[cand] / (x[cand] - z[cand])
                i = int(np.argmin(ratios))
                x = np.maximum(x + ratios[i] * (z - x), 0.0)
                passive[cand[i]] = False
                x[cand[i]] = 0.0
                entering = -1
                continue
            x = np.where(passive, np.maximum(z, 0.0), 0.0)
            # Karush-Kuhn-Tucker test: the reduced gradient, with the
            # equality multipliers fitted on the passive set, is nonnegative
            # off it.
            grad = at @ (x[idx] @ apt - b)
            if ct.shape[1] and idx.size:
                grad -= ct @ (pinv @ grad[idx])
        grad[passive | set_aside] = np.inf
        entering = int(np.argmin(grad))
        if grad[entering] >= -grad_tol:
            return x
        passive[entering] = True
    raise SolverDidNotConverge(f"active set did not converge in {max_iter} iterations")


def _passive_steps(
    ap: np.ndarray, r: np.ndarray, cp: np.ndarray, size: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_passive_step` for a stack of B problems, by two batched SVDs.

    ``ap[i]`` and ``cp[i]`` hold the ``size[i]`` passive columns of problem
    i, padded with zero columns to a common width.  A padded direction lies
    in the null space of both, so the minimum-norm step leaves it at zero,
    and the rank tests count only the ``size[i]`` true columns.

    Returns the steps, the ranks, and for each problem the pseudo-inverse of
    ``cp[i].T`` at the cut-off :func:`numpy.linalg.lstsq` uses, which fits
    the equality multipliers to a reduced gradient on the passive set.
    """
    width = ap.shape[2]
    u, s, vt = np.linalg.svd(cp)
    keep = s > s[:, :1] * np.maximum(size, cp.shape[1])[:, None] * EPS
    rank = np.minimum(keep.sum(axis=1), size)
    keep &= np.arange(s.shape[1]) < rank[:, None]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv = (u[:, :, : s.shape[1]] * inv[:, None, :]) @ vt[:, : s.shape[1]]
    null = vt.transpose(0, 2, 1) * (np.arange(width) >= rank[:, None])[:, None, :]
    u, s, vt = np.linalg.svd(ap @ null, full_matrices=False)
    keep = s > tol
    coef = np.divide(np.einsum("bmk,bm->bk", u, r), s, out=np.zeros_like(s), where=keep)
    step = np.einsum("bpq,bkq,bk->bp", null, vt, coef)
    return step, rank + keep.sum(axis=1), pinv


def _stacked_active_set(
    design: Design,
    b: np.ndarray,
    x: np.ndarray,
    grad_tol: np.ndarray,
    max_iter: int,
) -> np.ndarray:
    """:func:`_active_set` for the rows of ``b`` and ``x``, each a problem
    with its own ``grad_tol``, over the shared ``design`` (at least one
    equality row, as in the simplex solves).

    The live problems step in lockstep, each taking the step it takes alone
    (see :func:`_passive_steps`), and a problem leaves the stack when it
    passes the optimality test.  One still live after ``max_iter`` steps
    raises :class:`SolverDidNotConverge`.  A single row runs
    :func:`_active_set`, which costs less for one problem.
    """
    if len(b) == 1:
        return _active_set(design, b[0], x[0], grad_tol[0], max_iter)[None]
    if not len(b):
        return x.copy()
    # Row j holds column j: gathering passive columns copies contiguous rows.
    at, ct = design.at, design.ct
    m, e = at.shape[1], ct.shape[1]
    out = np.empty_like(x)
    live = np.arange(len(b))
    x = x.copy()
    passive = x > 0
    set_aside = np.zeros_like(passive)
    entering = np.full(len(b), -1)
    rank = np.zeros(len(b), dtype=int)
    grad = np.zeros_like(x)
    for _ in range(max_iter):
        rows = np.arange(len(live))
        size = passive.sum(axis=1)
        # Passive entries in row-major order fill the leading slots of each row.
        slot = np.arange(size.max()) < size[:, None]
        cols = np.nonzero(passive)[1]
        xp = np.zeros(slot.shape)
        xp[slot] = x[passive]
        z, new_rank = x.copy(), np.zeros_like(rank)
        if slot.shape[1]:
            apt = np.zeros(slot.shape + (m,))
            apt[slot] = at[cols]
            cpt = np.zeros(slot.shape + (e,))
            cpt[slot] = ct[cols]
            r = b - np.einsum("bpm,bp->bm", apt, xp)
            step, new_rank, pinv = _passive_steps(
                apt.transpose(0, 2, 1), r, cpt.transpose(0, 2, 1), size, design.tol
            )
            z[passive] = (xp + step)[slot]
        zero_tol = EPS * np.maximum(size, 1) * np.maximum(1.0, np.abs(z).max(axis=1))
        ent = np.maximum(entering, 0)
        reject = (entering >= 0) & ((new_rank <= rank) | (z[rows, ent] < -zero_tol))
        # A rejected entrant is set aside and the point stays put, so the
        # reduced gradient of the step before still holds.
        set_aside[reject, ent[reject]] = True
        passive[reject, ent[reject]] = False
        accept = ~reject
        rank[accept] = new_rank[accept]
        set_aside[accept] = False
        blocked = passive & (z < -zero_tol[:, None]) & accept[:, None]
        hit = np.flatnonzero(blocked.any(axis=1))
        if hit.size:
            xh, zh = x[hit], z[hit]
            ratios = np.full(xh.shape, np.inf)
            np.divide(xh, xh - zh, out=ratios, where=blocked[hit])
            i = np.argmin(ratios, axis=1)
            step_to = ratios[np.arange(hit.size), i]
            xh = np.maximum(xh + step_to[:, None] * (zh - xh), 0.0)
            xh[np.arange(hit.size), i] = 0.0
            x[hit] = xh
            passive[hit, i] = False
            entering[hit] = -1
        clean = accept.copy()
        clean[hit] = False
        kkt = reject | clean
        cl = np.flatnonzero(clean)
        if cl.size:
            x[cl] = np.where(passive[cl], np.maximum(z[cl], 0.0), 0.0)
            g = (x[cl] @ at - b[cl]) @ at.T
            if slot.shape[1]:
                gp = np.zeros((cl.size, slot.shape[1]))
                gp[slot[cl]] = g[passive[cl]]
                g -= np.einsum("bep,bp->be", pinv[cl], gp) @ ct.T
            grad[cl] = g
        # Karush-Kuhn-Tucker test, as in _active_set.
        masked = np.where(passive | set_aside, np.inf, grad)
        new = np.argmin(masked, axis=1)
        done = kkt & (masked[rows, new] >= -grad_tol)
        go = kkt & ~done
        passive[go, new[go]] = True
        entering[go] = new[go]
        if done.any():
            out[live[done]] = x[done]
            stay = ~done
            if not stay.any():
                return out
            live, x, b, grad_tol = live[stay], x[stay], b[stay], grad_tol[stay]
            passive, set_aside, grad = passive[stay], set_aside[stay], grad[stay]
            entering, rank = entering[stay], rank[stay]
    raise SolverDidNotConverge(
        f"active set did not converge in {max_iter} iterations "
        f"for {len(live)} of the stacked problems"
    )


def nnls(
    a: np.ndarray,
    b: np.ndarray,
    *,
    start: np.ndarray | None = None,
    grad_tol: float | None = None,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve ``min ||a x - b||_2`` subject to ``x >= 0``.

    Parameters
    ----------
    start : optional feasible vector (nonnegative); its support seeds the
        passive set.  Without it the usual empty-support cold start is used.
    grad_tol : optimality threshold on the gradient ``a.T (a x - b)``;
        defaults to a machine-precision multiple of ``max |a.T b|``.
    max_iter : iteration cap; reaching it raises :class:`SolverDidNotConverge`.
    """
    a, b = _as_problem(a, b)
    n = a.shape[1]
    x = np.zeros(n)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (n,) or (start < 0).any():
            raise ValueError("start must be a nonnegative vector of length n")
        x = start.copy()
    if grad_tol is None:
        grad_tol = _default_grad_tol(a, b)
    if max_iter is None:
        max_iter = _max_iter(n)
    design = Design.build(_atom_major(a), np.zeros((n, 0)))
    return _active_set(design, b, x, grad_tol, max_iter)


def _unit_sum(w: np.ndarray) -> np.ndarray:
    """``w`` scaled to unit sum on the grid of multiples of ``2**-53``, row
    by row for a stack.

    Every partial sum of such entries in ``[0, 1]`` is exact, so the computed
    sum is 1.0 in any summation order; the largest entry absorbs the
    rounding to the grid.
    """
    units = np.rint(w / w.sum(axis=-1, keepdims=True) * 2.0**53).astype(np.int64)
    flat = units.reshape(-1, units.shape[-1])
    flat[np.arange(len(flat)), np.argmax(flat, axis=1)] += 2**53 - flat.sum(axis=1)
    return units / 2.0**53


def _simplex_start(a: np.ndarray, b: np.ndarray, start) -> np.ndarray:
    """Feasible start of a simplex solve, row by row for a stack: ``start``
    scaled to unit sum, or without one the column nearest ``b``."""
    shape = b.shape[:-1] + (a.shape[1],)
    if start is None:
        # The vertex nearest b: argmin_k ||a_k||^2 - 2 a_k . b.
        near = np.argmin(np.einsum("ij,ij->j", a, a) - 2 * (a.T @ b.T).T, axis=-1)
        w = np.zeros(shape)
        np.put_along_axis(w, np.expand_dims(near, -1), 1.0, axis=-1)
        return w
    start = np.asarray(start, dtype=float)
    total = start.sum(axis=-1, keepdims=True)
    if start.shape != shape or (start < 0).any() or (total <= 0).any():
        raise ValueError(f"start must be a nonnegative, nonzero array of shape {shape}")
    return start / total


def simplex_lstsq(
    a: np.ndarray,
    b: np.ndarray,
    *,
    start: np.ndarray | None = None,
    grad_tol: float | None = None,
) -> tuple[np.ndarray, float]:
    """Least squares over the probability simplex, the equality held exactly.

    Minimizes ``||a w - b||`` over ``w >= 0``, ``sum w = 1``.  A nonnegative
    ``start`` is scaled to unit sum; without one, the solve starts at the
    column nearest ``b``.

    Returns ``(w, residual)``: ``w`` is renormalized to a computed sum of
    exactly 1.0 (see :func:`_unit_sum`), and the residual is ``||a w - b||``
    at that ``w``.  Raises :class:`SolverDidNotConverge` if the iteration cap
    is reached before the optimality test passes.
    """
    a, b = _as_problem(a, b)
    n = a.shape[1]
    w = _simplex_start(a, b, start)
    if grad_tol is None:
        grad_tol = _default_grad_tol(a, b)
    design = Design.build(_atom_major(a), np.ones((n, 1)))
    w = _unit_sum(_active_set(design, b, w, grad_tol, _max_iter(n)))
    return w, float(np.linalg.norm(a @ w - b))


def lead_first_lstsq(
    a: np.ndarray | LeadFit,
    b: np.ndarray,
    lead=None,
    *,
    start: np.ndarray | None = None,
):
    """Lexicographic simplex least squares: the ``lead`` rows first.

    Stage 1 fits only the rows ``a[lead]`` over the simplex (``start`` seeds
    it).  Stage 2 fits every row over the simplex with the lead image held
    at the stage-1 point, ``a[lead] @ w == a[lead] @ w1``; the ones row and
    the lead rows are compressed to their rank first.  Returns
    ``(w, residual)`` with the residual over all rows.

    ``a`` is the design, or a :class:`LeadFit` of it that carries its own
    ``lead``: a caller that fits many targets over one design builds that
    once.  Given the bare design, the fit is built on the spot.

    ``b`` may also be a ``(B, m)`` stack of targets, with ``start`` then a
    ``(B, n)`` stack or ``None``.  Each row is solved as it would be alone,
    all of them in one stacked active set (see :func:`_stacked_active_set`),
    and ``w`` is ``(B, n)`` and ``residual`` ``(B,)``.
    """
    fit = a if isinstance(a, LeadFit) else LeadFit.build(a, lead)
    n, m = fit.second.at.shape
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] != m:
        raise ValueError(f"shape mismatch: a {(m, n)}, b {b.shape}")
    b1 = b[..., fit.lead]
    if b.ndim == 1:
        w, _ = simplex_lstsq(fit.first.a, b1, start=start)
        solve = _active_set
    else:
        w = _simplex_start(fit.first.a, b1, start)
        tol1 = _default_grad_tol(fit.first.a, b1)
        w = _unit_sum(_stacked_active_set(fit.first, b1, w, tol1, _max_iter(n)))
        solve = _stacked_active_set
    tol = _default_grad_tol(fit.second.a, b)
    w = _unit_sum(solve(fit.second, b, w, tol, _max_iter(n)))
    residual = np.linalg.norm(w @ fit.second.at - b, axis=-1)
    return w, (float(residual) if b.ndim == 1 else residual)
