"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's own machinery: plain index
loops, textbook formulas, and scipy's solver, so that agreement between the
two routes is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import string

import numpy as np
from scipy.optimize import nnls as scipy_nnls

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def partial_trace_last_loops(rho: np.ndarray, d: int, m: int, n: int) -> np.ndarray:
    """Partial trace over the last m - n slots by explicit summation."""
    keep, drop = d**n, d ** (m - n)
    out = np.zeros((keep, keep), dtype=complex)
    for i in range(keep):
        for j in range(keep):
            acc = 0.0 + 0.0j
            for k in range(drop):
                acc += rho[i * drop + k, j * drop + k]
            out[i, j] = acc
    return out


def exhaustive_symmetry_gap(rho: np.ndarray, d: int, n: int) -> float:
    """``max_{sigma in S_n} ||rho - sigma.rho||`` over every permutation of the
    n slots: the trace norm for a ``d**n`` square matrix, l1 for a ``d**n``
    vector.  Each permuted basis index is built digit by digit."""
    size = d**n
    worst = 0.0
    for sigma in itertools.permutations(range(n)):
        source = [0] * size
        for index in range(size):
            digits = [(index // d ** (n - 1 - slot)) % d for slot in range(n)]
            moved = [0] * n
            for slot in range(n):
                moved[sigma[slot]] = digits[slot]
            target = 0
            for digit in moved:
                target = target * d + digit
            source[target] = index
        if rho.ndim == 1:
            gap = float(np.abs(rho - rho[source]).sum())
        else:
            gap = float(np.linalg.svd(rho - rho[np.ix_(source, source)], compute_uv=False).sum())
        worst = max(worst, gap)
    return worst


def injections(n: int, m: int):
    """Every injection of n slots into m slots, as image tuples."""
    return itertools.permutations(range(m), n)


def pullback_by_contraction(rho: np.ndarray, d: int, tau, m: int) -> np.ndarray:
    """The marginal of a level-m array on the slots ``tau``, slot ``i`` of the
    result read from slot ``tau[i]``: one einsum that names every slot, the
    slots outside ``tau`` shared between rows and columns (summed out of a
    vector)."""
    letters = iter(string.ascii_letters)
    rows = [next(letters) for _ in range(m)]
    if rho.ndim == 1:
        spec = "".join(rows) + "->" + "".join(rows[j] for j in tau)
        return np.einsum(spec, rho.reshape((d,) * m)).ravel()
    cols = [next(letters) if j in tau else rows[j] for j in range(m)]
    out = "".join(rows[j] for j in tau) + "".join(cols[j] for j in tau)
    size = d ** len(tau)
    return np.einsum("".join(rows + cols) + "->" + out, rho.reshape((d,) * (2 * m))).reshape(
        size, size
    )


def exhaustive_cone_gap(sequences, d: int) -> float:
    """``max ||pullback_tau(rho_m) - rho_n||`` over the given sequences (one
    list of levels ``rho_1..rho_N`` per apex probe state), over n <= m <= N
    and every injection ``tau`` of n slots into m: the trace norm by SVD for
    matrices, l1 for vectors."""
    worst = 0.0
    for levels in sequences:
        depth = len(levels)
        for m in range(1, depth + 1):
            for n in range(1, m + 1):
                for tau in injections(n, m):
                    diff = pullback_by_contraction(levels[m - 1], d, tau, m) - levels[n - 1]
                    if diff.ndim == 1:
                        gap = float(np.abs(diff).sum())
                    else:
                        gap = float(np.linalg.svd(diff, compute_uv=False).sum())
                    worst = max(worst, gap)
    return worst


def scipy_simplex_lstsq(a: np.ndarray, b: np.ndarray, lam: float = 1e4):
    """The augmented-row construction solved with scipy's NNLS."""
    n = a.shape[1]
    aa = np.vstack([a, lam * np.ones((1, n))])
    ba = np.concatenate([b, [lam]])
    x, _ = scipy_nnls(aa, ba, maxiter=40 * max(n, 10))
    w = x / x.sum()
    return w, float(np.linalg.norm(a @ w - b))


def scipy_lead_weighted_lstsq(a: np.ndarray, b: np.ndarray, lead, weight: float):
    """The augmented-row construction with the ``lead`` rows scaled by
    ``weight``; as ``weight`` grows its optimum tends to the lexicographic
    one (lead rows first).  The residual is measured on the unscaled rows."""
    a_w, b_w = a.copy(), b.copy()
    a_w[lead] *= weight
    b_w[lead] *= weight
    w, _ = scipy_simplex_lstsq(a_w, b_w)
    return w, float(np.linalg.norm(a @ w - b))


def bloch_grid(n_r: int = 21, n_z: int = 21, n_t: int = 24) -> list[np.ndarray]:
    """Dense midpoint grid of qubit density matrices covering the Bloch ball
    (linear in the radius, so near-center states are present)."""
    out = []
    for i in range(n_r):
        s = (i + 0.5) / n_r
        for j in range(n_z):
            z = -1 + 2 * (j + 0.5) / n_z
            for l in range(n_t):
                th = 2 * np.pi * (l + 0.5) / n_t
                r = np.sqrt(1 - z * z)
                x, y = s * r * np.cos(th), s * r * np.sin(th)
                out.append(0.5 * (I2 + x * SX + y * SY + s * z * SZ))
    return out


def singlet_residual_floor() -> float:
    """Brute-force floor for approximating (I/2, singlet) by iid mixtures
    over the dense Bloch grid.  Analytic value is sqrt(3)/2 for the continuum;
    the grid answer sits a hair above it."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    target = np.concatenate([(I2 / 2).ravel(), np.outer(psi, psi.conj()).ravel()])
    grid = bloch_grid()
    cols = np.empty((20, len(grid)), dtype=complex)
    for k, sig in enumerate(grid):
        cols[:, k] = np.concatenate([sig.ravel(), np.kron(sig, sig).ravel()])
    a = np.concatenate([cols.real, cols.imag], axis=0)
    b = np.concatenate([target.real, target.imag])
    _, residual = scipy_simplex_lstsq(a, b)
    return residual


# Frozen output of singlet_residual_floor() on the 21x21x24 grid (10584
# states); the acceptance test re-runs the oracle and checks agreement.
SINGLET_R_MIN = 0.8661890518199231


def vandermonde_rank(biases, depth: int) -> int:
    """Rank of the bias-moment system: a level-n tuple probability is a
    polynomial of degree n in the bias, so the stacked system has the rank of
    the Vandermonde matrix on powers 0..depth."""
    v = np.vander(np.asarray(biases, dtype=float), depth + 1, increasing=True)
    return int(np.linalg.matrix_rank(v))


def apply_via_choi_loops(choi: np.ndarray, x: np.ndarray, ds: int, dt: int) -> np.ndarray:
    """Map action out[k,l] = sum_ij x[i,j] J[(i,k),(j,l)] by explicit loops."""
    out = np.zeros((dt, dt), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            for k in range(dt):
                for l in range(dt):
                    out[k, l] += x[i, j] * choi[i * dt + k, j * dt + l]
    return out


def cp_probe(choi: np.ndarray, ds: int, dt: int, trials: int, seed: int) -> bool:
    """Direct complete-positivity probe: apply (map (x) id_n) to random pure
    states on C^ds (x) C^n for n up to max(ds, 3) and look for negative
    eigenvalues."""
    rng = np.random.default_rng(seed)
    j4 = choi.reshape(ds, dt, ds, dt)
    for n in range(1, max(ds, 3) + 1):
        for _ in range(trials):
            v = rng.standard_normal(ds * n) + 1j * rng.standard_normal(ds * n)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj()).reshape(ds, n, ds, n)
            # out[k,a,l,b] = sum_ij rho[i,a,j,b] J4[i,k,j,l]
            out = np.einsum("iajb,ikjl->kalb", rho, j4).reshape(dt * n, dt * n)
            out = (out + out.conj().T) / 2
            if np.linalg.eigvalsh(out).min() < -1e-9:
                return False
    return True


def kron_moment_matrix(columns, depth: int) -> np.ndarray:
    """Stacked moment design, one atom at a time: column k stacks
    ``vec(a_k^(x n))`` for n = 1..depth, each power by repeated ``np.kron``
    (``a_k`` a matrix, or a vector for a commutative base)."""
    cols = []
    for a in columns:
        chunks, cur = [], np.asarray(a)
        for _ in range(depth):
            chunks.append(cur.ravel())
            cur = np.kron(cur, a)
        cols.append(np.concatenate(chunks))
    return np.stack(cols, axis=1)


def kron_residual(columns, levels, weights) -> float:
    """``sqrt(sum_n ||rho_n - sum_k w_k a_k^(x n)||_F^2)`` on raw arrays: the
    stacked levels ``rho_1 .. rho_N`` against :func:`kron_moment_matrix` of
    ``columns`` at ``weights``."""
    design = kron_moment_matrix(columns, len(levels))
    target = np.concatenate([np.ravel(lv) for lv in levels])
    return float(np.linalg.norm(design @ weights - target))
