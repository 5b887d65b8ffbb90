"""Finitely supported probability: the distribution monad and iid mixtures.

Measures on a finite set are plain probability vectors over an ordered label
list.  Measures on ``X^n`` use lexicographic tuple order, which makes the
product measure a Kronecker power and keeps every index manipulation a
reshape/transpose, mirroring the quantum tower.

A finite probability space is a commutative algebra, so exchangeable
families and grids of biases are handled by the tower's own machinery:
``encode_seq`` makes a family an :class:`~finetti.exchange.ExchSeq` on the
all-ones block algebra of its space, ``grid_atoms`` makes a grid an
:class:`~finetti.definetti.AtomSet` there (the tower keeps no labels, so it
reads each measure in the space's label order), and ``hs_reconstruct``,
``classical_moment_rank`` and ``check_exchangeable_measures`` are the
tower's fit, design rank and check on them.  On that base the symmetric
coordinates of :mod:`finetti.symmetric` are the type counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cstar import PROB_TOL, Algebra, StateVec, probability_vector
from .definetti import AtomSet, reconstruct
from .exchange import ExchSeq, ExchangeReport, check_exchangeable


@dataclass
class FinDist:
    """A probability vector over an ordered finite label list."""

    space: list
    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = probability_vector(self.probs, len(self.space))


def dirac(x, space) -> FinDist:
    space = list(space)
    p = np.zeros(len(space))
    p[space.index(x)] = 1.0
    return FinDist(space, p)


def pushforward(f, dist: FinDist, space=None) -> FinDist:
    """Image measure along ``f`` (callable or mapping on labels)."""
    get = f.__getitem__ if hasattr(f, "__getitem__") else f
    images = [get(x) for x in dist.space]
    if space is None:
        space = list(dict.fromkeys(images))
    else:
        space = list(space)
    p = np.zeros(len(space))
    for img, w in zip(images, dist.probs):
        p[space.index(img)] += w
    return FinDist(space, p)


def flatten(outer: FinDist) -> FinDist:
    """Average a distribution over distributions (labels must be FinDists on
    one common space)."""
    inner = outer.space
    if not inner or not all(isinstance(d, FinDist) for d in inner):
        raise ValueError("flatten needs a distribution over FinDists")
    space = inner[0].space
    for d in inner[1:]:
        if d.space != space:
            raise ValueError("inner distributions live on different spaces")
    p = sum(w * d.probs for w, d in zip(outer.probs, inner))
    return FinDist(space, p)


@dataclass
class Kernel:
    """A row-stochastic matrix from one finite space to another."""

    source: list
    target: list
    rows: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rows, dtype=float)
        if r.shape != (len(self.source), len(self.target)):
            raise ValueError(
                f"rows {r.shape} do not match {len(self.source)}x{len(self.target)}"
            )
        for row in r:
            probability_vector(row, len(self.target))
        r.setflags(write=False)
        self.rows = r

    def __call__(self, dist: FinDist) -> FinDist:
        if dist.space != self.source:
            raise ValueError("distribution space does not match kernel source")
        return FinDist(self.target, dist.probs @ self.rows)


def kleisli_compose(k1: Kernel, k2: Kernel) -> Kernel:
    """Chain kernels: first ``k1``, then ``k2`` (a row-stochastic product)."""
    if k1.target != k2.source:
        raise ValueError("kernels do not chain: target != source")
    return Kernel(k1.source, k2.target, k1.rows @ k2.rows)


# --- tuple spaces -------------------------------------------------------------

def tuple_space(space, n: int) -> list:
    return list(itertools.product(space, repeat=n))


def product_measure(mu: FinDist, n: int) -> FinDist:
    """The iid n-fold product, in lexicographic tuple order."""
    if n < 1:
        raise ValueError("need n >= 1")
    p = mu.probs
    for _ in range(n - 1):
        p = np.kron(p, mu.probs)
    return FinDist(tuple_space(mu.space, n), p)


# --- exchangeable families ----------------------------------------------------

@dataclass
class ClassicalExchSeq:
    """Measures ``mu_1 .. mu_N`` on the tuple powers of a finite space.

    Level n is read in the lexicographic order of ``tuple_space(space, n)``
    (level 1 may list the bare labels): a level that lists its labels in
    another order is reordered, and one on other labels is refused.
    """

    space: list
    depth: int
    measures: list[FinDist] = field(repr=False)
    tolerance: float = PROB_TOL

    def __post_init__(self) -> None:
        if self.depth != len(self.measures):
            raise ValueError(f"depth {self.depth} != {len(self.measures)} measures")
        if self.depth < 1:
            raise ValueError("need at least one level")
        k = len(self.space)
        measures = []
        for n, mu in enumerate(self.measures, start=1):
            if len(mu.space) != k**n:
                raise ValueError(f"level {n} has {len(mu.space)} labels, expected {k**n}")
            measures.append(self._read_level(n, mu))
        self.measures = measures

    def _read_level(self, n: int, mu: FinDist) -> FinDist:
        labels = tuple_space(self.space, n)
        try:
            probs = _in_order(mu, labels)
        except ValueError:
            if n > 1:
                raise
            labels = list(self.space)
            probs = _in_order(mu, labels)
        return mu if probs is mu.probs else FinDist(labels, probs)

    def level(self, n: int) -> FinDist:
        return self.measures[n - 1]


def synthesize_measures(
    grid: list[FinDist], weights, depth: int, tolerance: float = PROB_TOL
) -> ClassicalExchSeq:
    """Mixture of iid products over a grid of biases, read in the first's
    label order."""
    w = np.asarray(weights, dtype=float)
    space = grid[0].space
    grid = [FinDist(space, _in_order(mu, space)) for mu in grid]
    measures = []
    for n in range(1, depth + 1):
        p = sum(wk * product_measure(mu, n).probs for wk, mu in zip(w, grid))
        measures.append(FinDist(tuple_space(space, n), p))
    return ClassicalExchSeq(space, depth, measures, tolerance)


def check_exchangeable_measures(seq: ClassicalExchSeq) -> ExchangeReport:
    """:func:`~finetti.exchange.check_exchangeable` on the encoded family:
    symmetry and marginal consistency in total variation (l1) norm."""
    return check_exchangeable(encode_seq(seq))


def classical_moment_rank(grid: list[FinDist], depth: int) -> int:
    return grid_atoms(grid).rank(depth)


def hs_reconstruct(
    seq: ClassicalExchSeq, grid: list[FinDist], *, check: bool = True
) -> tuple[np.ndarray, float]:
    """Recover a mixing measure over ``grid`` from an exchangeable family:
    :func:`~finetti.definetti.reconstruct` on the encoded family and the grid
    read in the family's label order.  Returns the weights and the residual
    over all levels."""
    mix, residual = reconstruct(encode_seq(seq), grid_atoms(grid, seq.space), check=check)
    return mix.weights, residual


# --- commutative encoding bridge ----------------------------------------------

def encode_space(space) -> Algebra:
    """The all-ones block algebra of functions on a finite set."""
    return Algebra((1,) * len(space))


def grid_atoms(grid: list[FinDist], space=None) -> AtomSet:
    """A grid of measures as the atom set of their encodings on the algebra
    of ``space`` (by default the first measure's labels), each measure read
    in the label order of ``space``.  A measure whose labels are not a
    reordering of ``space`` is refused."""
    space = list(grid[0].space if space is None else space)
    base = encode_space(space)
    return AtomSet(
        base, [StateVec(base, [np.array([[p]]) for p in _in_order(g, space)]) for g in grid]
    )


def label_key(label):
    """A label as labels are matched: by equality, except that a boolean is
    never a number (JSON's ``true`` is not its ``1``, while ``1`` and ``1.0``
    stay one number).  Tuples and lists are keyed entry by entry."""
    if isinstance(label, (tuple, list)):
        return type(label), tuple(map(label_key, label))
    if isinstance(label, (bool, np.bool_)):
        return bool, bool(label)
    return label


def _in_order(dist: FinDist, space: list) -> np.ndarray:
    """The probabilities of ``dist`` in the label order of ``space``, labels
    matched by :func:`label_key`."""
    have, want = list(map(label_key, dist.space)), list(map(label_key, space))
    if have == want:
        return dist.probs
    order = [have.index(x) if x in have else -1 for x in want]
    if sorted(order) != list(range(len(have))):
        raise ValueError(f"labels {dist.space} are not a reordering of {space}")
    return dist.probs[order]


def encode_seq(seq: ClassicalExchSeq) -> ExchSeq:
    """A classical family as the tower on the all-ones block algebra of its
    space: the probability vectors are its packed levels (lexicographic
    tuple order matches slot order)."""
    levels = tuple(mu.probs for mu in seq.measures)
    return ExchSeq(encode_space(seq.space), levels, seq.tolerance)


def bernoulli(space, p_first: float) -> FinDist:
    """A two-point measure: probability ``p_first`` on the first label."""
    if len(space) != 2:
        raise ValueError("bernoulli needs a two-point space")
    return FinDist(list(space), np.array([p_first, 1.0 - p_first]))
