"""JSON interchange for every value the command line reads or writes.

Complex scalars travel as ``[re, im]`` pairs (bare numbers are accepted on
input), matrices as row lists, probabilities on the points of a ``space``
(whose labels may not repeat) as JSON numbers.  Floats are emitted with
Python's shortest round-trip repr, so ``decode(encode(x))`` is exact.
:func:`detect_sequence` reads both sequence kinds, and one level decoder
reads every level and atom; a grid is read in a given label order.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys

import numpy as np

from .classical import FinDist, encode_space, grid_atoms, label_key
from .cpmaps import (
    HEISENBERG,
    SCHRODINGER,
    ChoiMap,
    is_completely_positive,
    is_trace_preserving,
    is_unital,
)
from .cstar import Algebra, StateVec, make_state, probability_vector
from .definetti import (
    AtomSet,
    Cone,
    MediatingMap,
    Mixture,
    UniquenessReport,
    explicit_atoms,
)
from .exchange import ExchSeq, ExchangeReport


class SchemaError(ValueError):
    """Input parsed as JSON but does not match the expected document shape."""


def _fail(path: str, msg: str):
    raise SchemaError(f"{path}: {msg}")


# --- scalars and matrices ----------------------------------------------------

def encode_complex(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(v, path: str = "value") -> complex:
    """A JSON number or ``[re, im]`` pair of them; a boolean is not a number."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if not all(type(x) in (int, float) for x in parts):
        _fail(path, f"expected number or [re, im] pair, got {v!r}")
    if not all(abs(x) <= sys.float_info.max for x in parts):  # NaN compares False
        _fail(path, f"non-finite entry {v!r}")
    return complex(*parts)


def decode_reals(row, path: str = "vector") -> np.ndarray:
    """A list of JSON numbers as a float vector; strings, booleans and null
    are not numbers here."""
    if not isinstance(row, list):
        _fail(path, "expected a list of numbers")
    if not set(map(type, row)) <= {int, float}:
        i, v = next((i, v) for i, v in enumerate(row) if type(v) not in (int, float))
        _fail(f"{path}[{i}]", f"expected a number, got {v!r}")
    try:
        return np.array(row, dtype=float)
    except OverflowError:
        _fail(path, "non-finite entry: an integer beyond the float range")


def decode_tol(value, path: str = "tol") -> float:
    """A tolerance: a finite real number >= 0."""
    if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
        _fail(path, f"tolerance must be a finite number >= 0, got {value!r}")
    return float(value)


def encode_matrix(m: np.ndarray):
    m = np.asarray(m)
    return [[encode_complex(x) for x in row] for row in m.tolist()]


def _numeric_matrix(rows, width: int) -> np.ndarray | None:
    """``rows`` as a complex matrix in one numpy conversion, or None when it
    needs the per-entry path: anything but finite numbers or ``[re, im]``
    pairs of them, or ragged rows."""
    try:
        arr = np.array(rows)
    except ValueError:
        return None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        return None
    if arr.shape not in ((len(rows), width, 2), (len(rows), width)):
        return None
    # numpy reads a boolean among numbers as 0 or 1, so a matrix holding one
    # goes to the per-entry path, which names it.  Only the entries that read
    # 0 or 1 can be booleans: one pass reads their types.
    maybe = (arr == 0) | (arr == 1)
    if arr.ndim == 3:
        maybe = maybe.any(axis=2)  # both parts of a candidate pair are read
    if maybe.any():
        flat = list(itertools.chain.from_iterable(rows))
        entries = map(flat.__getitem__, np.flatnonzero(maybe).tolist())
        if arr.ndim == 3:
            entries = itertools.chain.from_iterable(entries)
        if bool in set(map(type, entries)):
            return None
    if arr.ndim == 3:
        # A C-ordered float pair [re, im] is the memory layout of one complex.
        return arr.astype(float).view(complex)[..., 0]
    return arr.astype(complex)


def decode_matrix(rows, path: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        _fail(path, "expected a non-empty list of rows")
    width = len(rows[0])
    out = _numeric_matrix(rows, width)
    if out is not None:
        return out
    out = np.zeros((len(rows), width), dtype=complex)
    for i, row in enumerate(rows):
        if len(row) != width:
            _fail(path, f"row {i} has length {len(row)}, expected {width}")
        for j, v in enumerate(row):
            out[i, j] = decode_complex(v, f"{path}[{i}][{j}]")
    return out


def _decode_blocks(doc, key: str, path: str) -> Algebra:
    blocks = _require(doc, key, path)
    if not isinstance(blocks, list) or not blocks or not all(
        type(b) is int and b >= 1 for b in blocks
    ):
        _fail(path, f"field {key!r} must be a non-empty list of positive integers")
    return Algebra(tuple(blocks))


def _require(doc, key: str, path: str):
    if not isinstance(doc, dict) or key not in doc:
        _fail(path, f"missing field {key!r}")
    return doc[key]


def _require_int(doc, key: str, path: str) -> int:
    """A required integer field; a boolean is not one."""
    value = _require(doc, key, path)
    if type(value) is not int:
        _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    return value


# --- states and maps -----------------------------------------------------------

def encode_state(s: StateVec) -> dict:
    return {"blocks": list(s.algebra.blocks), "dens": [encode_matrix(m) for m in s.dens]}


def decode_state(doc, path: str = "state") -> StateVec:
    alg = _decode_blocks(doc, "blocks", path)
    mats = _require(doc, "dens", path)
    if not isinstance(mats, list) or len(mats) != alg.n_blocks:
        _fail(path, f"'dens' must list {alg.n_blocks} blocks")
    dens = [decode_matrix(m, f"{path}.dens[{i}]") for i, m in enumerate(mats)]
    try:
        return make_state(alg, dens)
    except ValueError as e:
        _fail(path, str(e))


def encode_choi(f: ChoiMap) -> dict:
    return {
        "source": list(f.source.blocks),
        "target": list(f.target.blocks),
        "direction": f.direction,
        "choi": encode_matrix(f.choi),
    }


def decode_choi(doc, path: str = "map") -> ChoiMap:
    source = _decode_blocks(doc, "source", path)
    target = _decode_blocks(doc, "target", path)
    direction = _require(doc, "direction", path)
    if direction not in ("H", "S"):
        _fail(path, f"direction must be 'H' or 'S', got {direction!r}")
    choi = decode_matrix(_require(doc, "choi", path), f"{path}.choi")
    try:
        f = ChoiMap(source, target, direction, choi)
    except ValueError as e:
        _fail(path, str(e))
    if not is_completely_positive(f):
        _fail(path, "map is not completely positive")
    if direction == SCHRODINGER and not is_trace_preserving(f):
        _fail(path, "map is not trace preserving")
    if direction == HEISENBERG and not is_unital(f):
        _fail(path, "map is not unital")
    return f


# --- sequences ------------------------------------------------------------------

def encode_exch_seq(seq: ExchSeq) -> dict:
    """The quantum sequence document on a single-block base, the classical
    one (points labelled 0..b-1) on a commutative base."""
    if seq.base.is_commutative:
        return {
            "space": list(range(seq.base.n_blocks)),
            "depth": seq.depth,
            "measures": [lv.real.tolist() for lv in seq.levels],
            "tol": seq.tolerance,
        }
    return {
        "base_dim": seq.base.blocks[0],
        "depth": seq.depth,
        "states": [encode_matrix(lv) for lv in seq.levels],
        "tol": seq.tolerance,
    }


def _decode_space(doc, path: str) -> list:
    """A document's point labels: at least two, none repeated, since grids
    are matched to them label by label (by
    :func:`~finetti.classical.label_key`, so ``true`` is not ``1``)."""
    space = _require(doc, "space", path)
    if not isinstance(space, list) or len(space) < 2:
        _fail(path, "'space' must list at least two labels")
    keys = list(map(label_key, space))
    if any(keys.index(x) != i for i, x in enumerate(keys)):
        _fail(f"{path}.space", f"repeated labels in {space!r}")
    return space


def _decode_level(value, points: bool, size: int | None, path: str) -> np.ndarray:
    """One sequence level or atom: a probability vector of ``size`` entries
    on points, else a ``size x size`` density matrix (any square size when
    ``size`` is None)."""
    if points:
        probs = decode_reals(value, path)
        try:
            return probability_vector(probs, size)
        except ValueError as e:
            _fail(path, str(e))
    mat = decode_matrix(value, path)
    n = mat.shape[0] if size is None else size
    if mat.shape != (n, n):
        _fail(path, f"matrix is {mat.shape}, expected {(n, n)}")
    try:
        return make_state(Algebra((n,)), [mat]).dens[0]
    except ValueError as e:
        _fail(path, str(e))


# --- atoms, mixtures, cones ------------------------------------------------------

def encode_atoms(atoms: AtomSet) -> dict:
    if atoms.base.n_blocks != 1:
        return {
            "space": list(range(atoms.base.n_blocks)),
            "grid": [[float(m[0, 0].real) for m in s.dens] for s in atoms.atoms],
        }
    return {"atoms": [encode_matrix(s.dens[0]) for s in atoms.atoms]}


def decode_atoms(doc, path: str = "atoms", space=None) -> AtomSet:
    """An atom dictionary: density matrices under ``atoms``, or probability
    rows under ``grid`` on the labels of its ``space``, read in the label
    order of ``space`` (by default the document's own)."""
    points = isinstance(doc, dict) and "grid" in doc
    if points:
        labels, rows = _decode_space(doc, path), doc["grid"]
        if not isinstance(rows, list) or not rows:
            _fail(path, "'grid' must be a non-empty list of probability rows")
        grid = [
            FinDist(labels, _decode_level(row, True, len(labels), f"{path}.grid[{i}]"))
            for i, row in enumerate(rows)
        ]
    else:
        mats = _require(doc, "atoms", path)
        if not isinstance(mats, list) or not mats:
            _fail(path, "'atoms' must be a non-empty list of matrices")
        dens = [_decode_level(m, False, None, f"{path}.atoms[{i}]") for i, m in enumerate(mats)]
    try:
        if points:
            return grid_atoms(grid, space)
        return explicit_atoms(StateVec(Algebra(m.shape[:1]), [m]) for m in dens)
    except ValueError as e:
        _fail(path, str(e))


def encode_mixture(mix: Mixture) -> dict:
    doc = encode_atoms(mix.atomset)
    doc["weights"] = [float(w) for w in mix.weights]
    return doc


def decode_mixture(doc, path: str = "mixture") -> Mixture:
    atoms = decode_atoms(doc, path)
    weights = decode_reals(_require(doc, "weights", path), f"{path}.weights")
    try:
        return Mixture(atoms, weights)
    except ValueError as e:
        _fail(path, str(e))


def encode_cone(cone: Cone) -> dict:
    return {
        "apex": list(cone.apex.blocks),
        "depth": cone.depth,
        "channels": [encode_choi(ch) for ch in cone.channels],
        "tol": cone.tolerance,
    }


def decode_cone(doc, path: str = "cone") -> Cone:
    apex = _decode_blocks(doc, "apex", path)
    depth = _require_int(doc, "depth", path)
    chans = _require(doc, "channels", path)
    if not isinstance(chans, list) or len(chans) != depth:
        _fail(path, f"'channels' must list {depth} maps")
    tol = decode_tol(doc.get("tol", 1e-9), f"{path}.tol")
    channels = [decode_choi(c, f"{path}.channels[{i}]") for i, c in enumerate(chans)]
    try:
        return Cone(apex, depth, channels, tol)
    except ValueError as e:
        _fail(path, str(e))


def encode_mediating(med: MediatingMap) -> dict:
    return {
        "apex": list(med.apex.blocks),
        "atoms": encode_atoms(med.atomset),
        "probes": [encode_state(p) for p in med.probes],
        "weights": [[float(w) for w in row] for row in med.weights],
        "residuals": [float(r) for r in med.residuals],
    }


# --- reports ---------------------------------------------------------------------

def encode_report(report: ExchangeReport, kind: str) -> dict:
    return {
        "kind": kind,
        "ok": report.ok,
        "tolerance": report.tolerance,
        "max_violation": report.max_violation,
        "levels": [
            {
                "level": lv.level,
                "symmetry": lv.symmetry,
                "symmetry_bound": lv.symmetry_bound,
                "consistency": lv.consistency,
                "worst_source": lv.worst_source,
            }
            for lv in report.levels
        ],
    }


def encode_uniqueness(rep: UniquenessReport) -> dict:
    """The report's fields, with an infinite margin (no probe has an atom
    off its support) written as ``null``, which JSON can carry."""
    doc = dataclasses.asdict(rep)
    if rep.margin == float("inf"):
        doc["margin"] = None
    return doc


# --- top-level I/O ----------------------------------------------------------------

def detect_sequence(doc, path: str = "input") -> ExchSeq:
    """The tower of a sequence document: density matrices under ``states``
    on a ``base_dim`` matrix block, or probability vectors under
    ``measures`` on the points of ``space`` (level n over ``space^n`` in
    lexicographic order; the tower keeps no labels)."""
    if not isinstance(doc, dict):
        _fail(path, "expected a JSON object")
    if "base_dim" in doc:
        d = _require_int(doc, "base_dim", path)
        if d < 2:
            _fail(path, f"base_dim must be an integer >= 2, got {d!r}")
        base, key = Algebra((d,)), "states"
    elif "space" in doc:
        base, key = encode_space(_decode_space(doc, path)), "measures"
    else:
        _fail(path, "cannot tell the sequence kind: need 'base_dim' or 'space'")
    depth = _require_int(doc, "depth", path)
    rows = _require(doc, key, path)
    if not isinstance(rows, list) or len(rows) != depth:
        _fail(path, f"{key!r} must list {depth} levels")
    tol = decode_tol(doc.get("tol", 1e-9), f"{path}.tol")
    levels = tuple(
        _decode_level(row, base.is_commutative, base.rep_dim**n, f"{path}.{key}[{n - 1}]")
        for n, row in enumerate(rows, start=1)
    )
    try:
        return ExchSeq(base, levels, tol)
    except ValueError as e:
        _fail(path, str(e))


def load_document(filename: str):
    with open(filename, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_document(doc, filename: str | None) -> str:
    text = json.dumps(doc, indent=2)
    if filename:
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
