"""Spans around calls into finetti's public functions, for the traced run.

The tracer replaces each function in ``TRACED`` at every ``finetti`` module
attribute that binds it (``definetti`` and ``cli`` import names from other
modules, and callers inside a module look its functions up as globals), so
every call, direct or nested, opens a span.  A span records its name, start,
end, parent span and the op it belongs to (-1 for set-up).  Spans are held in
flat arrays and written out once, when the run ends.

Counters that need the calls' arguments or results (bytes moved, Frank-Wolfe
gaps, support sizes) are *computed*: the wrapper only keeps references, and
``drain`` evaluates them between ops, outside every span and outside the op
timing.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# Public functions wrapped in the traced run, by module.
TRACED = {
    "cli": ["main"],
    "serialize": ["load_document", "detect_sequence", "encode_report", "dump_document"],
    "exchange": [
        "check_exchangeable",
        "eta_sigma",
        "restrict_state",
        "level_of",
        "pullback_state",
    ],
    "cstar": ["state_distance"],
    "classical": ["check_exchangeable_measures", "hs_reconstruct"],
    "definetti": [
        "default_atoms",
        "explicit_atoms",
        "synthesize",
        "moment_matrix",
        "moment_rank",
        "reconstruct",
        "probe_states",
        "check_cone",
        "mediating_map",
        "factorization_error",
        "uniqueness_check",
    ],
    "cpmaps": ["choi_from_function", "apply"],
    "solvers": ["simplex_lstsq", "nnls"],
}

# Calls whose arguments or results feed a computed counter.
RECORDED = {
    "serialize.load_document",
    "serialize.dump_document",
    "definetti.moment_matrix",
    "solvers.simplex_lstsq",
}

# A solve counts as certified when its Frank-Wolfe gap, an upper bound on
# f(w) - f* for f(w) = ||Aw - b||^2 over the simplex, is at most this.
GAP_TOL = 1e-10

# Computed counters: name -> unit.
COMPUTED = {
    "serialize.bytes_in": "B",
    "serialize.bytes_out": "B",
    "definetti.moment_matrix.bytes": "B",
    "solvers.support_mean": "atoms",
    "solvers.fw_gap_max": "1",
    "solvers.certified_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric the traced run prints: name -> unit."""
    out = {}
    for module, names in TRACED.items():
        for fn in names:
            out[f"{module}.{fn}.calls"] = "count"
            out[f"{module}.{fn}.self_ms"] = "ms"
    out.update(COMPUTED)
    return out


def frank_wolfe_gap(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """``g.w - min_k g_k`` with ``g = 2 A^T (A w - b)``: bounds ``f(w) - f*``
    for ``f(w) = ||A w - b||^2`` over the probability simplex."""
    g = 2.0 * (a.T @ (a @ w - b))
    return float(g @ w - g.min())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.recorded: list[tuple] = []
        self.counters = {
            "serialize.bytes_in": 0,
            "serialize.bytes_out": 0,
            "definetti.moment_matrix.bytes": 0,
        }
        self.solves = 0
        self.support_total = 0
        self.gap_max = 0.0
        self.certified = 0
        self._restore: list[tuple] = []

    # --- installing -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "finetti" or name.startswith("finetti."))
        ]
        for module, names in TRACED.items():
            home = sys.modules[f"finetti.{module}"]
            for fn in names:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{module}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _wrap(self, qualname: str, fn):
        ix = len(self.names)
        self.names.append(qualname)
        keep = qualname in RECORDED
        name_id, start, end, parent, op = self.name_id, self.start, self.end, self.parent, self.op
        stack, recorded, now = self.stack, self.recorded, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(ix)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            start.append(0.0)
            stack.append(sid)
            result = None
            start[sid] = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[sid] = now()
                stack.pop()
                if keep:
                    recorded.append((qualname, args, result))

        return wrapper

    # --- computed counters -------------------------------------------------------

    def drain(self) -> None:
        """Evaluate the counters of the calls recorded since the last drain."""
        for qualname, args, result in self.recorded:
            if qualname == "serialize.load_document":
                if os.path.exists(args[0]):
                    self.counters["serialize.bytes_in"] += os.path.getsize(args[0])
            elif qualname == "serialize.dump_document":
                if isinstance(result, str):
                    self.counters["serialize.bytes_out"] += len(result.encode("utf-8"))
            elif qualname == "definetti.moment_matrix":
                atoms, depth = args[0], args[1]
                base = atoms.base
                packed = base.blocks[0] ** 2 if base.n_blocks == 1 else base.n_blocks
                rows = sum(packed**n for n in range(1, depth + 1))
                self.counters["definetti.moment_matrix.bytes"] += 16 * len(atoms) * rows
            elif qualname == "solvers.simplex_lstsq" and result is not None:
                a = np.asarray(args[0], dtype=float)
                b = np.asarray(args[1], dtype=float).ravel()
                w = result[0]
                gap = frank_wolfe_gap(a, b, w)
                self.solves += 1
                self.support_total += int(np.count_nonzero(w > 0))
                self.gap_max = max(self.gap_max, gap)
                self.certified += gap <= GAP_TOL
        self.recorded.clear()

    # --- results --------------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        self.drain()
        n_names = len(self.names)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        par = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(ids, minlength=n_names)
        self_ms = np.bincount(ids, weights=self_time, minlength=n_names) * 1e3
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
        out.update(self.counters)
        out["solvers.support_mean"] = self.support_total / self.solves if self.solves else 0.0
        out["solvers.fw_gap_max"] = self.gap_max
        # With no solves at all nothing is uncertified: the ratio is 1.
        out["solvers.certified_ratio"] = self.certified / self.solves if self.solves else 1.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
