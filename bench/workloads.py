"""The three workloads of the finetti benchmark.

Each workload

* builds the program objects it reuses in ``setup`` (timed as set-up);
* makes one round of seeded inputs in ``make_round`` with numpy alone, and
  records the expected outcome with each input (the benchmark's own work,
  untimed);
* runs one op per input in ``execute`` (timed);
* checks the op's outcome in ``check`` (untimed).

A round is a fixed list of input slots: the seed changes what is in each
slot, never the mix of sizes, so the latency percentiles of every seed fall in
the same slots.  ``tiny`` shrinks every size for the self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from finetti import classical, cli, cpmaps, definetti, exchange, fixtures
from finetti.cstar import Algebra, StateVec

# Inputs synthesized from a dictionary have optimum residual exactly 0.
RESIDUAL_TOL = 1e-8
# Largest residual counted as the seed program's known early stop (below):
# about 2.5 x the worst it reached on a synthesized input, 0.0118, over the
# 2912 inputs of 28 seeds (782 of them stopped early).  A larger residual is
# a new failure, not the known defect.
STOP_CEILING = 0.03
# Acceptance criterion 5: 0.9 x the Bloch-grid floor 0.86619 for the singlet.
SINGLET_FLOOR = 0.7796
# Largest factorization error accepted for a representable cone.
FACTOR_TOL = 1e-7
# Size of the perturbation that breaks a tower (far above the 1e-9 tolerance).
PERTURBATION = 1e-3

# Failures the seed program is known to have.  They count in ``fail_share``
# and lower ``ok_share`` like any other; a failure outside this list counts in
# the result's ``failed`` and makes the run incorrect.
KNOWN_DEFECTS = {
    "nan-not-rejected": (
        "a NaN entry is not rejected with exit 2: it escapes cli.main as an "
        "exception or passes the check"
    ),
    "non-positive-accepted": "check passes a non-positive level 1 instead of exiting 2",
    "solver-stops-early": (
        f"reconstruct stops above the optimum 0 of a synthesized input: residual "
        f"over {RESIDUAL_TOL:g} and at most {STOP_CEILING:g}"
    ),
}


@dataclass
class Op:
    category: str
    payload: object
    expect: object


@dataclass
class Verdict:
    ok: bool
    defect: str | None = None  # a KNOWN_DEFECTS key when the failure is known
    detail: str = ""


PASSED = Verdict(True)


def _failed(detail: str, defect: str | None = None) -> Verdict:
    return Verdict(False, defect, detail)


# --- numpy-only input generators ----------------------------------------------------


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random density matrix: pure half the time, else Hilbert-Schmidt mixed."""
    if rng.random() < 0.5:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return np.outer(v, v.conj()) / np.vdot(v, v).real
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def mixture_tower(atoms, weights, depth: int) -> list[np.ndarray]:
    """Levels ``sum_k w_k a_k^(x n)`` for n = 1..depth (matrices or vectors)."""
    levels, powers = [], [np.asarray(a) for a in atoms]
    for n in range(1, depth + 1):
        levels.append(sum(w * p for w, p in zip(weights, powers)))
        if n < depth:
            powers = [np.kron(p, a) for p, a in zip(powers, atoms)]
    return levels


def design(columns, depth: int) -> np.ndarray:
    """Stacked moment columns ``vec(a^(x n))``, n = 1..depth, one per atom."""
    return np.stack(
        [np.concatenate([lv.ravel() for lv in mixture_tower([a], [1.0], depth)]) for a in columns],
        axis=1,
    )


def _matrix_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


# --- check-docs --------------------------------------------------------------------


class CheckDocs:
    """In-process ``finetti check`` on generated JSON tower documents."""

    name = "check-docs"
    # (kind, space, points, depth).  Kinds: exch -> exit 0; sym and marg break
    # slot symmetry or marginal consistency -> exit 1; malformed -> exit 2,
    # cycling through MALFORMED from slot to slot.  The sizes are grouped so
    # that the median and the 90th percentile of op latency each fall inside
    # a group of similar cost, not on an edge between groups.
    SLOTS = [
        ("malformed", "q", 2, 3),
        ("malformed", "q", 2, 3),
        ("sym", "c", 6, 4),
        ("exch", "q", 3, 3),
        ("sym", "q", 3, 3),
        ("exch", "q", 2, 4),
        ("marg", "c", 2, 8),
        ("exch", "c", 2, 12),
        # about 20 ms: the median
        ("exch", "q", 2, 5),
        ("exch", "q", 2, 5),
        ("sym", "q", 2, 5),
        ("marg", "q", 2, 5),
        ("exch", "q", 3, 4),
        ("exch", "c", 6, 6),
        # about 0.4 s: the 90th percentile
        ("exch", "q", 2, 6),
        ("exch", "q", 2, 6),
        ("marg", "q", 2, 6),
        ("exch", "q", 2, 7),
        ("sym", "q", 2, 7),
    ]
    TINY_SLOTS = [
        ("exch", "q", 2, 3),
        ("exch", "c", 2, 4),
        ("sym", "q", 2, 3),
        ("marg", "c", 2, 3),
        ("malformed", "q", 2, 2),
        ("malformed", "q", 2, 2),
        ("malformed", "q", 2, 2),
        ("malformed", "q", 2, 2),
    ]
    MALFORMED = ["bad-json", "nan", "wrong-shape", "non-positive"]
    EXIT = {"exch": 0, "sym": 1, "marg": 1}
    pool_rounds = 2
    trace_rounds = 4

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed, self.workdir = seed, workdir
        self.slots = self.TINY_SLOTS if tiny else self.SLOTS
        self._count = 0
        self._malformed = 0

    def setup(self) -> dict:
        # Every op decodes its own document: the CLI path reuses nothing.
        return {}

    def make_round(self, env, rng) -> list[Op]:
        return [self._make(rng, *slot) for slot in self.slots]

    def _tower(self, rng, space, d, depth, perturb=None):
        s = int(rng.integers(1, 5))
        if space == "q":
            atoms = [random_state(rng, d) for _ in range(s)]
            noise = lambda: random_state(rng, d)  # noqa: E731
        else:
            atoms = list(rng.dirichlet(np.ones(d), size=s))
            noise = lambda: rng.dirichlet(np.ones(d))  # noqa: E731
        levels = mixture_tower(atoms, rng.dirichlet(np.ones(s)), depth)
        eps = PERTURBATION
        if perturb == "sym":  # a product of distinct factors on the top level
            prod = noise()
            for _ in range(depth - 1):
                prod = np.kron(prod, noise())
            levels[-1] = (1 - eps) * levels[-1] + eps * prod
        elif perturb == "marg":  # level 1 no longer the marginal of level 2
            levels[0] = (1 - eps) * levels[0] + eps * noise()
        return levels

    def _make(self, rng, kind, space, d, depth) -> Op:
        if kind == "malformed":
            kind = self.MALFORMED[self._malformed % len(self.MALFORMED)]
            self._malformed += 1
        if kind in ("exch", "sym", "marg"):
            levels = self._tower(rng, space, d, depth, None if kind == "exch" else kind)
        elif kind == "non-positive":
            levels = mixture_tower([np.diag([1.5, -0.5]).astype(complex)], [1.0], depth)
        else:
            levels = self._tower(rng, space, d, depth)
        if space == "q":
            mats = [_matrix_json(m) for m in levels]
            if kind == "wrong-shape":
                mats[1] = _matrix_json(levels[0])
            elif kind == "nan":
                mats[1][0][0] = [float("nan"), 0.0]
            doc = {"base_dim": d, "depth": depth, "states": mats, "tol": 1e-9}
        else:
            labels = [f"x{i}" for i in range(d)]
            doc = {
                "space": labels,
                "depth": depth,
                "measures": [[float(p) for p in lv.real] for lv in levels],
                "tol": 1e-9,
            }
        text = json.dumps(doc)
        if kind == "bad-json":
            text = text[: int(rng.integers(1, len(text) - 1))]
        self._count += 1
        path = os.path.join(self.workdir, f"doc{self._count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        expect = {
            "exit": self.EXIT.get(kind, 2),
            "kind": "quantum" if space == "q" else "classical",
            "depth": depth,
            "input": kind,
        }
        dims = f"{'qubit' if d == 2 else 'qutrit'}" if space == "q" else f"{d}pt"
        return Op(f"{kind}-{dims}-d{depth}", path, expect)

    def execute(self, env, op: Op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["check", "--input", op.payload, "--format", "json"])
        return code, out.getvalue()

    def check(self, op: Op, value, error) -> Verdict:
        exp = op.expect
        if error is not None:
            if exp["input"] == "nan":
                return _failed(f"{type(error).__name__} escaped", "nan-not-rejected")
            return _failed(f"raised {type(error).__name__}: {error}")
        code, text = value
        if code != exp["exit"]:
            if exp["input"] in ("nan", "non-positive") and code in (0, 1):
                defect = "nan-not-rejected" if exp["input"] == "nan" else "non-positive-accepted"
                return _failed(f"exit {code}", defect)
            return _failed(f"exit {code}, expected {exp['exit']}")
        if code == 2:
            return PASSED if not text.strip() else _failed("report printed on exit 2")
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return _failed("report is not JSON")
        if report.get("ok") is not (code == 0) or report.get("kind") != exp["kind"]:
            return _failed("report disagrees with the exit code or the sequence kind")
        if len(report.get("levels", [])) != exp["depth"]:
            return _failed("report does not cover every level")
        return PASSED


# --- reconstruct-dict -----------------------------------------------------------------


class ReconstructDict:
    """Library ``reconstruct`` + ``moment_rank`` over dictionaries built once."""

    name = "reconstruct-dict"
    # (kind, dictionary, depth).  sparse: 1-5 atoms of the dictionary with
    # Dirichlet weights; uniform: every atom of a rank-deficient fixture grid;
    # singlet: the depth-2 singlet tower, which no mixture reproduces.  As in
    # check-docs, the sizes are grouped so that the median and the 90th
    # percentile fall inside groups of similar cost, with as many slots below
    # the median group as above it.
    SLOTS = [
        ("singlet", "equator64", 2),
        ("singlet", "q200", 2),
        ("singlet", "bloch512", 2),
        ("sparse", "coin21", 6),
        ("sparse", "q200", 3),
        ("sparse", "q200", 3),
        ("sparse", "q200", 3),
        ("sparse", "coin21", 8),
        # about 40 ms: the median
        ("uniform", "equator64", 5),
        ("singlet", "q1000", 2),
        ("sparse", "q200", 4),
        ("sparse", "q200", 4),
        ("sparse", "q200", 4),
        ("sparse", "q200", 4),
        ("sparse", "q200", 4),
        ("sparse", "t200", 3),
        ("sparse", "t200", 3),
        ("sparse", "coin21", 10),
        ("sparse", "q200", 5),
        ("sparse", "bloch512", 4),
        ("sparse", "q2000", 3),
        ("sparse", "q1000", 4),
        # about 0.4 s: the 90th percentile
        ("sparse", "t200", 4),
        ("uniform", "bloch512", 5),
        ("sparse", "equator64", 6),
        ("sparse", "q2000", 4),
    ]
    TINY_SLOTS = [
        ("sparse", "q200", 3),
        ("uniform", "equator64", 3),
        ("singlet", "q200", 2),
        ("sparse", "coin21", 4),
    ]
    # A run measures about 8 rounds: each gets inputs of its own, so the share
    # of early stops a run sees averages over about 200 distinct inputs.
    pool_rounds = 8
    trace_rounds = 3

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed, self.tiny = seed, tiny
        self.slots = self.TINY_SLOTS if tiny else self.SLOTS
        self._designs: dict = {}

    def setup(self) -> dict:
        seeds = np.random.default_rng([self.seed, 1]).integers(2**31, size=4)
        if self.tiny:
            sizes = {"q200": 20, "q1000": 20, "q2000": 20, "t200": 20}
        else:
            sizes = {"q200": 200, "q1000": 1000, "q2000": 2000, "t200": 200}
        return {
            "q200": definetti.default_atoms(2, sizes["q200"], int(seeds[0])),
            "q1000": definetti.default_atoms(2, sizes["q1000"], int(seeds[1])),
            "q2000": definetti.default_atoms(2, sizes["q2000"], int(seeds[2])),
            "t200": definetti.default_atoms(3, sizes["t200"], int(seeds[3])),
            "bloch512": fixtures.bloch_grid_atoms(),
            "equator64": fixtures.equator_atoms(),
            "coin21": fixtures.coin_grid(tuple(np.linspace(0.0, 1.0, 21))),
        }

    def _columns(self, dictionary):
        if isinstance(dictionary, list):  # classical grid of FinDists
            return [np.asarray(g.probs, dtype=float) for g in dictionary]
        return [np.asarray(s.dens[0]) for s in dictionary.atoms]

    def _design(self, env, key, depth):
        if (key, depth) not in self._designs:
            self._designs[(key, depth)] = design(self._columns(env[key]), depth)
        return self._designs[(key, depth)]

    def make_round(self, env, rng) -> list[Op]:
        # Sparse supports of 1..5 atoms, by slot position, so every round
        # holds the same mix of support sizes.
        return [
            self._make(env, rng, *slot, support=1 + i % 5) for i, slot in enumerate(self.slots)
        ]

    def _make(self, env, rng, kind, key, depth, support) -> Op:
        dictionary = env[key]
        cols = self._columns(dictionary)
        if kind == "singlet":
            psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
            levels = [np.eye(2, dtype=complex) / 2.0, np.outer(psi, psi.conj())]
        else:
            if kind == "uniform":
                idx, w = np.arange(len(cols)), np.full(len(cols), 1.0 / len(cols))
            else:
                idx = rng.choice(len(cols), size=support, replace=False)
                w = rng.dirichlet(np.ones(support))
            levels = mixture_tower([cols[i] for i in idx], w, depth)
        if key.startswith("coin"):
            space = list(dictionary[0].space)
            measures = [
                classical.FinDist(classical.tuple_space(space, n), lv)
                for n, lv in enumerate(levels, start=1)
            ]
            seq = classical.ClassicalExchSeq(space, depth, measures)
        else:
            d = cols[0].shape[0]
            base = Algebra((d,))
            seq = exchange.make_exch_seq(
                base,
                [StateVec(Algebra((m.shape[0],)), [m]) for m in levels],
            )
        target = np.concatenate([lv.ravel() for lv in levels])
        self._design(env, key, depth)
        expect = {"kind": kind, "design": (key, depth), "target": target}
        return Op(f"{kind}-{key}-d{depth}", (key, seq), expect)

    def execute(self, env, op: Op):
        key, seq = op.payload
        dictionary = env[key]
        if isinstance(seq, classical.ClassicalExchSeq):
            weights, residual = classical.hs_reconstruct(seq, dictionary)
            rank = classical.classical_moment_rank(dictionary, seq.depth)
        else:
            mixture, residual = definetti.reconstruct(seq, dictionary)
            weights = mixture.weights
            rank = definetti.moment_rank(dictionary, seq.depth)
        return np.asarray(weights, dtype=float), float(residual), int(rank)

    def check(self, op: Op, value, error) -> Verdict:
        if error is not None:
            return _failed(f"raised {type(error).__name__}: {error}")
        weights, residual, rank = value
        exp = op.expect
        d = self._designs[exp["design"]]
        if weights.shape != (d.shape[1],) or weights.min() < -1e-12:
            return _failed("weights are not a point of the simplex")
        if abs(weights.sum() - 1.0) > 1e-9 or not 1 <= rank <= d.shape[1]:
            return _failed("weights do not sum to 1 or the rank is out of range")
        r = d @ weights - exp["target"]
        honest = float(np.linalg.norm(r))
        if abs(residual - honest) > 1e-9 + 1e-6 * honest:
            return _failed(f"reported residual {residual:.3e}, recomputed {honest:.3e}")
        if exp["kind"] == "singlet":
            if residual >= SINGLET_FLOOR:
                return PASSED
            return _failed(f"singlet residual {residual:.4f} below the floor")
        if residual <= RESIDUAL_TOL:
            return PASSED
        if residual <= STOP_CEILING:
            return _failed(f"residual {residual:.3e}", "solver-stops-early")
        return _failed(f"residual {residual:.3e} above the known early stops")


# --- factor-cones --------------------------------------------------------------------


def broken_cone(apex: Algebra, top: np.ndarray, level1: np.ndarray, depth: int):
    """Constant cone emitting the iid tower of ``top`` except at level 1, which
    emits ``level1``: restricting level 2 to level 1 cannot match."""
    channels, power = [], top
    for n in range(1, depth + 1):
        out = level1 if n == 1 else power
        target = Algebra((out.shape[0],))
        channels.append(
            cpmaps.choi_from_function(
                apex, target, lambda x, out=out: np.trace(x) * out, cpmaps.SCHRODINGER
            )
        )
        power = np.kron(power, top)
    return definetti.Cone(apex, depth, channels)


class FactorCones:
    """``finetti factor`` through the library: mediating map, factorization
    error, and a 10-trial uniqueness check, per cone."""

    name = "factor-cones"
    # Cones reused every round; the seed draws their states, the dictionary and
    # each op's uniqueness seed.  Grouped by cost as in the other workloads:
    # as many cheap ops below the A(1+1) depth-3 group as dearer ones above it,
    # so the median falls in the middle of that group.  A full pipeline at
    # apex A(3) or depth 5 costs 0.6 s to seconds per op, and would leave the
    # 90th percentile on the edge of a lone slot; those run as broken cones.
    SLOTS = [
        "broken-A(2)-d3",
        "broken-A(3)-d3",
        "broken-A(1+1)-d3",
        "broken-A(1+1)-d4",
        "const-A(1+1)-d3-a",
        "const-A(1+1)-d3-b",
        "const-A(1+1)-d3-c",
        "const-A(1+1)-d3-d",
        "const-A(1+1)-d3-e",
        "broken-A(2)-d5",
        "const-A(2)-d3",
        "mp-A(2)-d3",
        "const-A(1+1)-d4",
    ]
    TINY_SLOTS = ["const-A(1+1)-d2", "broken-A(3)-d2"]
    ATOMS = 50
    pool_rounds = 1
    trace_rounds = 3

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed, self.tiny = seed, tiny
        self.slots = self.TINY_SLOTS if tiny else self.SLOTS

    def setup(self) -> dict:
        rng = np.random.default_rng([self.seed, 1])
        qubit, a11, a3 = Algebra((2,)), Algebra((1, 1)), Algebra((3,))
        sig = [random_state(rng, 2) for _ in range(7)]
        known = [fixtures.KET0, fixtures.KET1] + sig[:6]
        extra = [random_state(rng, 2) for _ in range(self.ATOMS - len(known))]
        atoms = definetti.explicit_atoms([StateVec(qubit, [m]) for m in known + extra])
        state = lambda m: StateVec(qubit, [m])  # noqa: E731
        if self.tiny:
            cones = {
                "const-A(1+1)-d2": fixtures.constant_cone(state(sig[0]), 2, a11),
                "broken-A(3)-d2": broken_cone(a3, sig[1], sig[6], 2),
            }
        else:
            cones = {
                f"const-A(1+1)-d3-{c}": fixtures.constant_cone(state(sig[i]), 3, a11)
                for i, c in enumerate("abcde")
            }
            cones.update(
                {
                    "const-A(2)-d3": fixtures.constant_cone(state(sig[5]), 3, qubit),
                    "mp-A(2)-d3": fixtures.measure_prepare_cone(3),
                    "const-A(1+1)-d4": fixtures.constant_cone(state(sig[0]), 4, a11),
                    "broken-A(2)-d3": fixtures.broken_cone(3),
                    "broken-A(2)-d5": fixtures.broken_cone(5),
                    "broken-A(3)-d3": broken_cone(a3, sig[1], sig[6], 3),
                    "broken-A(1+1)-d3": broken_cone(a11, sig[2], sig[6], 3),
                    "broken-A(1+1)-d4": broken_cone(a11, sig[3], sig[6], 4),
                }
            )
        return {"atoms": atoms, "cones": cones}

    def make_round(self, env, rng) -> list[Op]:
        ops = []
        for key in self.slots:
            expect = "violation" if key.startswith("broken") else "factor"
            ops.append(Op(key, (key, int(rng.integers(2**31))), expect))
        return ops

    def execute(self, env, op: Op):
        key, trial_seed = op.payload
        cone, atoms = env["cones"][key], env["atoms"]
        med = definetti.mediating_map(cone, atoms)
        err = definetti.factorization_error(cone, med)
        unique = definetti.uniqueness_check(cone, atoms, trials=10, seed=trial_seed)
        return float(err), float(med.residuals.max()), unique, len(atoms)

    def check(self, op: Op, value, error) -> Verdict:
        if op.expect == "violation":
            if isinstance(error, definetti.ConeLawViolation):
                return PASSED
            return _failed("broken cone not rejected" if error is None else repr(error))
        if error is not None:
            return _failed(f"raised {type(error).__name__}: {error}")
        err, worst_residual, unique, k = value
        if unique.trials != 10 or unique.n_atoms != k:
            return _failed("uniqueness report does not describe the run")
        if err <= FACTOR_TOL:
            return PASSED
        return _failed(f"factorization error {err:.3e} with residuals {worst_residual:.1e}")


WORKLOADS = {w.name: w for w in (CheckDocs, ReconstructDict, FactorCones)}
