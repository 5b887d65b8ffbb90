"""finetti benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The ops of one workload run back to back, each starting when the
previous one has finished.  Every op's outcome is checked against the
expectation recorded with its input.

``--trace 0`` runs whole rounds of inputs for ``--seconds`` of op time (and
for at least ``MIN_OPS`` ops) with no tracing installed, and prints the
end-to-end metrics, their timings scaled to nominal machine speed by a
reference kernel timed next to the ops (see ``Reference``).  ``--trace 1``
runs a fixed number of rounds twice, first untraced and then with spans
around finetti's public functions, and prints the per-layer metrics; its
call counts repeat exactly for a seed.

The lines before the last one describe the run for a reader: environment,
every metric with its unit and sample count, failures by cause, latency by
input category.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An op fails when it raises or its
outcome misses its expectation.  Failures that are one of the seed program's
known defects (``workloads.KNOWN_DEFECTS``) are measured, not tolerated
silently: they lower the gated metric ``ok_share`` and are listed by cause.
``failed`` counts every other failure, and ``correct`` is false when there is
one.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one thread, so runs on a shared two-core
# machine do not compete with themselves.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
KERNEL_RUNS = 3  # reference kernel runs between two set-up steps
# Nominal time of the reference kernel (see ``Reference``): about what it
# takes on a shared two-core x86-64 machine at its usual speed.
REFERENCE_MS = 4.0
MIN_OPS = 100  # so at least 10 samples lie beyond the 90th percentile
# Op time after which an untraced run stops short of MIN_OPS, so that a much
# slower program still finishes well within three minutes.
MAX_OP_SECONDS = 100.0
WORKLOAD_NAMES = ("check-docs", "reconstruct-dict", "factor-cones")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import finetti; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import finetti (numpy included) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, workload: str, trace: int) -> dict:
    env = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    return env


class Reference:
    """A fixed kernel of interpreter, small-LAPACK and JSON work.

    On a shared host identical work runs up to 40 % slower for minutes at a
    time, and every kind of work slows together.  Timed next to the ops, this
    kernel tracks that drift: the end-to-end timings are reported scaled by
    ``REFERENCE_MS / kernel time``, i.e. at the kernel's nominal speed.  It
    touches no finetti code, so a change to the program moves only the ops.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        g = rng.standard_normal((16, 8, 8)) + 1j * rng.standard_normal((16, 8, 8))
        self.hermitian = g + g.conj().transpose(0, 2, 1)
        self.text = json.dumps([[[float(x), 0.0] for x in row] for row in g[0].real])

    def __call__(self) -> float:
        """Seconds one run of the kernel takes.

        The cyclic collector is off while it runs: a collection would walk the
        program's live heap, and the kernel would time that heap instead of
        the machine.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc, table = 0, {}
            for i in range(20000):
                acc += (i * i) % 7
            for i in range(5000):
                table[str(i)] = [i, acc]
            for h in self.hermitian:
                np.linalg.eigvalsh(h)
                np.kron(h, h[:2, :2])
            json.loads(self.text)
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    def scale(self, samples) -> float:
        """Factor that brings timings taken next to ``samples`` to nominal speed."""
        return REFERENCE_MS / (1e3 * statistics.median(samples))


class Pass:
    """Op outcomes of one pass over the inputs."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_category: dict[str, list[float]] = defaultdict(list)
        self.failed_by_category: Counter = Counter()
        self.defects: Counter = Counter()
        self.unexpected: list[str] = []
        self.round_seconds: list[float] = []
        self.kernel: list[float] = []  # reference kernel seconds, one after each op

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failed_by_category.values())

    @property
    def rounds(self) -> int:
        return len(self.round_seconds)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    # Every round holds the same mix of sizes, so each round measures the same
    # quantities.  Each op's latency is brought to nominal machine speed by the
    # reference kernel timed next to it.  The median of the rounds' throughput
    # shrugs off a burst that slows a few rounds.  The latency percentiles pool
    # every op of the pass: within one round the 90th percentile would fall
    # between two slots of different cost, while over the pass it falls among
    # the repeats of one slot.

    def scaled(self) -> np.ndarray:
        """Op latencies in seconds at nominal speed, one row per round.

        Op i is scaled by the median of the kernel runs just before it, just
        after it and after the next op: the machine's speed drifts within a
        round too, and the median ignores one stray kernel run.
        """
        k = np.asarray(self.kernel)
        padded = np.concatenate([k[:1], k, k[-1:]])
        local = np.median(np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0)
        lat = np.asarray(self.latencies) * REFERENCE_MS / (1e3 * local)
        return lat.reshape(self.rounds, -1)

    def scaled_busy(self) -> float:
        return float(self.scaled().sum())

    def ops_per_second(self) -> float:
        """Median over rounds of the round's ops per second of op time."""
        rows = self.scaled()
        return float(np.median(rows.shape[1] / rows.sum(axis=1)))

    def latency_ms(self, q: float) -> float:
        """``q``-th percentile of the pass's op latencies at nominal speed."""
        return 1e3 * float(np.percentile(self.scaled(), q))


def run_pass(
    workload, env, pool, reference, *, seconds=None, rounds=None, tracer=None
) -> Pass:
    """Run whole rounds, cycling through the input pool.

    With ``rounds`` the pass runs exactly that many.  Otherwise it runs until
    the op time is closest to ``seconds`` and at least ``MIN_OPS`` ops have
    run, or until ``MAX_OP_SECONDS`` of op time (or ``seconds``, if longer).
    """
    p = Pass()
    clock = time.perf_counter
    while True:
        round_start = p.busy
        for op in pool[p.rounds % len(pool)]:
            if tracer is not None:
                tracer.op_id = p.attempted
            t0 = clock()
            try:
                value, error = workload.execute(env, op), None
            except Exception as exc:  # an op failure is a result, not a crash
                value, error = None, exc
            dt = clock() - t0
            if tracer is not None:
                tracer.op_id = -1
                tracer.drain()
            verdict = workload.check(op, value, error)
            p.latencies.append(dt)
            p.by_category[op.category].append(dt)
            if not verdict.ok:
                p.failed_by_category[op.category] += 1
                if verdict.defect is None:
                    p.unexpected.append(f"{op.category}: {verdict.detail}")
                else:
                    p.defects[verdict.defect] += 1
            p.kernel.append(reference())
        p.round_seconds.append(p.busy - round_start)
        if rounds is not None:
            if p.rounds >= rounds:
                return p
            continue
        per_round = p.busy / p.rounds
        if p.busy >= max(seconds, MAX_OP_SECONDS):
            return p
        if p.busy + per_round / 2 >= seconds and p.attempted >= MIN_OPS:
            return p


def timed_setup(workload, reference: Reference):
    """Time ``IMPORT_REPEATS`` fresh imports and ``SETUP_REPEATS`` builds of the
    program objects; keep the last build.

    ``KERNEL_RUNS`` runs of the reference kernel precede the first step and
    follow every step; a step is scaled to nominal speed by the median of the
    runs on both sides of it.  Returns the objects, then the seconds and the
    scale factors of the imports and of the builds.
    """
    batches = [[reference() for _ in range(KERNEL_RUNS)]]

    def step(seconds: float, out: list, scales: list) -> None:
        batches.append([reference() for _ in range(KERNEL_RUNS)])
        out.append(seconds)
        scales.append(reference.scale(batches[-2] + batches[-1]))

    imports, import_scales = [], []
    for _ in range(IMPORT_REPEATS):
        step(import_seconds(), imports, import_scales)
    builds, build_scales, env = [], [], None
    for _ in range(SETUP_REPEATS):
        env = None
        gc.collect()
        t0 = time.perf_counter()
        env = workload.setup()
        step(time.perf_counter() - t0, builds, build_scales)
    return env, (imports, import_scales), (builds, build_scales)


def describe(p: Pass, known: dict) -> list[str]:
    lines = [
        f"fail_share {p.failed / p.attempted:.4f} share "
        f"({p.failed} failed of {p.attempted} attempted; "
        f"{sum(p.defects.values())} known defects, {len(p.unexpected)} unexpected)"
    ]
    for name, count in sorted(p.defects.items()):
        lines.append(f"  known defect {name}: {count} ops ({known[name]})")
    for line in p.unexpected[:20]:
        lines.append(f"  UNEXPECTED {line}")
    lines.append(f"{'category':<32} {'ops':>5} {'failed':>6} {'p50 ms':>10}")
    for cat in sorted(p.by_category, key=lambda c: statistics.median(p.by_category[c])):
        lat = p.by_category[cat]
        lines.append(
            f"{cat:<32} {len(lat):>5} {p.failed_by_category[cat]:>6} "
            f"{1e3 * statistics.median(lat):>10.2f}"
        )
    return lines


def run_workload(name, seed, seconds, trace, *, tiny=False, mutate=None):
    """Run one workload and return ``(summary lines, result object)``.

    ``mutate`` may edit the generated rounds before they run (the self-test
    uses it to plant a wrong expectation).
    """
    from spans import Tracer, per_layer_metrics
    from workloads import KNOWN_DEFECTS, WORKLOADS

    lines = ["env " + json.dumps(environment(seed, name, trace))]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, workdir, tiny=tiny)
        reference = Reference()
        if trace:
            env = workload.setup()
        else:
            env, (imports, import_scales), (builds, build_scales) = timed_setup(
                workload, reference
            )
            raw_setup = statistics.median(imports) + statistics.median(builds)
            setup_s = statistics.median(np.multiply(imports, import_scales)) + statistics.median(
                np.multiply(builds, build_scales)
            )
        rng = np.random.default_rng([seed, 2])
        pool = [workload.make_round(env, rng) for _ in range(workload.pool_rounds)]
        if mutate is not None:
            mutate(pool)
        # One discarded round first: first calls allocate and fault in memory.
        run_pass(workload, env, pool[:1], reference, rounds=1)

        if not trace:
            p = run_pass(workload, env, pool, reference, seconds=seconds)
            metrics = {
                "setup_s": float(setup_s),
                "ops_per_s": p.ops_per_second(),
                "op_p50_ms": p.latency_ms(50),
                "op_p90_ms": p.latency_ms(90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                # 1 - fail_share: never 0, so a bound relative to it means something.
                "ok_share": 1.0 - p.failed / p.attempted,
            }
            rounds = f"median over {p.rounds} rounds of {p.attempted // p.rounds} ops"
            unscaled = {q: 1e3 * float(np.percentile(p.latencies, q)) for q in (50, 90)}
            beyond = int((1e3 * p.scaled() > metrics["op_p90_ms"]).sum())
            kernel_ms = 1e3 * statistics.median(p.kernel)
            setup_scale = statistics.median(import_scales + build_scales)
            lines += [
                f"timings below are at nominal speed: scaled by {REFERENCE_MS} ms over the "
                f"reference kernel's time next to them (median {kernel_ms:.3f} ms next to the "
                f"timed ops; median scale factor {setup_scale:.3f} in set-up)",
                f"setup_s {metrics['setup_s']:.4f} s (unscaled {raw_setup:.4f} s: median "
                f"import of finetti and numpy in a fresh interpreter, "
                f"{statistics.median(imports):.4f} s of {IMPORT_REPEATS}, + median build, "
                f"{statistics.median(builds):.4f} s of {SETUP_REPEATS})",
                f"ops_per_s {metrics['ops_per_s']:.3f} 1/s ({rounds}; {p.attempted} ops "
                f"in {p.busy:.2f} s of unscaled op time, one client)",
                f"op_p50_ms {metrics['op_p50_ms']:.3f} ms (median of {p.attempted} samples; "
                f"unscaled {unscaled[50]:.3f} ms)",
                f"op_p90_ms {metrics['op_p90_ms']:.3f} ms (90th percentile of {p.attempted} "
                f"samples, {beyond} beyond; unscaled {unscaled[90]:.3f} ms)",
                f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (whole process)",
                f"ok_share {metrics['ok_share']:.4f} share (1 - fail_share, below)",
            ]
            lines += describe(p, KNOWN_DEFECTS)
            units = END_TO_END
            passes = [p]
        else:
            rounds = workload.trace_rounds
            plain = run_pass(workload, env, pool, reference, rounds=rounds)
            env = None
            tracer = Tracer()
            tracer.install()
            try:
                env = workload.setup()
                tracer.drain()
                traced = run_pass(workload, env, pool, reference, rounds=rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            # Both passes at nominal speed, so drift between them cancels.
            overhead = traced.scaled_busy() / plain.scaled_busy()
            metrics = tracer.metrics(overhead)
            trace_file = os.path.join(OUT, f"trace-{name}.npz")
            tracer.write(trace_file)
            lines.append(
                f"traced {traced.attempted} ops in {rounds} rounds: "
                f"{traced.busy:.2f} s traced vs {plain.busy:.2f} s untraced; "
                f"{len(tracer.start)} spans written to {os.path.relpath(trace_file, ROOT)}"
            )
            lines += describe(traced, KNOWN_DEFECTS)
            units = per_layer_metrics()
            lines += [f"{k} {metrics[k]:.6g} {u}" for k, u in units.items()]
            p = traced
            passes = [plain, traced]
        result = {
            "correct": all(not q.unexpected for q in passes),
            "attempted": p.attempted,
            # Known defects are in ok_share and on the fail_share line.
            "failed": len(p.unexpected),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return lines, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "finetti", "__init__.py")):
        print(f"no finetti sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
