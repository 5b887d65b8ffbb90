"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload it checks that

* the untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and the summary line for ``fail_share`` with its sample counts;
* the traced run prints every per-layer metric of BENCHMARK.json with its unit;
* an expected outcome planted wrong in one slot of every round is counted as
  one failed op per round, lowers ``ok_share`` by as much, and makes the run
  incorrect.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import re
import sys

import run  # pins the BLAS threads before numpy loads

SEED = 1
SECONDS = 0.01  # the minimum op count, not the clock, ends each tiny run


def plant_check_docs(pool) -> None:
    for ops in pool:  # slot 0 is an exchangeable tower: it exits 0, not 1
        ops[0].expect["exit"] = 1


def plant_reconstruct_dict(pool) -> None:
    for ops in pool:  # the recomputed residual no longer matches the reported one
        ops[0].expect["target"] = ops[0].expect["target"] + 1.0


def plant_factor_cones(pool) -> None:
    for ops in pool:  # slot 0 is a lawful cone, now expected to be rejected
        ops[0].expect = "violation"


PLANTS = {
    "check-docs": plant_check_docs,
    "reconstruct-dict": plant_reconstruct_dict,
    "factor-cones": plant_factor_cones,
}


def main() -> int:
    sys.path.insert(0, run.SRC)
    from workloads import WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in run.WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            lines, result = run.run_workload(name, SEED, SECONDS, trace, tiny=True)
            results[trace] = result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) ^ set(got))
                problems.append(f"{name} trace {trace}: metric names or units differ {missing}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{name} trace {trace}: a metric value is not a number")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: tiny run incorrect or empty")
            if trace == 0 and not any(
                re.match(r"fail_share \d\.\d+ share \(\d+ failed of \d+ attempted", line)
                for line in lines
            ):
                problems.append(f"{name}: no fail_share line with its unit and counts")

        lines, planted = run.run_workload(
            name, SEED, SECONDS, 0, tiny=True, mutate=PLANTS[name]
        )
        base = results[0]
        per_round = len(WORKLOADS[name].TINY_SLOTS)
        rounds = planted["attempted"] // per_round
        if planted["attempted"] != base["attempted"]:
            problems.append(f"{name}: planted run attempted a different number of ops")
        elif planted["failed"] != base["failed"] + rounds:
            problems.append(
                f"{name}: planted {rounds} wrong expectations, failed went "
                f"{base['failed']} -> {planted['failed']}"
            )
        ok_base, ok_planted = (r["metrics"]["ok_share"]["value"] for r in (base, planted))
        if abs(ok_base - ok_planted - rounds / planted["attempted"]) > 1e-12:
            problems.append(f"{name}: ok_share went {ok_base} -> {ok_planted}")
        if planted["correct"]:
            problems.append(f"{name}: a planted wrong expectation left the run correct")
        print(f"{name}: ok" if not problems else f"{name}: {len(problems)} problems so far")

    for line in problems:
        print("FAIL", line)
    print("selftest passed" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
