#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise it as a trajectory point.

Run from the repository root::

    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 --holdout-seed 9001 \\
        --out perfbench/trajectory/baseline.json

Each run is a separate ``perfbench/run.py`` process, one after another.  For
every end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and the spread, which is
the inter-quartile distance as a share of the median; BENCHMARK.json's gated
metrics also show their bound and whether the spread stays below a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

from run import WORKLOAD_NAMES, run_child

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread_of(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run with this seed")
    parser.add_argument("--holdout-seed", type=int, help="also make one run with a seed kept out of tuning")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {metric["name"]: metric for metric in spec["end_to_end"]}
    names = WORKLOAD_NAMES if args.workloads == "all" else args.workloads.split(",")
    seeds = seed_list(args.seeds)
    summary: Dict[str, Any] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        runs = [run_child(name, seed, 0) for seed in seeds]
        entry: Dict[str, Any] = {"end_to_end": {}, "runs": []}
        print(f"== {name} over seeds {seeds[0]}..{seeds[-1]}")
        for metric in runs[0]["end_to_end"]:
            stats = spread_of([run["end_to_end"][metric] for run in runs])
            line = (f"  {metric:<20} median {stats['median']:>12.4f}  q1 {stats['q1']:>12.4f}  "
                    f"q3 {stats['q3']:>12.4f}  spread {100 * stats['spread']:6.2f}%")
            if metric in gated:
                bound = gated[metric]["bound"]
                stats.update(unit=gated[metric]["unit"], better=gated[metric]["better"], bound=bound,
                             within_third_of_bound=stats["spread"] < bound / 3)
                line += f"  bound {100 * bound:.0f}%  {'ok' if stats['within_third_of_bound'] else 'TOO WIDE'}"
            entry["end_to_end"][metric] = stats
            print(line)
        for run in runs:
            entry["runs"].append({key: run[key] for key in
                                  ("seed", "repetitions", "correct", "attempted", "failed", "failures",
                                   "determinism_errors", "counts", "end_to_end", "measured_run_s",
                                   "reference_run_s")})
            print(f"  seed {run['seed']}: correct={run['correct']} failed={run['failed']}/{run['attempted']} "
                  f"run_s={run['end_to_end']['run_s']:.3f} measured={[round(t, 3) for t in run['measured_run_s']]} "
                  f"at reference speed={[round(t, 3) for t in run['reference_run_s']]}")
        if args.trace_seed is not None:
            traced = run_child(name, args.trace_seed, 1)
            entry["traced"] = {key: traced[key] for key in ("seed", "per_layer", "spans")}
            print(f"  traced seed {args.trace_seed}: overhead {traced['per_layer']['trace.overhead_ratio']:.3f}")
        if args.holdout_seed is not None:
            held = run_child(name, args.holdout_seed, 0)
            entry["holdout"] = {key: held[key] for key in
                                ("seed", "correct", "failed", "attempted", "failures",
                                 "determinism_errors", "end_to_end")}
            print(f"  held-out seed {args.holdout_seed}: correct={held['correct']} failures={held['failures']}")
        summary["workloads"][name] = entry
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
