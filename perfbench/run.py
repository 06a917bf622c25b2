#!/usr/bin/env python3
"""Host-speed benchmark of the DynaHash simulator.

Run from the repository root::

    python3 perfbench/run.py                                  # every workload, untraced
    python3 perfbench/run.py --workload ingest_split --seed 3
    python3 perfbench/run.py --workload tpch_elastic --trace 1

Without ``--workload`` each workload runs in a child process of its own, one
after another, so each reports its own peak memory.  BENCHMARK.json gates
ingest_split and ycsb_rebalance only: tpch_elastic reports ``correct: false``
on every seed because of a known defect of the program (see README.md), and
it still runs here so that the defect stays visible.  A workload run first
compiles ``src/`` to bytecode (untimed), then times the import of ``repro``.
It then repeats *set-up, run, check* on fresh databases built from the same
seed until ``--seconds`` of wall time have passed (at least twice; by default
``run_seconds`` of BENCHMARK.json), and reports medians over the repetitions.
Every repetition, and the import, runs under the speed probe of ``speed.py``;
times are read from its reference clock, which leaves out the probe's slices
and counts seconds at the reference host speed.  The program-made counts
(splits, flushes, merges, records moved, bytes shipped, simulated seconds,
records scanned) must repeat exactly across the repetitions, or the run is not
correct.

With ``--trace 1`` every second repetition runs with span tracing installed
(see ``tracing.py``), its spans on the same reference clock, and the run
reports the per-layer metrics instead of the end-to-end ones.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, ``detail: {...}``, carries
everything else the run measured.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Metrics a workload reports besides the gated end-to-end ones in
#: BENCHMARK.json: name -> (unit, better).  They are printed and recorded in
#: the ``detail`` line; each exists only on the workloads that do its work.
WORKLOAD_METRICS = {
    "ingest_rows_per_s": ("rows/s", "higher"),
    "insert_p50_ms": ("ms", "lower"),
    "insert_p95_ms": ("ms", "lower"),
    "query_rows_per_s": ("rows/s", "higher"),
    "rebalance_s": ("s", "lower"),
    "moved_mb": ("MB", "lower"),
    "rebalance_sim_s": ("sim_s", "lower"),
    "failed_op_share": ("share", "lower"),
}

#: Every workload, in the order ``--workload all`` runs them.
WORKLOAD_NAMES = ("ingest_split", "ycsb_rebalance", "tpch_elastic")

#: The counts that must repeat exactly for a seed.
DETERMINISTIC_COUNTS = (
    "splits", "flushes", "merges", "records_moved", "bytes_shipped",
    "simulated_seconds", "records_scanned",
)


#: Times the program's import in a fresh interpreter under the speed probe;
#: prints measured and reference seconds.
IMPORT_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; from speed import SpeedProbe\n"
    "with SpeedProbe() as probe:\n"
    "    began, measured = probe.reference_clock(), probe.work_clock()\n"
    "    import repro.api, repro.sim\n"
    "    print(probe.work_clock() - measured, probe.reference_clock() - began)\n"
)
IMPORT_SAMPLES = 7


def bootstrap() -> Dict[str, float]:
    """Build the program from source and import it.

    Returns the median import time, measured and at the reference speed, of
    :data:`IMPORT_SAMPLES` fresh interpreters, each of which has finished
    before this returns.
    """
    compileall.compile_dir(str(SRC), quiet=1)
    here = str(Path(__file__).resolve().parent)
    samples = [
        [float(value) for value in subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, here, str(SRC)], check=True,
            capture_output=True, text=True, timeout=60).stdout.split()]
        for _ in range(IMPORT_SAMPLES)
    ]
    sys.path.insert(0, str(SRC))
    importlib.import_module("repro.api")
    importlib.import_module("repro.sim")
    return {
        "measured": statistics.median(sample[0] for sample in samples),
        "reference": statistics.median(sample[1] for sample in samples),
    }


@dataclass
class Iteration:
    """One set-up, run and check of a workload."""

    traced: bool
    #: Seconds of set-up and of the run phase at the reference host speed.
    setup_s: float
    run_s: float
    #: Measured seconds of the run phase, without the speed probe's slices.
    work_s: float
    outcome: Any
    counts: Dict[str, Any]
    storage: Dict[str, int]
    tables: Optional[Dict[str, Dict[str, Dict[str, float]]]] = None
    counters: Optional[Dict[str, float]] = None


def iterate(workload: Any, traced: bool) -> Iteration:
    """Set up, run and check once under the speed probe; spans, when traced,
    read the same reference clock as the run."""
    from speed import SpeedProbe
    from tracing import StatsLedger, Tracer

    gc.collect()
    ledger = StatsLedger()
    probe = SpeedProbe()
    clock, work_clock = probe.reference_clock, probe.work_clock
    tracer = Tracer(clock=clock) if traced else None
    ledger.install()
    if tracer is not None:
        tracer.install()
    try:
        with probe:
            began = clock()
            state = workload.setup()
            setup_s = clock() - began
            marks = [tracer.mark()] if tracer is not None else []
            storage_before = ledger.totals()
            workload.clock = clock
            began, work_began = clock(), work_clock()
            outcome = workload.run(state)
            run_s, work_s = clock() - began, work_clock() - work_began
        storage_after = ledger.totals()
        if tracer is not None:
            marks.append(tracer.mark())
    finally:
        workload.clock = perf_counter
        if tracer is not None:
            tracer.uninstall()
        ledger.uninstall()
    workload.check(state, outcome)
    getattr(state, "db", state).close()
    storage = {name: value - storage_before.get(name, 0) for name, value in storage_after.items()}
    counts = {
        "splits": storage["splits"],
        "flushes": storage["flush_count"],
        "merges": storage["merge_count"],
        "records_moved": 0,
        "bytes_shipped": 0,
        "records_scanned": 0,
    }
    counts.update(outcome.counts)
    iteration = Iteration(traced, setup_s, run_s, work_s, outcome, counts, storage)
    if tracer is not None:
        start = (0, {})
        iteration.tables = {"setup": tracer.table(start, marks[0]), "run": tracer.table(marks[0], marks[1])}
        iteration.counters = tracer.counter_delta(marks[0], marks[1])
    return iteration


def measure(workload: Any, seconds: float, trace: bool) -> List[Iteration]:
    """Repeat the workload until ``seconds`` have passed (at least twice)."""
    iterations: List[Iteration] = []
    began = perf_counter()
    while len(iterations) < 2 or perf_counter() - began < seconds:
        iterations.append(iterate(workload, traced=trace and len(iterations) % 2 == 1))
    return iterations


def end_to_end(workload: Any, iterations: List[Iteration], import_s: Dict[str, float]) -> Dict[str, float]:
    """Every end-to-end metric of the untraced iterations (medians)."""
    plain = [it for it in iterations if not it.traced]
    values = {
        "setup_s": import_s["reference"] + statistics.median([it.setup_s for it in plain]),
        "run_s": statistics.median([it.run_s for it in plain]),
        "ops_per_s": statistics.median([it.outcome.ops / it.run_s for it in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    specific = [workload.metrics(it.outcome, it.run_s) for it in plain]
    for name in specific[0]:
        values[name] = statistics.median([sample[name] for sample in specific])
    attempted = sum(it.outcome.attempted for it in iterations)
    values["failed_op_share"] = sum(it.outcome.failed for it in iterations) / attempted
    return values


def per_layer(iteration: Iteration, overhead: float) -> Dict[str, float]:
    """Every per-layer metric of one traced iteration (``tables`` and
    ``counters`` are set)."""
    from tracing import BOUNDARIES, ratio

    run, counters, storage = iteration.tables["run"], iteration.counters, iteration.storage
    outcome, counts = iteration.outcome, iteration.counts
    values: Dict[str, float] = {}
    for name in BOUNDARIES:
        # Loading TPC-H is set-up work; every other boundary is timed in the run.
        row = iteration.tables["setup" if name == "tpch.load" else "run"][name]
        for field in ("calls", "s", "self_s"):
            values[f"{name}.{field}"] = row[field]
    visited = counters.get("bucketed.maintain.buckets_visited", 0)
    rehashed = counters.get("lsm.ref_rows_rehashed", 0)
    values.update({
        "bucketed.maintain.buckets_visited": visited,
        "bucketed.maintain.useful_ratio": ratio(counters.get("bucketed.maintain.buckets_useful", 0), visited),
        "lsm.ref_rows_rehashed": rehashed,
        "lsm.ref_rows_rehashed_per_row": ratio(rehashed, outcome.rows_written),
        "lsm.merge.useful_ratio": ratio(counters.get("lsm.merges_done", 0), run["lsm.maybe_merge"]["calls"]),
        "lsm.write_amp": ratio(
            storage["bytes_flushed"] + storage["bytes_merged_written"], storage["bytes_written_memory"]
        ),
        "lsm.records_read_per_row": ratio(storage["records_read"], outcome.rows_returned),
        "lsm.bloom_skip_ratio": ratio(
            storage["bloom_negative_skips"], storage["bloom_negative_skips"] + storage["components_opened"]
        ),
        "sim.dispatches": counts.get("sim_dispatches", 0),
        "rebalance.records_moved": counts["records_moved"],
        "rebalance.concurrent_writes": counts.get("concurrent_writes", 0),
        "query.records_scanned": counts["records_scanned"],
        "trace.overhead_ratio": overhead,
    })
    return values


def determinism_errors(iterations: List[Iteration]) -> List[str]:
    first = iterations[0].counts
    errors = []
    for number, iteration in enumerate(iterations[1:], start=2):
        for name, value in iteration.counts.items():
            if value != first.get(name):
                errors.append(
                    f"count {name} was {first.get(name)!r} on repetition 1 but {value!r} on repetition {number}"
                )
    return errors


def print_span_table(label: str, table: Dict[str, Dict[str, float]], total_s: float) -> None:
    rows = sorted(((name, row) for name, row in table.items() if row["calls"]),
                  key=lambda item: -item[1]["self_s"])
    print(f"  spans, {label} ({total_s:.3f} s):")
    print(f"    {'boundary':<22}{'calls':>10}{'incl s':>11}{'self s':>11}{'self %':>8}")
    for name, row in rows:
        print(f"    {name:<22}{row['calls']:>10}{row['s']:>11.4f}{row['self_s']:>11.4f}"
              f"{100 * row['self_s'] / total_s:>7.1f}%")
    idle = [name for name, row in table.items() if not row["calls"]]
    if idle:
        print(f"    not called: {', '.join(idle)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: Dict[str, float],
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    iterations = measure(workload, seconds, trace)
    plain = [it for it in iterations if not it.traced]
    traced = [it for it in iterations if it.traced]
    values = end_to_end(workload, iterations, import_s)
    errors = determinism_errors(iterations)
    failures = sorted({line for it in iterations for line in it.outcome.failures})
    attempted = sum(it.outcome.attempted for it in iterations)
    failed = sum(it.outcome.failed for it in iterations)

    print(f"== {name}  seed={seed}  repetitions={len(iterations)} "
          f"({len(traced)} traced)  python {platform.python_version()}  nproc {os.cpu_count()}")
    units = {metric["name"]: (metric["unit"], metric["better"]) for metric in spec["end_to_end"]}
    units.update(WORKLOAD_METRICS)
    for metric, value in values.items():
        unit, better = units[metric]
        print(f"  {metric:<20}{value:>14.4f} {unit:<7} {better} is better")
    print("  repetitions (setup s / measured run s / run s at reference speed): " + ", ".join(
        f"{it.setup_s:.3f}/{it.work_s:.3f}/{it.run_s:.3f}{' traced' if it.traced else ''}"
        for it in iterations))
    if "insert_p95_ms" in values:
        print(f"  (insert latencies: {len(plain[0].outcome.latencies)} samples per repetition)")
    print(f"  checks: {attempted} attempted, {failed} failed")
    for line in failures:
        print(f"    FAILED: {line}")
    if errors:
        for line in errors:
            print(f"  DETERMINISM FAILURE: {line}", file=sys.stderr)
            print(f"    NOT DETERMINISTIC: {line}")
    else:
        shown = ", ".join(f"{key}={iterations[0].counts[key]!r}" for key in DETERMINISTIC_COUNTS)
        print(f"  deterministic over {len(iterations)} repetitions: {shown}")

    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "repetitions": len(iterations),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "end_to_end": values,
        "measured_import_s": import_s["measured"],
        "measured_run_s": [it.work_s for it in iterations],
        "reference_run_s": [it.run_s for it in iterations],
        "counts": iterations[0].counts,
        "failures": failures,
        "determinism_errors": errors,
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": failed,
    }
    if traced:
        # Traced repetitions are the odd ones: each is paired with the
        # untraced repetition just before it, both on the reference clock.
        ratios = [iterations[index + 1].run_s / iterations[index].run_s
                  for index in range(0, len(iterations) - 1, 2)]
        overhead = statistics.median(ratios)
        layers = [per_layer(it, overhead) for it in traced]
        result["per_layer"] = {key: statistics.median([layer[key] for layer in layers]) for key in layers[0]}
        result["spans"] = traced[0].tables
        print(f"  tracing overhead: traced run_s / untraced run_s = {overhead:.3f} "
              f"(median of {len(ratios)} adjacent pairs: {', '.join(f'{r:.3f}' for r in ratios)})")
        print_span_table("run phase", traced[0].tables["run"], traced[0].run_s)
        print_span_table("set-up", traced[0].tables["setup"], traced[0].setup_s)
    return result


def run_child(name: str, seed: int, trace: int, seconds: Optional[float] = None,
              echo: bool = False) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter, wait for it, and return its
    ``detail`` record with its result line under ``"result"``; ``echo``
    prints the child's report."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-2]), flush=True)
        sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise SystemExit(f"perfbench: {name} seed {seed} exited {completed.returncode}:\n"
                         f"{completed.stderr[-3000:]}")
    detail = json.loads(lines[-2].removeprefix("detail: "))
    detail["result"] = json.loads(lines[-1])
    return detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="ingest_split, ycsb_rebalance, tpch_elastic or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="wall seconds of repetitions per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: {spec_path.name} not found at the repository root")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}; run from a repository checkout")
    spec = json.loads(spec_path.read_text())
    names = WORKLOAD_NAMES
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload == "all":
        results = [run_child(name, args.seed, args.trace, args.seconds, echo=True) for name in names]
    elif args.workload in names:
        import_s = bootstrap()
        results = [run_workload(args.workload, args.seed, seconds, bool(args.trace), import_s, spec)]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    key = "per_layer" if args.trace else "end_to_end"
    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric in spec[key]:
            metrics[prefix + metric["name"]] = {
                "value": result[key][metric["name"]],
                "unit": metric["unit"],
            }
    print("detail: " + json.dumps(results if len(results) > 1 else results[0]))
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
