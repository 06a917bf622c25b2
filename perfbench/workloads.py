"""The benchmark's workloads, driven through the public ``repro.api`` surface.

Each workload is built from ``--seed`` alone and exposes three steps:

* ``setup()`` builds and preloads a fresh database (timed as set-up);
* ``run(state)`` is the measured phase and returns an :class:`Outcome`;
* ``check(state, outcome)`` verifies the program's outputs after the clock
  stops and records every mismatch, by name, in the outcome.

Times taken inside a run read ``workload.clock``, which the runner points at
the speed probe's reference clock (see ``speed.py``).

A single client drives each workload in a closed loop with no think time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Tuple

from repro.api import (
    KIB,
    PHASE_REBALANCE,
    PHASE_STEADY,
    BucketingConfig,
    ClusterConfig,
    Database,
    LSMConfig,
    Phase,
    ReproError,
    Schedule,
    WorkloadDriver,
    WorkloadSpec,
    load_tpch,
    q1_plan,
    q3_plan,
    q6_plan,
)
from repro.sim import EventScheduler

MIB_BYTES = 1024 * 1024


@dataclass
class Outcome:
    """What one run phase did and what its checks found."""

    #: Workload operations completed, the numerator of ``ops_per_s``.
    ops: int = 0
    #: Operations whose result the benchmark checked or that could raise.
    attempted: int = 0
    #: Raised operations, wrong reads and wrong answers.
    failed: int = 0
    #: One line per failed check, naming it.
    failures: List[str] = field(default_factory=list)
    #: Rows the run wrote and rows its reads returned (per-row ratios).
    rows_written: int = 0
    rows_returned: int = 0
    #: Program-made counts that must repeat exactly for a seed.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock samples and sub-totals taken inside the run.
    latencies: List[float] = field(default_factory=list)
    walls: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific state the checks need.
    evidence: Dict[str, Any] = field(default_factory=dict)

    def fail(self, name: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(name)


def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile of ``samples`` (which must not be empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def rebalance_counts(reports: List[Any]) -> Dict[str, Any]:
    """Simulated cost of a list of ``ClusterRebalanceReport``s."""
    return {
        "records_moved": sum(report.total_records_moved for report in reports),
        "bytes_shipped": sum(report.total_bytes_shipped for report in reports),
        "rebalance_sim_seconds": sum(report.simulated_seconds for report in reports),
        "concurrent_writes": sum(
            part.concurrent_writes_applied
            for report in reports
            for part in report.dataset_reports
        ),
    }


class IngestSplit:
    """Write-only bulk load that splits buckets over and over."""

    name = "ingest_split"
    clock: Callable[[], float] = staticmethod(perf_counter)
    ROWS = 10_000
    BATCH = 50
    BLOCK = 500

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        # Keys arrive in ascending blocks, shuffled within each block: every
        # seed holds the same rows at each block boundary, so seeds differ in
        # the order rows reach their buckets but not in how much data has.
        keys: List[int] = []
        for block in range(0, self.ROWS, self.BLOCK):
            chunk = list(range(block, min(block + self.BLOCK, self.ROWS)))
            rng.shuffle(chunk)
            keys.extend(chunk)
        self.rows = [{"k": key, "v": rng.getrandbits(32), "pad": "p" * 40} for key in keys]
        self.oracle = {row["k"]: dict(row) for row in self.rows}

    def setup(self) -> Database:
        config = ClusterConfig(
            num_nodes=3,
            partitions_per_node=2,
            lsm=LSMConfig(memory_component_bytes=32 * KIB),
            bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
            seed=self.seed,
        )
        db = Database(config, strategy="dynahash")
        db.create_dataset("rows", primary_key="k")
        return db

    def run(self, db: Database) -> Outcome:
        outcome = Outcome()
        dataset = db.dataset("rows")
        clock_before = db.metrics.clock.now
        for start in range(0, self.ROWS, self.BATCH):
            batch = self.rows[start:start + self.BATCH]
            outcome.attempted += 1
            began = self.clock()
            try:
                dataset.insert(batch, batch_size=len(batch))
            except ReproError as error:
                outcome.fail(f"insert of batch {start // self.BATCH} raised {error!r}", len(batch))
                continue
            outcome.latencies.append(self.clock() - began)
            outcome.ops += 1
            outcome.rows_written += len(batch)
        outcome.counts["simulated_seconds"] = db.metrics.clock.now - clock_before
        return outcome

    def check(self, db: Database, outcome: Outcome) -> None:
        dataset = db.dataset("rows")
        keys = list(self.oracle)
        records = dataset.get_many(keys)
        outcome.attempted += len(keys) + 1
        wrong = [key for key, record in zip(keys, records) if record != self.oracle[key]]
        if wrong:
            outcome.fail(f"{len(wrong)} read-backs differ from the inserted rows (first key {wrong[0]})", len(wrong))
        count = dataset.count()
        if count != len(self.oracle):
            outcome.fail(f"count() is {count}, expected {len(self.oracle)}")

    def metrics(self, outcome: Outcome, run_s: float) -> Dict[str, float]:
        return {
            "ingest_rows_per_s": outcome.rows_written / run_s,
            "insert_p50_ms": percentile(outcome.latencies, 0.50) * 1e3,
            "insert_p95_ms": percentile(outcome.latencies, 0.95) * 1e3,
        }


class YcsbState(NamedTuple):
    db: Database
    driver: WorkloadDriver
    scheduler: EventScheduler


class YcsbRebalance:
    """YCSB traffic on the interleaved engine across a scale-out and a scale-in."""

    name = "ycsb_rebalance"
    clock: Callable[[], float] = staticmethod(perf_counter)
    PRELOAD = 20_000
    SCHEDULE = Schedule(
        (
            Phase(name="warmup", ops=2_000, mix="A", keys="uniform"),
            Phase(name="steady", ops=6_000, mix="A", keys="zipfian"),
            Phase(name="spike", ops=4_000, mix="A", keys="hotspot", rebalance={"add": 1}),
            Phase(name="scale_in", ops=1_500, mix="E", keys="zipfian", rebalance={"remove": 1}),
        )
    )
    NODES = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> YcsbState:
        config = ClusterConfig(
            num_nodes=self.NODES,
            partitions_per_node=2,
            lsm=LSMConfig(memory_component_bytes=32 * KIB),
            seed=self.seed,
        )
        db = Database(
            config, strategy="dynahash", strategy_options={"initial_buckets_per_partition": 4}
        )
        scheduler = EventScheduler(db.metrics.clock)
        spec = WorkloadSpec(
            dataset="usertable",
            initial_records=self.PRELOAD,
            mix="A",
            keys="zipfian",
            schedule=self.SCHEDULE,
        )
        driver = WorkloadDriver(db, spec, seed=self.seed, scheduler=scheduler)
        driver.prepare()
        return YcsbState(db, driver, scheduler)

    def run(self, state: YcsbState) -> Outcome:
        db, driver, scheduler = state
        outcome = Outcome(attempted=self.SCHEDULE.total_ops)
        try:
            report = driver.run()
        except ReproError as error:
            outcome.fail(f"workload driver raised {error!r}", self.SCHEDULE.total_ops)
            return outcome
        outcome.ops = report.total_ops
        outcome.rows_written = sum(phase.inserts + phase.updates for phase in report.phases)
        outcome.rows_returned = sum(phase.reads_found + phase.scan_rows for phase in report.phases)
        reports = [phase.rebalance_report for phase in report.phases if phase.rebalance_report]
        outcome.counts.update(rebalance_counts(reports))
        outcome.counts["simulated_seconds"] = report.simulated_seconds
        outcome.counts["records_scanned"] = sum(phase.scan_rows for phase in report.phases)
        outcome.counts["sim_dispatches"] = len(scheduler.dispatch_log)
        outcome.evidence["report"] = report
        return outcome

    def check(self, state: YcsbState, outcome: Outcome) -> None:
        db, driver, _ = state
        report = outcome.evidence.get("report")
        if report is None:
            return
        for phase in report.phases:
            if phase.reads_missing:
                outcome.fail(f"{phase.name}: {phase.reads_missing} reads missed live keys", phase.reads_missing)
        live = list(range(driver.next_key))
        records = db.dataset("usertable").get_many(live)
        outcome.attempted += len(live) + 3
        missing = [key for key, record in zip(live, records) if record is None or record["k"] != key]
        if missing:
            outcome.fail(f"{len(missing)} live keys unreadable after the run (first {missing[0]})", len(missing))
        count = db.dataset("usertable").count()
        if count != len(live):
            outcome.fail(f"count() is {count}, the driver holds {len(live)} live keys")
        if db.num_nodes != self.NODES:
            outcome.fail(f"cluster ended on {db.num_nodes} nodes, expected {self.NODES}")
        p99 = report.write_p99_seconds
        if not p99.get(PHASE_REBALANCE, 0.0) >= p99.get(PHASE_STEADY, math.inf):
            outcome.fail(f"Fig-7c ordering broken: write p99 {p99}")

    def metrics(self, outcome: Outcome, run_s: float) -> Dict[str, float]:
        return {
            "moved_mb": outcome.counts.get("bytes_shipped", 0) / MIB_BYTES,
            "rebalance_sim_s": outcome.counts.get("rebalance_sim_seconds", 0.0),
        }


def same_answer(left: Any, right: Any) -> bool:
    """Equal up to floating-point summation round-off."""
    if isinstance(left, float) or isinstance(right, float):
        return isinstance(left, (int, float)) and isinstance(right, (int, float)) and math.isclose(
            left, right, rel_tol=1e-9, abs_tol=1e-6
        )
    if isinstance(left, Mapping) and isinstance(right, Mapping):
        return left.keys() == right.keys() and all(same_answer(left[k], right[k]) for k in left)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(same_answer(a, b) for a, b in zip(left, right))
    return left == right


def describe_answer(answer: Any) -> str:
    if isinstance(answer, Mapping):
        return ", ".join(f"{key}={value:.2f}" if isinstance(value, float) else f"{key}={value}"
                         for key, value in answer.items())
    return f"{len(answer)} rows" if isinstance(answer, list) else repr(answer)


class TpchElastic:
    """TPC-H answers across remove -> add -> add -> remove on the legacy engine."""

    name = "tpch_elastic"
    clock: Callable[[], float] = staticmethod(perf_counter)
    SCALE_FACTOR = 0.005
    STEPS: Tuple[Dict[str, int], ...] = ({"remove": 1}, {"add": 1}, {"add": 1}, {"remove": 1})
    QUERIES: Tuple[Tuple[str, Callable[[], Any]], ...] = (
        ("q1", q1_plan),
        ("q6", q6_plan),
        ("q3", q3_plan),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.plans = [(name, factory()) for name, factory in self.QUERIES]

    def setup(self) -> Database:
        config = ClusterConfig(num_nodes=4, partitions_per_node=2, seed=self.seed)
        db = Database(
            config, strategy="dynahash", strategy_options={"initial_buckets_per_partition": 4}
        )
        load_tpch(db, scale_factor=self.SCALE_FACTOR, seed=self.seed)
        return db

    def _table_counts(self, db: Database) -> Dict[str, int]:
        return {name: db.dataset(name).count() for name in db.dataset_names()}

    def _queries(self, db: Database, label: str, outcome: Outcome) -> None:
        for name, plan in self.plans:
            outcome.attempted += 1
            began = self.clock()
            try:
                result, report = db.execute(name, plan)
            except ReproError as error:
                outcome.fail(f"{name} {label} raised {error!r}")
                continue
            outcome.walls["query"] += self.clock() - began
            outcome.ops += 1
            outcome.counts["records_scanned"] += report.records_scanned
            outcome.counts["simulated_seconds"] += report.simulated_seconds
            outcome.evidence["answers"].append((label, name, result))

    def run(self, db: Database) -> Outcome:
        outcome = Outcome(walls={"query": 0.0, "rebalance": 0.0})
        outcome.counts.update(records_scanned=0, simulated_seconds=0.0)
        outcome.evidence.update(answers=[], table_counts=[("before", self._table_counts(db))])
        reports = []
        self._queries(db, "before", outcome)
        for number, step in enumerate(self.STEPS, start=1):
            label = f"after step {number} ({', '.join(f'{k} {v}' for k, v in step.items())})"
            outcome.attempted += 1
            began = self.clock()
            try:
                reports.append(db.rebalance(**step))
                outcome.ops += 1
            except ReproError as error:
                outcome.fail(f"rebalance {label} raised {error!r}")
            outcome.walls["rebalance"] += self.clock() - began
            outcome.evidence["table_counts"].append((label, self._table_counts(db)))
            self._queries(db, label, outcome)
        outcome.counts.update(rebalance_counts(reports))
        outcome.rows_returned = outcome.counts["records_scanned"]
        return outcome

    def check(self, db: Database, outcome: Outcome) -> None:
        answers = outcome.evidence["answers"]
        baseline = {name: result for label, name, result in answers if label == "before"}
        for label, name, result in answers:
            if label != "before" and not same_answer(result, baseline.get(name)):
                outcome.fail(
                    f"{name} {label} differs from its pre-rebalance answer: "
                    f"{describe_answer(result)} vs {describe_answer(baseline.get(name))}"
                )
        (_, before), *after = outcome.evidence["table_counts"]
        for label, counts in after:
            outcome.attempted += len(before)
            for table, count in counts.items():
                if count != before.get(table):
                    outcome.fail(f"{table} count() {label} is {count}, was {before.get(table)}")

    def metrics(self, outcome: Outcome, run_s: float) -> Dict[str, float]:
        return {
            "query_rows_per_s": (outcome.counts["records_scanned"] / outcome.walls["query"]
                                 if outcome.walls["query"] else 0.0),
            "rebalance_s": outcome.walls["rebalance"],
            "moved_mb": outcome.counts["bytes_shipped"] / MIB_BYTES,
            "rebalance_sim_s": outcome.counts["rebalance_sim_seconds"],
        }


WORKLOADS = {cls.name: cls for cls in (IngestSplit, YcsbRebalance, TpchElastic)}
