"""Tests for the workload driver's one executor and its two phase shapes.

Plain traffic phases draw and execute chunks of ``op_chunk`` ops, batching
same-verb runs (one ``op.batch`` telemetry event per run).  Phases with an
autopilot attached or a ``max_seconds`` budget keep exact op positions: they
run chunks of one op through the per-op verbs, one ``op.*`` event per op.
Both shapes must be observationally identical — same key/op stream off the
seeded RNG, same metric snapshots, same phase op counts — and these tests pin
that equivalence and which telemetry each shape emits.
"""

import random
from dataclasses import replace

import pytest

from repro.api import ClusterConfig, Database, WorkloadDriver, WorkloadSpec
from repro.workload import Phase, Schedule
from repro.workload.driver import PhaseResult
from repro.workload.keygen import ZipfianKeys
from repro.workload.mixes import make_mix

#: A ``max_seconds`` budget no test phase comes near: it only switches the
#: phase to op-by-op execution.
NON_BINDING = 1e9


def open_db():
    return Database(
        ClusterConfig(num_nodes=3, partitions_per_node=2, strategy="dynahash")
    )


def run_spec(max_seconds=None, **overrides):
    """Run one steady phase of 500 ops (or ``overrides["schedule"]``); with
    ``max_seconds`` every phase of the schedule gets that budget."""
    schedule = overrides.pop("schedule", Schedule((Phase(name="steady", ops=500),)))
    if max_seconds is not None:
        schedule = Schedule(
            tuple(
                phase if phase.rebalance else replace(phase, max_seconds=max_seconds)
                for phase in schedule
            )
        )
    db = open_db()
    spec = WorkloadSpec(dataset="t", initial_records=400, schedule=schedule, **overrides)
    report = WorkloadDriver(db, spec).run()
    snapshot = report.snapshot
    db.close()
    return report, snapshot


def emitted_op_events(db, schedule):
    """Names of the ``op.*`` events one driver run emits."""
    seen = []
    db.on("op.*", lambda event: seen.append(event.name))
    WorkloadDriver(db, WorkloadSpec(dataset="t", initial_records=200, schedule=schedule)).run()
    return seen


class TestBatchedEqualsLegacy:
    """Batched chunks equal the op-by-op shape a non-binding budget selects."""

    @pytest.mark.parametrize("mix", ["A", "B", "D", "E"])
    def test_same_seed_same_snapshot_across_pipelines(self, mix):
        batched_report, batched = run_spec(mix=mix)
        per_op_report, per_op = run_spec(mix=mix, max_seconds=NON_BINDING)
        assert batched == per_op
        assert batched_report.total_ops == per_op_report.total_ops
        for batched_phase, per_op_phase in zip(
            batched_report.phases, per_op_report.phases, strict=True
        ):
            assert batched_phase.ops == per_op_phase.ops
            assert batched_phase.reads == per_op_phase.reads
            assert batched_phase.reads_found == per_op_phase.reads_found
            assert batched_phase.inserts == per_op_phase.inserts
            assert batched_phase.updates == per_op_phase.updates
            assert batched_phase.scans == per_op_phase.scans
            assert batched_phase.scan_rows == per_op_phase.scan_rows

    def test_equivalence_with_deletes_in_mix(self):
        from repro.workload import OperationMix

        mix = OperationMix(name="crud", read=0.4, insert=0.2, update=0.2, delete=0.2)
        batched_report, batched = run_spec(mix=mix)
        per_op_report, per_op = run_spec(mix=mix, max_seconds=NON_BINDING)
        assert batched == per_op
        assert (
            batched_report.phases[0].deletes == per_op_report.phases[0].deletes > 0
        )

    def test_tiny_chunk_still_equivalent(self):
        _, chunked = run_spec(mix="A", op_chunk=3)
        _, wide = run_spec(mix="A", op_chunk=4096)
        assert chunked == wide

    def test_rebalance_schedule_equivalent_across_pipelines(self):
        schedule = Schedule(
            (
                Phase(name="warm", ops=120),
                Phase(name="resize", ops=120, rebalance={"add": 1}),
                Phase(name="cool", ops=120),
            )
        )
        batched_report, batched = run_spec(mix="A", schedule=schedule)
        per_op_report, per_op = run_spec(mix="A", schedule=schedule, max_seconds=NON_BINDING)
        assert batched == per_op
        resize = batched_report.phase("resize")
        assert resize.reads + resize.updates == resize.ops == 120
        assert resize.reads == per_op_report.phase("resize").reads


class TestDrawStream:
    def test_batched_draws_match_old_per_op_loop(self):
        """The chunked draw must consume the RNG exactly as the retired
        per-op loop did: op draw, key draw, and the jittered batch-target
        redraw at every insert-buffer flush point."""
        db = open_db()
        spec = WorkloadSpec(
            dataset="t", initial_records=300, mix="D", default_ops=400, batch_size=8
        )
        driver = WorkloadDriver(db, spec)
        driver.prepare()

        # Reference: replay the old per-op loop's draw sequence from the same
        # RNG stream position (prepare() already consumed the preload draws,
        # so the reference clones the driver's post-prepare state).
        reference_rng = random.Random(driver.seed)
        reference_rng.setstate(driver.rng.getstate())
        mix = make_mix(spec.mix)
        keys = driver._keys

        expected = []
        next_key = driver.next_key
        pending = len(driver._pending_rows)
        target = driver._batch_target
        for _ in range(200):
            op = mix.choose(reference_rng)
            durable = max(1, next_key - pending)
            if op == "read":
                expected.append(("read", keys.next_index(reference_rng, durable)))
            elif op == "insert":
                expected.append(("insert", next_key))
                next_key += 1
                pending += 1
                if pending >= target:
                    jitter = spec.batch_jitter
                    scale = 1.0 + jitter * (2.0 * reference_rng.random() - 1.0)
                    target = max(1, round(spec.batch_size * scale))
                    expected.append(("flush", target))
                    pending = 0
            elif op in ("update", "delete"):
                expected.append((op, keys.next_index(reference_rng, durable)))
            else:
                expected.append(("scan", keys.next_index(reference_rng, durable)))

        plan = driver._draw_chunk(200, mix, keys, PhaseResult(name="probe"))
        actual = []
        for verb, arg in plan:
            if verb == "buffer":
                actual.append(("insert", arg[spec.primary_key]))
            elif verb == "flush":
                actual.append(("flush", arg))
            elif verb == "update":
                actual.append(("update", arg[spec.primary_key]))
            else:
                actual.append((verb, arg))
        assert actual == expected
        db.close()


class TestPipelineSelection:
    """Which telemetry each phase shape emits — the observable selection."""

    def test_auto_batches_without_autopilot(self):
        db = open_db()
        seen = emitted_op_events(db, Schedule((Phase(name="p", ops=200),)))
        assert "op.batch" in seen
        db.close()

    def test_max_seconds_falls_back_to_per_op_loop(self):
        db = open_db()
        seen = emitted_op_events(
            db, Schedule((Phase(name="p", ops=200, max_seconds=NON_BINDING),))
        )
        assert "op.batch" not in seen
        assert seen.count("op.read") > 0
        db.close()

    def test_autopilot_session_falls_back_to_per_op_loop(self):
        db = open_db()
        db.create_dataset("t", primary_key="k")
        db.autopilot(policy="threshold", check_every_ops=50)
        seen = emitted_op_events(db, Schedule((Phase(name="p", ops=200),)))
        assert "op.batch" not in seen
        assert seen.count("op.read") > 0
        db.close()

    def test_max_seconds_cutoff_respected(self):
        db = open_db()
        spec = WorkloadSpec(
            dataset="t",
            initial_records=200,
            mix="C",
            schedule=Schedule((Phase(name="budget", ops=100_000, max_seconds=1e-4),)),
        )
        report = WorkloadDriver(db, spec).run()
        assert report.phase("budget").ops < 100_000
        db.close()


class TestZetaCache:
    def test_zeta_constants_cached_per_num_keys_and_theta(self):
        from repro.workload.keygen import _ZETA_CACHE

        ZipfianKeys(num_keys=4321, theta=0.93)
        assert (4321, 0.93) in _ZETA_CACHE
        first = _ZETA_CACHE[(4321, 0.93)]
        ZipfianKeys(num_keys=4321, theta=0.93)
        assert _ZETA_CACHE[(4321, 0.93)] is first

    def test_cached_generator_draws_identically(self):
        a = ZipfianKeys(num_keys=2000)
        b = ZipfianKeys(num_keys=2000)  # zeta served from the cache
        rng_a, rng_b = random.Random(5), random.Random(5)
        for _ in range(500):
            assert a.next_index(rng_a, 2000) == b.next_index(rng_b, 2000)
