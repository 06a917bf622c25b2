"""The rebalance operation: initialization, data movement, finalization.

This is the Section V protocol end-to-end for one dataset:

* **Initialization** — the CC forces a BEGIN metadata log record, pulls the
  latest local directories from the NCs (bucket splits are local), disables
  further splits, computes the new global directory with Algorithm 2 (or uses
  a caller-supplied plan), and flushes the memory components of every moving
  bucket to create the immutable snapshots that define the rebalance start
  time.
* **Data movement** — the affected buckets' snapshots are scanned at their
  sources, shipped, and bulk-loaded into invisible received buckets and
  secondary-index component lists at their destinations; concurrent writes are
  applied at the source and their log records replicated to the destination.
* **Finalization** — a two-phase commit: the CC blocks the dataset briefly,
  waits for every NC to finish log replication and flush its rebalance memory
  components (the *prepare* votes), forces a COMMIT record, tells the NCs to
  install received buckets and clean up moved buckets (both idempotent),
  updates the global directory, unblocks, and finally writes DONE.

Node/CC failures can be injected at the protocol sites named in
:class:`FaultInjector`; the recovery manager in
:mod:`repro.rebalance.recovery` then drives the six cases of Section V-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TYPE_CHECKING,
)

from ..common.errors import FaultInjected, RebalanceAborted, RebalanceError
from ..hashing.bucket_id import BucketId
from ..hashing.extendible import GlobalDirectory
from ..lsm.entry import estimate_value_size
from ..lsm.wal import LogRecordType
from ..cluster.reports import RebalanceReport
from ..sim import SimSegment, drain
from .concurrency import LogReplicator
from .movement import DataMover
from .plan import RebalancePlan, compute_balanced_directory
from .pricing import MovePricing, PhasePricing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import DatasetRuntime, SimulatedCluster


#: Protocol sites where a fault can be injected, in timeline order.
FAULT_SITES = (
    "nc_fail_before_prepare",       # Case 1
    "nc_fail_after_prepare",        # Case 2
    "cc_fail_before_commit",        # Case 3
    "nc_fail_before_committed",     # Case 4
    "cc_fail_after_commit",         # Case 5
    "cc_fail_after_done",           # Case 6
)


class FaultInjector:
    """Raises :class:`FaultInjected` the first time a registered site is hit."""

    def __init__(self, sites: Iterable[str] = ()) -> None:
        unknown = [site for site in sites if site not in FAULT_SITES]
        if unknown:
            raise ValueError(f"unknown fault sites: {unknown}")
        self._pending = set(sites)
        self.fired: List[str] = []

    def fire(self, site: str) -> None:
        if site in self._pending:
            self._pending.discard(site)
            self.fired.append(site)
            raise FaultInjected(site)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return bool(self._pending)


def serialize_plan(plan: RebalancePlan) -> Dict[str, Any]:
    """Encode a plan into a metadata-log payload (used for recovery)."""
    return {
        "assignments": [
            [bucket.prefix, bucket.depth, partition]
            for bucket, partition in sorted(plan.new_directory.assignments.items())
        ],
        "moves": [
            [
                move.bucket.prefix,
                move.bucket.depth,
                -1 if move.source_partition is None else move.source_partition,
                move.destination_partition,
            ]
            for move in plan.moves
        ],
    }


def deserialize_assignments(payload: Mapping[str, Any]) -> GlobalDirectory:
    assignments = {
        BucketId(prefix, depth): partition
        for prefix, depth, partition in payload.get("assignments", [])
    }
    return GlobalDirectory(assignments)


def deserialize_moves(payload: Mapping[str, Any]) -> List[Dict[str, Any]]:
    moves = []
    for prefix, depth, source, destination in payload.get("moves", []):
        moves.append(
            {
                "bucket": BucketId(prefix, depth),
                "source": None if source < 0 else source,
                "destination": destination,
            }
        )
    return moves


@dataclass
class ConcurrentWriteLoad:
    """Concurrent writes applied while the rebalance's data movement runs."""

    rows: Sequence[Mapping[str, Any]] = ()
    #: Controlled write rate in records/second; 0 means "as provided".  Used
    #: only for reporting (Figure 7c plots rebalance time against this rate).
    write_rate_records_per_sec: float = 0.0


class RebalanceOperation:
    """One dataset's rebalance to a new set of partitions."""

    def __init__(
        self,
        cluster: "SimulatedCluster",
        dataset_name: str,
        target_partitions: Sequence[int],
        strategy_name: str = "DynaHash",
        plan: Optional[RebalancePlan] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.cluster = cluster
        self.dataset_name = dataset_name
        self.runtime: "DatasetRuntime" = cluster.dataset(dataset_name)
        if self.runtime.routing_mode != "directory":
            raise RebalanceError(
                "RebalanceOperation requires directory routing; the global-hashing "
                "baseline reimplements its own movement in strategies.py"
            )
        self.target_partitions = list(target_partitions)
        self.strategy_name = strategy_name
        self.explicit_plan = plan
        self.faults = fault_injector or FaultInjector()
        self.rebalance_id = cluster.next_rebalance_id()
        self.plan: Optional[RebalancePlan] = plan
        self.old_nodes = cluster.num_nodes

    def _emit(self, name: str, **payload: Any) -> None:
        """Emit a lifecycle event on the cluster's bus (if it has one)."""
        events = getattr(self.cluster, "events", None)
        if events is not None:
            events.emit(
                name,
                dataset=self.dataset_name,
                rebalance_id=self.rebalance_id,
                **payload,
            )

    # ------------------------------------------------------------ utilities

    def _partition_nodes(self) -> Dict[int, str]:
        nodes: Dict[int, str] = {}
        for pid in set(self.target_partitions) | set(self.runtime.partitions.keys()):
            nodes[pid] = self.cluster.node_of_partition(pid).node_id
        return nodes

    def _target_node_count(self) -> int:
        return len({self._partition_nodes()[pid] for pid in self.target_partitions})

    # -------------------------------------------------------------- phases

    def run(self, concurrent: Optional[ConcurrentWriteLoad] = None) -> RebalanceReport:
        """Execute the full rebalance; returns a committed or aborted report.

        Raises :class:`FaultInjected` when an injected fault models a crash
        that the running operation cannot resolve (the recovery manager must
        then be invoked, exactly like a restarted CC/NC would).
        """
        return drain(self.run_steps(concurrent, _per_move=False))

    def run_steps(
        self, concurrent: Optional[ConcurrentWriteLoad] = None, *, _per_move: bool = True
    ) -> Generator[SimSegment, None, RebalanceReport]:
        """The protocol as :class:`~repro.sim.SimSegment` slices of work.

        Yields initialization, one segment per bucket move, the segment that
        closes data movement, and finalization; state mutates *between*
        yields, so a scheduler can interleave other actors inside the
        movement window while the sources still serve the old directory.
        Returns the report, whose ``simulated_seconds`` is the segments' sum.
        :meth:`run` drains it with movement priced once per phase instead of
        once per move (:mod:`repro.rebalance.pricing`).
        """
        report = RebalanceReport(
            strategy=self.strategy_name,
            dataset=self.dataset_name,
            old_nodes=self.old_nodes,
            new_nodes=self._target_node_count(),
            committed=False,
            simulated_seconds=0.0,
        )
        self._emit("rebalance.dataset.start", strategy=self.strategy_name)
        try:
            init_seconds = self._initialization_phase(report)
            self._emit("rebalance.phase", phase="initialization", seconds=init_seconds)
            yield SimSegment("initialization", init_seconds)
            move_seconds = 0.0
            for segment in self._data_movement_segments(report, concurrent, _per_move):
                move_seconds += segment.seconds
                yield segment
            self._emit("rebalance.phase", phase="data_movement", seconds=move_seconds)
            final_seconds = self._finalization_phase(report)
            self._emit("rebalance.phase", phase="finalization", seconds=final_seconds)
            yield SimSegment("finalization", final_seconds)
        except RebalanceAborted as aborted:
            abort_seconds = self._abort(str(aborted))
            report.abort_reason = str(aborted)
            report.phase_seconds["abort"] = abort_seconds
            report.simulated_seconds = sum(report.phase_seconds.values())
            self._emit("rebalance.abort", reason=str(aborted))
            self._emit("rebalance.dataset.complete", committed=False, report=report)
            return report
        report.committed = True
        report.phase_seconds.update(
            initialization=init_seconds, data_movement=move_seconds, finalization=final_seconds
        )
        report.simulated_seconds = init_seconds + move_seconds + final_seconds
        self._emit("rebalance.dataset.complete", committed=True, report=report)
        return report

    # -- initialization ------------------------------------------------------

    def _initialization_phase(self, report: RebalanceReport) -> float:
        cost = self.cluster.cost
        cc = self.cluster.cc
        # Force the BEGIN record before anything else (Section V-D relies on
        # it to learn about in-flight rebalances after a full-cluster crash).
        self._begin_record = cc.metadata_wal.append(
            LogRecordType.REBALANCE_BEGIN,
            self.dataset_name,
            None,
            {"rebalance_id": self.rebalance_id},
            force=True,
        )

        # Contact every NC for its latest local directory and disable splits.
        local_directories = {}
        for pid, partition in self.runtime.partitions.items():
            partition.primary.disable_splits()
            local_directories[pid] = partition.primary.directory
        refreshed = GlobalDirectory.from_local_directories(local_directories)
        self.runtime.global_directory = refreshed

        if self.explicit_plan is None:
            partition_nodes = self._partition_nodes()
            self.plan = compute_balanced_directory(
                refreshed, self.target_partitions, partition_nodes
            )
        else:
            self.plan = self.explicit_plan
        report.buckets_moved = self.plan.moved_buckets

        # Flush the memory components of every moving bucket: the flush time
        # is the rebalance start time and the resulting components are the
        # immutable snapshot (Section V-A).
        flush_bytes_by_node: Dict[str, float] = {}
        partition_nodes = self._partition_nodes()
        for move in self.plan.moves:
            if move.source_partition is None:
                continue
            source = self.runtime.partitions[move.source_partition]
            bucket = source.primary.bucket(move.bucket)
            component = bucket.flush()
            if component is not None:
                node = partition_nodes[move.source_partition]
                flush_bytes_by_node[node] = flush_bytes_by_node.get(node, 0) + component.size_bytes

        # Update the serialized plan into the BEGIN record's payload (the CC
        # writes it as part of the metadata transaction).
        self._begin_record.payload.update(serialize_plan(self.plan))
        cc.metadata_wal.force()

        per_node_seconds = {
            node: cost.disk_write_time(num_bytes) for node, num_bytes in flush_bytes_by_node.items()
        }
        chaos = getattr(self.cluster, "chaos", None)
        if chaos is not None:
            per_node_seconds = dict(chaos.scale_node_seconds(per_node_seconds))
        rpc_seconds = cost.rpc_time(2 * max(1, self.cluster.num_nodes))
        return cost.slowest(per_node_seconds) + rpc_seconds

    # -- data movement -------------------------------------------------------

    def _data_movement_segments(
        self, report: RebalanceReport, concurrent: Optional[ConcurrentWriteLoad], per_move: bool
    ) -> Generator[SimSegment, None, None]:
        """Data movement, one ``"move"`` segment per bucket plus a closing one."""
        assert self.plan is not None
        partition_nodes = self._partition_nodes()
        mover = DataMover(self.runtime, partition_nodes)
        replicator = LogReplicator(self.runtime, self.plan, partition_nodes)
        pricing = (MovePricing if per_move else PhasePricing)(self.cluster, partition_nodes)

        moves = list(self.plan.moves)
        # Open the log-replication channel for every moving bucket before any
        # data moves: concurrent writes may target a bucket whose scan has not
        # started yet, and their replicated records must not be lost.
        for move in moves:
            self.runtime.partitions[move.destination_partition].receive_bucket(move.bucket, [])
        concurrent_rows = list(concurrent.rows) if concurrent is not None else []
        # Interleave concurrent writes with bucket moves so the replicated
        # records land while the movement is in flight, as they would online.
        writes_per_move = (
            max(1, len(concurrent_rows) // max(1, len(moves))) if concurrent_rows else 0
        )

        # Per-move tracing feed: probed once per phase, so untraced runs pay
        # one cached dict hit for the whole movement loop.
        bus = getattr(self.cluster, "events", None)
        trace_moves = bus is not None and bus.has_subscribers("rebalance.bucket_move")

        row_iter = iter(concurrent_rows)
        for index, move in enumerate(moves):
            self.faults.fire("nc_fail_before_prepare")
            work = mover.move_bucket(move)
            if trace_moves:
                self._emit(
                    "rebalance.bucket_move",
                    bucket=move.bucket.label,
                    source=move.source_partition,
                    destination=move.destination_partition,
                    records=work.records,
                    payload_bytes=work.payload_bytes,
                )
            for _ in range(writes_per_move):
                row = next(row_iter, None)
                if row is None:
                    break
                self._concurrent_write(replicator, row)
            yield SimSegment("move", pricing.move(work), remaining=len(moves) - index - 1)
        for row in row_iter:
            self._concurrent_write(replicator, row)

        totals = mover.work
        report.records_moved = totals.records_moved
        report.bytes_scanned = totals.total_scanned_bytes
        report.bytes_shipped = totals.total_shipped_bytes
        report.bytes_loaded = totals.total_loaded_bytes
        report.concurrent_writes_applied = replicator.stats.concurrent_writes
        report.replicated_log_records = replicator.stats.replicated_records
        closing_seconds = pricing.close(totals, replicator.stats)
        report.per_node_seconds = dict(pricing.per_node_seconds)
        yield SimSegment(pricing.closing_kind, closing_seconds)

    def _concurrent_write(self, replicator: LogReplicator, row: Mapping[str, Any]) -> None:
        """Apply one concurrent write through the replication channel.

        Publishes the per-write latency a client would observe mid-rehash:
        the write is parsed and applied at its source, then its log record
        crosses the network twice (ship + replication ack) before the extra
        destination round trip acknowledges it — which is why writes are
        slower while a rebalance is in flight (Figure 7c).
        """
        cost = self.cluster.cost
        replicator.write(row)
        row_bytes = estimate_value_size(dict(row))
        self._emit(
            "op.update",
            latency_seconds=(
                cost.parse_time(1)
                + cost.network_time(2 * row_bytes)
                + cost.rpc_time(3)
            ),
            records=1,
            concurrent=True,
        )

    # -- finalization ---------------------------------------------------------

    def _finalization_phase(self, report: RebalanceReport) -> float:
        assert self.plan is not None
        cost = self.cluster.cost
        cc = self.cluster.cc
        partition_nodes = self._partition_nodes()

        # Prepare phase: block the dataset, wait for log replication to drain
        # and for every NC to flush its rebalance memory components.
        self.runtime.blocked = True
        for partition in self.runtime.partitions.values():
            partition.block()
        prepare_flush_by_node: Dict[str, float] = {}
        self.faults.fire("cc_fail_before_commit")
        for pid, partition in self.runtime.partitions.items():
            self.faults.fire("nc_fail_after_prepare")
            flushed = partition.prepare_rebalance()
            node = partition_nodes[pid]
            prepare_flush_by_node[node] = prepare_flush_by_node.get(node, 0) + flushed

        prepare_seconds_by_node = {
            node: cost.disk_write_time(b) for node, b in prepare_flush_by_node.items()
        }
        chaos = getattr(self.cluster, "chaos", None)
        if chaos is not None:
            prepare_seconds_by_node = dict(chaos.scale_node_seconds(prepare_seconds_by_node))
        blocked_seconds = cost.slowest(prepare_seconds_by_node) + cost.rpc_time(
            2 * max(1, self.cluster.num_nodes)
        )

        # Commit point: force the COMMIT record.
        cc.metadata_wal.append(
            LogRecordType.REBALANCE_COMMIT,
            self.dataset_name,
            None,
            {"rebalance_id": self.rebalance_id},
            force=True,
        )
        self._emit("rebalance.commit", buckets_moved=report.buckets_moved)

        self.faults.fire("nc_fail_before_committed")
        self.faults.fire("cc_fail_after_commit")

        # Commit tasks at every NC (all idempotent).
        self.apply_commit_tasks()

        # The dataset is unblocked before the DONE record: DONE only means the
        # operation can be forgotten.
        report.blocked_seconds = blocked_seconds
        cc.metadata_wal.append(
            LogRecordType.REBALANCE_DONE,
            self.dataset_name,
            None,
            {"rebalance_id": self.rebalance_id},
            force=True,
        )
        self.faults.fire("cc_fail_after_done")
        return blocked_seconds + cost.rpc_time(2 * max(1, self.cluster.num_nodes))

    # -- commit/abort tasks (also used by recovery) ---------------------------

    def apply_commit_tasks(self) -> None:
        """Install received buckets, clean up moved buckets, swap the directory."""
        assert self.plan is not None
        apply_commit_to_runtime(self.runtime, self.plan.new_directory, self.plan.moves)

    def _abort(self, reason: str) -> float:
        cost = self.cluster.cost
        apply_abort_to_runtime(self.runtime)
        self.cluster.cc.metadata_wal.append(
            LogRecordType.REBALANCE_ABORT,
            self.dataset_name,
            None,
            {"rebalance_id": self.rebalance_id, "reason": reason},
            force=True,
        )
        self.cluster.cc.metadata_wal.append(
            LogRecordType.REBALANCE_DONE,
            self.dataset_name,
            None,
            {"rebalance_id": self.rebalance_id},
            force=True,
        )
        return cost.rpc_time(2 * max(1, self.cluster.num_nodes))


def apply_commit_to_runtime(
    runtime: "DatasetRuntime", new_directory: GlobalDirectory, moves: Sequence[Any]
) -> None:
    """The NC/CC commit tasks, shared between the live path and recovery.

    Every step is idempotent: installing with nothing pending, cleaning up an
    already-removed bucket, and re-assigning the directory are all no-ops the
    second time.
    """
    for partition in runtime.partitions.values():
        partition.install_received_buckets()
    for move in moves:
        source = getattr(move, "source_partition", None)
        bucket = getattr(move, "bucket", None)
        if bucket is None and isinstance(move, dict):
            bucket = move["bucket"]
            source = move["source"]
        if source is None:
            continue
        partition = runtime.partitions.get(source)
        if partition is not None:
            partition.cleanup_moved_bucket(bucket)
    runtime.global_directory = new_directory.copy()
    for partition in runtime.partitions.values():
        partition.unblock()
        partition.primary.enable_splits()
    runtime.blocked = False


def apply_abort_to_runtime(runtime: "DatasetRuntime") -> None:
    """The NC abort/cleanup tasks, shared between the live path and recovery."""
    for partition in runtime.partitions.values():
        partition.drop_received_buckets()
        partition.unblock()
        partition.primary.enable_splits()
    runtime.blocked = False
