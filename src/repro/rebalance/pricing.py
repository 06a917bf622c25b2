"""Pricing the data-movement phase: physical work into simulated seconds.

Each bucket move of :meth:`~repro.rebalance.operation.RebalanceOperation.run_steps`
hands its :class:`~repro.rebalance.movement.MoveWork` to a pricer, and the two
execution engines differ only in the pricer they pick: :class:`PhasePricing`
(run to completion) prices the whole phase once when it closes,
:class:`MovePricing` (interleaved) prices every move as it happens.  Chaos
node slowdowns apply to whatever is charged, and ``per_node_seconds``
collects the report's per-node totals.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Set

from .concurrency import ReplicationStats
from .movement import MoveWork, MovementWork


class PhasePricing:
    """One slowest-node rollup over the whole phase, plus ``rpc(num_nodes)``."""

    #: Kind of the segment the closing charge is yielded as.
    closing_kind = "data_movement"

    def __init__(self, cluster: Any, partition_nodes: Mapping[int, str]) -> None:
        self.cost = cluster.cost
        self.chaos = getattr(cluster, "chaos", None)
        self.num_nodes = cluster.num_nodes
        self.partition_nodes = partition_nodes
        self.per_node_seconds: Dict[str, float] = {}

    def _charge(self, per_node: Dict[str, float]) -> Dict[str, float]:
        """Chaos-scale node seconds and fold them into the report totals."""
        if self.chaos is not None:
            per_node = dict(self.chaos.scale_node_seconds(per_node))
        for node, seconds in per_node.items():
            self.per_node_seconds[node] = self.per_node_seconds.get(node, 0.0) + seconds
        return per_node

    def move(self, work: MoveWork) -> float:
        """Seconds charged for one bucket move."""
        return 0.0

    def close(self, work: MovementWork, replication: ReplicationStats) -> float:
        """Seconds charged when the phase closes, after the last move."""
        # Per-node time: source scan + outbound network, destination load +
        # inbound network, all partitions of a node working in parallel but
        # sharing its network link; plus the cost of applying concurrent
        # writes (they contend with the movement on the same nodes).
        cost = self.cost
        nodes = self.partition_nodes
        per_node: Dict[str, float] = {}

        def add(node: str, seconds: float) -> None:
            per_node[node] = per_node.get(node, 0.0) + seconds

        for pid, num_bytes in work.scanned_bytes_by_partition.items():
            add(nodes[pid], cost.disk_read_time(num_bytes))
        for pid, num_bytes in work.loaded_bytes_by_partition.items():
            add(nodes[pid], cost.disk_write_time(num_bytes))
        for node, num_bytes in work.shipped_bytes_by_node.items():
            add(node, cost.network_time(num_bytes))
        for node, num_bytes in work.received_bytes_by_node.items():
            add(node, cost.network_time(num_bytes))
        # CPU of repartitioning and of rebuilding secondary index entries.
        for pid in work.loaded_bytes_by_partition:
            add(nodes[pid], cost.compare_time(work.records_moved))

        if replication.concurrent_writes:
            parse_seconds = cost.parse_time(replication.concurrent_writes)
            replication_network = cost.network_time(replication.replicated_bytes)
            for node in per_node:
                add(node, parse_seconds / max(1, len(per_node)))
            # Replication traffic shares the destination links.
            for node in work.received_bytes_by_node:
                add(node, replication_network / max(1, len(work.received_bytes_by_node)))
        return cost.slowest(self._charge(per_node)) + cost.rpc_time(self.num_nodes)


class MovePricing(PhasePricing):
    """Each move as its own rollup over the nodes it touched, plus ``rpc(2)``.

    The phase closes with a ``concurrent_writes`` charge: the replication
    overhead plus ``rpc(num_nodes)``.  Chaos scaling applies per charge, so a
    straggler window that opens mid-movement only slows the buckets moved
    while it is active.
    """

    closing_kind = "concurrent_writes"

    def __init__(self, cluster: Any, partition_nodes: Mapping[int, str]) -> None:
        super().__init__(cluster, partition_nodes)
        self._involved: Set[str] = set()

    def move(self, work: MoveWork) -> float:
        cost = self.cost
        source = work.source_node
        destination = work.destination_node
        self._involved.add(destination)
        per_node: Dict[str, float] = {}
        if source is not None:
            self._involved.add(source)
            per_node[source] = cost.disk_read_time(work.scanned_bytes)
        per_node[destination] = per_node.get(destination, 0.0) + (
            cost.disk_write_time(work.payload_bytes) + cost.compare_time(work.records)
        )
        if source is not None and source != destination:
            per_node[source] += cost.network_time(work.payload_bytes)
            per_node[destination] += cost.network_time(work.payload_bytes)
        return cost.slowest(self._charge(per_node)) + cost.rpc_time(2)

    def close(self, work: MovementWork, replication: ReplicationStats) -> float:
        cost = self.cost
        trailing: Dict[str, float] = {}
        if replication.concurrent_writes:
            involved = sorted(self._involved) or sorted(set(self.partition_nodes.values()))
            parse_seconds = cost.parse_time(replication.concurrent_writes)
            for node in involved:
                trailing[node] = parse_seconds / max(1, len(involved))
            # Replication traffic shares the destination links.
            replication_network = cost.network_time(replication.replicated_bytes)
            received_nodes = sorted(work.received_bytes_by_node)
            for node in received_nodes:
                trailing[node] = trailing.get(node, 0.0) + replication_network / max(
                    1, len(received_nodes)
                )
        return cost.slowest(self._charge(trailing)) + cost.rpc_time(self.num_nodes)
