"""Span tracing and storage counting from outside the program.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces the
public entry point of each layer boundary (a method, property or generator
method of a ``repro`` class) with a timing wrapper, and :meth:`Tracer.uninstall`
puts the originals back, so untraced runs execute the unmodified program.

Spans live in memory as parallel arrays: boundary name, parent span, start,
end, busy seconds and self seconds.  A generator boundary (``LSMTree.scan``,
the rebalance generator twins, ...) is one span per generator whose busy time
is the sum of its ``next()``/``send()`` resumptions, so the consumer's work
between resumptions is not charged to it.  Self time is busy time minus the
time of the child spans that ran inside it (measured on the live stack).
Spans read the clock given to the tracer, ``perf_counter`` by default; the
benchmark passes the speed probe's reference clock, so the probe's slices stay
out of every span and span seconds are on the same clock as ``run_s``.

:class:`StatsLedger` keeps every ``LSMTree``'s :class:`StorageStats` object
and every bucketed tree's split history as they are created, so cluster-wide
flush/merge/split/read counters stay exact when buckets split or move away.
It installs no timing wrapper and is used on traced and untraced runs alike.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Boundary name -> the ``module:Class.attribute`` entry points it wraps.
#: Hot helpers such as ``hash_key`` are deliberately absent: wrapping a
#: function called millions of times would make the traced run unrepresentative.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "api.insert": ("repro.api.dataset:Dataset.insert",),
    "api.upsert": (
        "repro.api.dataset:Dataset.upsert",
        "repro.api.dataset:Dataset.upsert_each",
    ),
    "api.get": (
        "repro.api.dataset:Dataset.get",
        "repro.api.dataset:Dataset.get_many",
    ),
    "api.scan": ("repro.api.dataset:Dataset.scan",),
    "api.rebalance": (
        "repro.api.database:Database.rebalance",
        "repro.api.database:Database.rebalance_steps",
    ),
    "api.execute": ("repro.api.database:Database.execute",),
    "workload.run": ("repro.workload.driver:WorkloadDriver.run",),
    "sim.run": ("repro.sim.scheduler:EventScheduler.run",),
    "cluster.feed_ingest": ("repro.cluster.feed:DataFeed.ingest",),
    "cluster.point_lookup": ("repro.cluster.partition:StoragePartition.lookup",),
    "cluster.rebalance_to": (
        "repro.cluster.controller:SimulatedCluster.rebalance_to",
        "repro.cluster.controller:SimulatedCluster.rebalance_to_steps",
    ),
    "rebalance.run": (
        "repro.rebalance.operation:RebalanceOperation.run",
        "repro.rebalance.operation:RebalanceOperation.run_steps",
    ),
    "query.execute_plan": ("repro.query.executor:ClusterQueryExecutor.execute_plan",),
    "tpch.load": ("repro.tpch.workload:TPCHWorkload.load",),
    "bucketed.maintain": ("repro.bucketed.bucketed_lsm:BucketedLSMTree.maintain",),
    "bucketed.split": ("repro.bucketed.bucketed_lsm:BucketedLSMTree.split",),
    "lsm.flush": ("repro.lsm.tree:LSMTree.flush",),
    "lsm.maybe_merge": ("repro.lsm.tree:LSMTree.maybe_merge",),
    "lsm.scan": ("repro.lsm.tree:LSMTree.scan",),
    "lsm.ref_size": (
        "repro.lsm.component:ReferenceDiskComponent.size_bytes",
        "repro.lsm.component:ReferenceDiskComponent.entries",
    ),
    "metrics.record": (
        "repro.metrics.registry:MetricsRegistry.observe_op",
        "repro.metrics.registry:MetricsRegistry.observe_op_batch",
    ),
    "common.emit": ("repro.common.events:EventBus.emit",),
}

Hook = Callable[[Tuple[Any, ...], Any], None]


def _resolve(target: str) -> Tuple[type, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (class, attribute name, raw class attribute)."""
    module_name, _, path = target.partition(":")
    class_name, _, attribute = path.partition(".")
    owner = getattr(importlib.import_module(module_name), class_name)
    if attribute not in owner.__dict__:
        raise LookupError(f"boundary {target} is not defined on {class_name}")
    return owner, attribute, owner.__dict__[attribute]


class _Patches:
    """Class attributes replaced by :meth:`apply`, restored by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def apply(self, target: str, make: Callable[[Any], Any]) -> None:
        owner, attribute, original = _resolve(target)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


class StatsLedger:
    """Exact cluster-wide storage counters, whatever happens to the trees."""

    def __init__(self) -> None:
        self._stats: List[Any] = []
        self._split_logs: List[list] = []
        self._patches = _Patches()

    def install(self) -> None:
        ledger = self

        def register_tree(init: Callable[..., None]) -> Callable[..., None]:
            def __init__(tree: Any, *args: Any, **kwargs: Any) -> None:
                init(tree, *args, **kwargs)
                ledger._stats.append(tree.stats)

            return __init__

        def register_bucketed(init: Callable[..., None]) -> Callable[..., None]:
            def __init__(tree: Any, *args: Any, **kwargs: Any) -> None:
                init(tree, *args, **kwargs)
                ledger._split_logs.append(tree.split_history)

            return __init__

        self._patches.apply("repro.lsm.tree:LSMTree.__init__", register_tree)
        self._patches.apply(
            "repro.bucketed.bucketed_lsm:BucketedLSMTree.__init__", register_bucketed
        )

    def uninstall(self) -> None:
        self._patches.restore()

    def totals(self) -> Dict[str, int]:
        """Every StorageStats counter summed over all trees, plus ``splits``."""
        total: Dict[str, int] = {}
        for stats in self._stats:
            for name, value in vars(stats).items():
                total[name] = total.get(name, 0) + value
        total["splits"] = sum(len(log) for log in self._split_logs)
        return total


class Tracer:
    """Records a span per call of every boundary in :data:`BOUNDARIES`."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = list(BOUNDARIES)
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.self_s = array("d")
        #: 1 when no span of the same boundary encloses this one, so nested
        #: same-boundary calls (``size_bytes`` -> ``entries``) are not counted
        #: twice in inclusive time.
        self.outer = array("b")
        #: Open frames: [span index, seconds covered by children so far].
        self._stack: List[List[Any]] = []
        self._open_per_name = [0] * len(self.names)
        self.counters: Dict[str, float] = {}
        #: Trees that flushed, merged or split inside the open maintain pass.
        self._useful: Optional[set] = None
        self._patches = _Patches()

    # ---------------------------------------------------------------- spans

    def _open(self, name_id: int, t0: float) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(t0)
        self.end.append(t0)
        self.busy.append(0.0)
        self.self_s.append(0.0)
        self.outer.append(0 if self._open_per_name[name_id] else 1)
        return index

    def _close(self, frame: List[Any], t0: float, t1: float) -> None:
        index = frame[0]
        elapsed = t1 - t0
        self.end[index] = t1
        self.busy[index] += elapsed
        self.self_s[index] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def _timed(
        self, name_id: int, fn: Callable[..., Any],
        before: Optional[Hook], after: Optional[Hook],
    ) -> Callable[..., Any]:
        stack = self._stack
        open_per_name = self._open_per_name
        clock = self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, None)
            t0 = clock()
            frame = [self._open(name_id, t0), 0.0]
            stack.append(frame)
            open_per_name[name_id] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_per_name[name_id] -= 1
                stack.pop()
                self._close(frame, t0, t1)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _timed_generator(self, name_id: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        open_per_name = self._open_per_name
        clock = self.clock

        def resume(index: Optional[int], method: Callable[[Any], Any], value: Any) -> Tuple[int, Any]:
            t0 = clock()
            if index is None:
                index = self._open(name_id, t0)
            frame = [index, 0.0]
            stack.append(frame)
            open_per_name[name_id] += 1
            try:
                return index, method(value)
            finally:
                t1 = clock()
                open_per_name[name_id] -= 1
                stack.pop()
                self._close(frame, t0, t1)

        def traced(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            index: Optional[int] = None
            method: Callable[[Any], Any] = inner.send
            value: Any = None
            try:
                while True:
                    try:
                        index, item = resume(index, method, value)
                    except StopIteration as done:
                        return done.value
                    try:
                        value = yield item
                        method = inner.send
                    except GeneratorExit:
                        raise
                    except BaseException as error:  # forwarded into the generator
                        method, value = inner.throw, error
            finally:
                inner.close()

        return traced

    # -------------------------------------------------------------- counters

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _hooks(self) -> Dict[str, Tuple[Optional[Hook], Optional[Hook]]]:
        """Counting hooks per entry point; they run outside the timed region."""

        def maintain_before(args: Tuple[Any, ...], _: Any) -> None:
            self._count("bucketed.maintain.buckets_visited", args[0].bucket_count)
            self._useful = set()

        def maintain_after(args: Tuple[Any, ...], _: Any) -> None:
            self._count("bucketed.maintain.buckets_useful", len(self._useful or ()))
            self._useful = None

        def split_before(args: Tuple[Any, ...], _: Any) -> None:
            if self._useful is not None:
                self._useful.add(id(args[0].bucket(args[1]).tree))

        def flush_after(args: Tuple[Any, ...], result: Any) -> None:
            if result is not None and self._useful is not None:
                self._useful.add(id(args[0]))

        def merge_after(args: Tuple[Any, ...], result: Any) -> None:
            if result is not None:
                self._count("lsm.merges_done")
                flush_after(args, result)

        def entries_before(args: Tuple[Any, ...], _: Any) -> None:
            # Each entries() call re-hashes every key of the target component;
            # size_bytes goes through entries(), so it is counted there once.
            self._count("lsm.ref_rows_rehashed", len(args[0].target))

        return {
            "repro.bucketed.bucketed_lsm:BucketedLSMTree.maintain": (maintain_before, maintain_after),
            "repro.bucketed.bucketed_lsm:BucketedLSMTree.split": (split_before, None),
            "repro.lsm.tree:LSMTree.flush": (None, flush_after),
            "repro.lsm.tree:LSMTree.maybe_merge": (None, merge_after),
            "repro.lsm.component:ReferenceDiskComponent.entries": (entries_before, None),
        }

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        hooks = self._hooks()
        for name, targets in BOUNDARIES.items():
            name_id = self._ids[name]
            for target in targets:
                before, after = hooks.get(target, (None, None))

                def make(original: Any, name_id: int = name_id,
                         before: Optional[Hook] = before,
                         after: Optional[Hook] = after) -> Any:
                    if isinstance(original, property):
                        return property(self._timed(name_id, original.fget, before, after))
                    if inspect.isgeneratorfunction(original):
                        return self._timed_generator(name_id, original)
                    return self._timed(name_id, original, before, after)

                self._patches.apply(target, make)

    def uninstall(self) -> None:
        self._patches.restore()

    # --------------------------------------------------------------- reports

    def mark(self) -> Tuple[int, Dict[str, float]]:
        """A position to aggregate from: span count and counter values."""
        return len(self.start), dict(self.counters)

    def table(self, since: Tuple[int, Dict[str, float]], until: Optional[Tuple[int, Dict[str, float]]] = None) -> Dict[str, Dict[str, float]]:
        """Per boundary: calls, inclusive seconds and self seconds of the
        spans opened between two marks (``until=None``: up to now)."""
        first = since[0]
        last = len(self.start) if until is None else until[0]
        rows = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        for index in range(first, last):
            row = rows[names[self.name[index]]]
            row["calls"] += 1
            row["self_s"] += self.self_s[index]
            if self.outer[index]:
                row["s"] += self.busy[index]
        return rows

    def counter_delta(self, since: Tuple[int, Dict[str, float]], until: Tuple[int, Dict[str, float]]) -> Dict[str, float]:
        before, after = since[1], until[1]
        return {name: after.get(name, 0) - before.get(name, 0) for name in set(after) | set(before)}

def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
