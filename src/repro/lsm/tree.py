"""A single LSM-tree index.

This is the substrate on which everything else is built: the primary index of
a dataset partition is a *set* of these (one per bucket, see
:mod:`repro.bucketed`), while the primary-key index and each secondary index
is a single one (storage Option 1 of Section IV).

The tree supports the features the rebalance implementation needs:

* out-of-place writes with tombstone deletes and sequence numbers,
* explicit flushes (asynchronous vs synchronous only differ in how the caller
  accounts their latency; both produce an immutable disk component),
* size-tiered merges driven by a pluggable merge policy,
* point lookups with Bloom-filter skipping and range scans with
  priority-queue reconciliation,
* *loaded* components (bulk-created from scanned rebalance data) that can be
  appended to the back of the component list,
* *received component lists* that stay invisible to queries until the
  rebalance commits (Section V-B), and
* *lazy cleanup filters* that make queries ignore entries of moved buckets in
  secondary indexes until the next merge rewrites them (Section V-C).  A
  filter covers only the components live when it was issued, so a bucket
  that later moves back is visible again.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..common.config import LSMConfig
from ..common.errors import StorageError
from ..common.hashutil import hash_key, low_bits
from .component import DiskComponent, MemoryComponent, ReferenceDiskComponent
from .entry import Entry
from .iterators import merge_entries, merge_scan
from .manifest import Manifest
from .merge_policy import MergePolicy, SizeTieredMergePolicy, select_components
from .stats import StorageStats

_received_list_ids = itertools.count(1)

#: Union type of everything that can sit in a component list.
AnyDiskComponent = Any  # DiskComponent | ReferenceDiskComponent


def _counting_newest(
    hidden: Callable[[int, Entry], bool], include_tombstones: bool, scanned: List[int]
) -> Callable[[int, Entry], bool]:
    """Wrap a scan's cleanup filter so that a key whose newest version is
    hidden still counts once in ``scanned`` ([records, bytes]): the scan
    reads that version before the filter drops it."""
    newest: List[Any] = [object()]

    def counting(index: int, entry: Entry) -> bool:
        # merge_scan asks about a key's versions newest first.
        first = entry.key != newest[0]
        newest[0] = entry.key
        if not hidden(index, entry):
            return False
        if first and (include_tombstones or not entry.tombstone):
            scanned[0] += 1
            scanned[1] += entry.size_bytes
        return True

    return counting


class LSMTree:
    """One LSM index with a memory component and a newest-first disk list."""

    def __init__(
        self,
        name: str,
        config: Optional[LSMConfig] = None,
        merge_policy: Optional[MergePolicy] = None,
        routing_key_extractor: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.name = name
        self.config = config or LSMConfig()
        self.merge_policy = merge_policy or SizeTieredMergePolicy(
            size_ratio=self.config.merge_size_ratio,
            min_components=self.config.merge_min_components,
            max_components=self.config.merge_max_components,
        )
        #: Maps an entry key to the key used for bucket-membership hashing.
        #: Identity for primary indexes; extracts the primary key for
        #: secondary indexes whose entry keys are (secondary key, primary key).
        self.routing_key_extractor = routing_key_extractor or (lambda key: key)
        self.memory = MemoryComponent()
        #: Disk components, newest first.
        self.disk_components: List[AnyDiskComponent] = []
        #: Received component lists from an in-flight rebalance, keyed by list
        #: id; invisible to queries until :meth:`install_received_list`.
        self._received_lists: Dict[int, List[AnyDiskComponent]] = {}
        #: Lazy-cleanup filters: bucket (prefix, depth) -> id of every
        #: component live when it was invalidated -> newest seqnum it hides
        #: (``None``: all).  Reads skip those components' entries whose
        #: routing key hashes into the bucket; merges drop them.
        self._invalid_buckets: Dict[Tuple[int, int], Dict[int, Optional[int]]] = {}
        self.stats = StorageStats()
        self.manifest = Manifest(name)
        self._seqnum = 0
        self._merges_paused = False

    # ------------------------------------------------------------------ write

    def _next_seqnum(self) -> int:
        self._seqnum += 1
        return self._seqnum

    def insert(self, key: Any, value: Any) -> Entry:
        """Insert or overwrite a record."""
        return self._write(key, value, tombstone=False)

    # AsterixDB's feeds use upserts; they are identical to inserts here.
    upsert = insert

    def delete(self, key: Any) -> Entry:
        """Delete a record by writing a tombstone."""
        return self._write(key, None, tombstone=True)

    def apply_entry(self, entry: Entry) -> Entry:
        """Apply an existing entry (e.g. a replicated log record) verbatim,
        but stamped with a local sequence number so local ordering holds."""
        return self._write(entry.key, entry.value, tombstone=entry.tombstone)

    def _write(self, key: Any, value: Any, tombstone: bool) -> Entry:
        self._seqnum += 1
        entry = Entry(key, value, self._seqnum, tombstone)
        size = entry.size_bytes
        self.memory.put(entry, size)
        stats = self.stats
        stats.records_written += 1
        stats.bytes_written_memory += size
        return entry

    # ------------------------------------------------------------------ flush

    def flush(self) -> Optional[DiskComponent]:
        """Flush the memory component into a new (newest) disk component.

        Returns the new component, or ``None`` if the memory component was
        empty.  Both the asynchronous and synchronous flushes of Algorithm 1
        map to this call; the distinction between them is purely about what
        concurrent writers experience, which the caller (bucket split /
        rebalance initialization) accounts for.
        """
        if self.memory.is_empty:
            return None
        entries = self.memory.sorted_entries()
        component = DiskComponent(
            entries,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
            bloom_num_hashes=self.config.bloom_num_hashes,
        )
        old_memory = self.memory
        self.memory = MemoryComponent()
        old_memory.deactivate()
        for scope in self._invalid_buckets.values():
            if old_memory.component_id in scope:
                scope[component.component_id] = scope.pop(old_memory.component_id)
        self.disk_components.insert(0, component)
        self.stats.flush_count += 1
        self.stats.bytes_flushed += component.size_bytes
        self._update_manifest()
        return component

    # ------------------------------------------------------------------ merge

    def pause_merges(self) -> None:
        """Stop scheduling new merges (step 1 of Algorithm 1)."""
        self._merges_paused = True

    def resume_merges(self) -> None:
        self._merges_paused = False

    @property
    def merges_paused(self) -> bool:
        return self._merges_paused

    def maybe_merge(self) -> Optional[DiskComponent]:
        """Run one merge if the policy asks for it; return the new component."""
        if self._merges_paused:
            return None
        sizes = [c.size_bytes for c in self.disk_components]
        candidate = select_components(self.merge_policy, sizes)
        if candidate is None:
            return None
        return self._merge_range(candidate.start, candidate.end)

    def merge_all(self) -> Optional[DiskComponent]:
        """Merge every disk component into one (used by tests and cleanup)."""
        if len(self.disk_components) < 2:
            return None
        return self._merge_range(0, len(self.disk_components))

    def _merge_range(self, start: int, end: int) -> DiskComponent:
        victims = self.disk_components[start:end]
        includes_oldest = end == len(self.disk_components)
        entry_sources = [self._component_entries_for_merge(c) for c in victims]
        merged = merge_entries(entry_sources, drop_tombstones=includes_oldest)
        new_component = DiskComponent(
            merged,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
            bloom_num_hashes=self.config.bloom_num_hashes,
        )
        read_bytes = sum(self._merge_read_bytes(c) for c in victims)
        self.stats.merge_count += 1
        self.stats.bytes_merged_read += read_bytes
        self.stats.bytes_merged_written += new_component.size_bytes
        self.stats.records_merged += sum(len(source) for source in entry_sources)
        self.disk_components[start:end] = [new_component]
        for victim in victims:
            victim.deactivate()
        # The merge dropped the invalidated entries of its victims; a filter
        # whose components are all rewritten is done.
        for bucket, scope in list(self._invalid_buckets.items()):
            for victim in victims:
                scope.pop(victim.component_id, None)
            if not scope:
                del self._invalid_buckets[bucket]
        self._update_manifest()
        return new_component

    def _component_entries_for_merge(self, component: AnyDiskComponent) -> List[Entry]:
        """Entries a merge reads from ``component``, applying cleanup filters."""
        entries = component.entries()
        hidden = self._cleanup_filter([component])
        if hidden is not None:
            entries = [e for e in entries if not hidden(0, e)]
        return entries

    def _merge_read_bytes(self, component: AnyDiskComponent) -> int:
        if isinstance(component, ReferenceDiskComponent):
            # A merge must read the whole referenced component to filter it.
            return component.referenced_bytes
        return component.size_bytes

    # ------------------------------------------------------------------ read

    def _visible_components(self) -> List[AnyDiskComponent]:
        return list(self.disk_components)

    def _cleanup_filter(self, sources: Sequence[Any]) -> Optional[Callable[[int, Entry], bool]]:
        """The lazy-cleanup filter for entries read from ``sources``.

        Returns ``hidden(index, entry)``, true when ``entry`` (read from
        ``sources[index]``) belongs to a bucket invalidated while that source
        was live, or ``None`` when no source is covered by any filter.
        """
        if not self._invalid_buckets:
            return None
        rules = [
            [
                (prefix, depth, scope[source.component_id])
                for (prefix, depth), scope in self._invalid_buckets.items()
                if source.component_id in scope
            ]
            for source in sources
        ]
        if not any(rules):
            return None
        extract = self.routing_key_extractor

        def hidden(index: int, entry: Entry) -> bool:
            source_rules = rules[index]
            if source_rules:
                hashed = hash_key(extract(entry.key))
                for prefix, depth, bound in source_rules:
                    if low_bits(hashed, depth) == prefix and (
                        bound is None or entry.seqnum <= bound
                    ):
                        return True
            return False

        return hidden

    def get(self, key: Any) -> Optional[Any]:
        """Point lookup: newest-to-oldest search, Bloom-filter skipping.

        Returns the value, or ``None`` if the key is absent or deleted.
        """
        entry = self.get_entry(key)
        if entry is None or entry.tombstone:
            return None
        return entry.value

    def get_entry(self, key: Any) -> Optional[Entry]:
        """Like :meth:`get` but returns the raw entry (tombstones included)."""
        if self._invalid_buckets:
            sources = [self.memory, *self._visible_components()]
            hidden = self._cleanup_filter(sources)
            if hidden is not None:
                # The newest version no filter hides.
                for index, source in enumerate(sources):
                    entry = source.get(key)
                    if entry is not None and not hidden(index, entry):
                        self.stats.records_read += 1
                        return entry
                return None
        mem_entry = self.memory.get(key)
        if mem_entry is not None:
            self.stats.records_read += 1
            return mem_entry
        for component in self._visible_components():
            if not component.may_contain(key):
                self.stats.bloom_negative_skips += 1
                continue
            component.retain()
            try:
                self.stats.components_opened += 1
                entry = component.get(key)
            finally:
                component.release()
            if entry is not None:
                self.stats.records_read += 1
                self.stats.bytes_read += entry.size_bytes
                return entry
        return None

    def scan(
        self,
        low: Any = None,
        high: Any = None,
        include_tombstones: bool = False,
    ) -> Iterator[Entry]:
        """Range scan with priority-queue reconciliation across components."""
        memory = self.memory
        components = self._visible_components()
        for component in components:
            component.retain()
        try:
            sources: List[Iterable[Entry]] = [memory.scan(low, high)]
            sources.extend(component.scan(low, high) for component in components)
            # Physically-read bytes count the lazily-cleaned entries too:
            # obsolete entries of moved buckets still cost I/O until a merge
            # drops them (that is the "overhead" of lazy secondary-index
            # cleanup measured in Figure 8), so a key whose newest version is
            # hidden still counts as read.
            hidden_read = [0, 0]
            hidden = self._cleanup_filter([memory, *components])
            if hidden is not None:
                hidden = _counting_newest(hidden, include_tombstones, hidden_read)
            scanned_bytes = 0
            scanned_records = 0
            self.stats.components_opened += len(components)
            for entry in merge_scan(sources, include_tombstones=include_tombstones, hidden=hidden):
                scanned_records += 1
                scanned_bytes += entry.size_bytes
                yield entry
            self.stats.records_read += scanned_records + hidden_read[0]
            self.stats.bytes_read += scanned_bytes + hidden_read[1]
        finally:
            for component in components:
                component.release()

    def __contains__(self, key: Any) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        """Number of live keys (requires a full reconciling scan)."""
        return sum(1 for _ in self.scan())

    # --------------------------------------------------------- physical sizes

    @property
    def size_bytes(self) -> int:
        """Estimated total size of the index (memory plus visible disk)."""
        return self.memory.size_bytes + self.disk_size_bytes

    @property
    def disk_size_bytes(self) -> int:
        return sum(c.size_bytes for c in self.disk_components)

    @property
    def component_count(self) -> int:
        return len(self.disk_components)

    # ------------------------------------------------- rebalance integration

    def add_loaded_component(self, entries: Sequence[Entry], newest: bool = False) -> DiskComponent:
        """Create a disk component directly from pre-sorted data.

        Used by the rebalance destination to bulk-load scanned records.  With
        ``newest=False`` (the default) the component is appended at the *back*
        of the list, i.e. treated as strictly older than everything already
        present — exactly the ordering Section V-B requires between scanned
        data and replicated log records.
        """
        component = DiskComponent(
            entries,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
            bloom_num_hashes=self.config.bloom_num_hashes,
        )
        if newest:
            self.disk_components.insert(0, component)
        else:
            self.disk_components.append(component)
        self.stats.bytes_flushed += component.size_bytes
        self._update_manifest()
        return component

    def create_received_list(self) -> int:
        """Open a new invisible component list for rebalance-received data."""
        list_id = next(_received_list_ids)
        self._received_lists[list_id] = []
        self.manifest.add_pending_received(list_id)
        return list_id

    def append_to_received_list(self, list_id: int, entries: Sequence[Entry]) -> DiskComponent:
        """Add a component of received records to an invisible list."""
        if list_id not in self._received_lists:
            raise StorageError(f"unknown received list {list_id}")
        component = DiskComponent(
            entries,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
            bloom_num_hashes=self.config.bloom_num_hashes,
        )
        self._received_lists[list_id].append(component)
        self.stats.bytes_flushed += component.size_bytes
        return component

    def received_list_components(self, list_id: int) -> List[AnyDiskComponent]:
        if list_id not in self._received_lists:
            raise StorageError(f"unknown received list {list_id}")
        return list(self._received_lists[list_id])

    def received_list_ids(self) -> List[int]:
        return list(self._received_lists.keys())

    def install_received_list(self, list_id: int) -> None:
        """Make a received list visible (the NC-side commit task).

        The received components were written in arrival order (newest last is
        the bulk-loaded scan, newest first the replicated writes); they are
        registered *after* the existing newest components so that local writes
        that raced ahead keep their recency, and internal order is preserved.
        Installing an unknown list id is a no-op, making the operation
        idempotent (Section V-D, Case 4).
        """
        components = self._received_lists.pop(list_id, None)
        if components is None:
            return
        self.disk_components[0:0] = components
        self.manifest.remove_pending_received(list_id)
        self._update_manifest()

    def drop_received_list(self, list_id: int) -> None:
        """Delete a received list (the NC-side abort/cleanup task).

        Idempotent: dropping a list that does not exist is a no-op
        (Section V-D, Case 1).
        """
        components = self._received_lists.pop(list_id, None)
        if components is None:
            return
        for component in components:
            component.deactivate()
        self.manifest.remove_pending_received(list_id)

    def drop_all_received_lists(self) -> None:
        for list_id in list(self._received_lists.keys()):
            self.drop_received_list(list_id)

    def invalidate_bucket(self, hash_prefix: int, depth: int) -> None:
        """Lazy cleanup: hide the bucket's entries in every live component.

        Used by secondary indexes after a bucket moves away; merges drop the
        hidden entries physically.  Components installed or flushed later
        (say, when the bucket moves back) are not covered.
        """
        bucket = (low_bits(hash_prefix, depth), depth)
        scope = self._invalid_buckets.setdefault(bucket, {})
        for component in self.disk_components:
            scope[component.component_id] = None
        if not self.memory.is_empty:
            # Writes that reach the memory component later are not stale.
            scope[self.memory.component_id] = self._seqnum
        self.manifest.invalidate_bucket(*bucket)

    @property
    def invalidated_buckets(self) -> Set[Tuple[int, int]]:
        return set(self._invalid_buckets)

    # ------------------------------------------------------------- manifest

    def _update_manifest(self) -> None:
        self.manifest.set_components([c.component_id for c in self.disk_components])

    def force_manifest(self) -> None:
        self._update_manifest()
        self.manifest.force()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LSMTree(name={self.name!r}, mem={self.memory.size_bytes}B, "
            f"components={len(self.disk_components)})"
        )
