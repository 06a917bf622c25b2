"""The bucketed LSM-tree (Section IV).

A bucketed LSM-tree is the primary-index storage structure of DynaHash: a
local directory of extendible-hash buckets, each of which is its own LSM-tree
(:class:`~repro.bucketed.bucket.Bucket`).  It offers the same interface as a
traditional LSM-tree — writes, point lookups, range scans — plus the
operations the rebalance protocol needs: bucket-granular snapshots, installs,
and removals, and dynamic bucket splits when a bucket grows past the
configured maximum size.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from ..common.config import BucketingConfig, LSMConfig
from ..common.errors import BucketNotFoundError, StorageError
from ..common.hashutil import hash_key
from ..hashing.bucket_id import BucketId
from ..hashing.extendible import LocalDirectory
from ..lsm.entry import Entry
from ..lsm.manifest import Manifest
from ..lsm.merge_policy import MergePolicy
from ..lsm.stats import StorageStats
from .bucket import Bucket
from .scan import ordered_scan, unordered_scan
from .split import SplitResult, split_bucket


class BucketedLSMTree:
    """A local directory of buckets, each stored as its own LSM-tree."""

    def __init__(
        self,
        name: str,
        partition_id: int,
        initial_buckets: Iterable[BucketId],
        lsm_config: Optional[LSMConfig] = None,
        bucketing_config: Optional[BucketingConfig] = None,
        merge_policy_factory: Optional[Callable[[], MergePolicy]] = None,
        allow_empty: bool = False,
    ) -> None:
        self.name = name
        self.partition_id = partition_id
        self.lsm_config = lsm_config or LSMConfig()
        self.bucketing_config = bucketing_config or BucketingConfig()
        self._merge_policy_factory = merge_policy_factory
        self.directory = LocalDirectory(partition_id)
        self.manifest = Manifest(name)
        self._buckets: Dict[BucketId, Bucket] = {}
        #: Splits are disabled for the duration of a rebalance (Section V-A).
        self.splits_enabled = not self.bucketing_config.static
        #: Cumulative record of all splits ever performed (for benchmarks).
        self.split_history: List[SplitResult] = []
        initial = list(initial_buckets)
        if not initial and not allow_empty:
            raise StorageError("a bucketed LSM-tree needs at least one initial bucket")
        for bucket_id in initial:
            self._create_bucket(bucket_id)
        self.manifest.force()

    # --------------------------------------------------------------- buckets

    def _make_policy(self) -> Optional[MergePolicy]:
        return self._merge_policy_factory() if self._merge_policy_factory else None

    def _create_bucket(self, bucket_id: BucketId) -> None:
        self.adopt_bucket(
            Bucket(
                bucket_id,
                config=self.lsm_config,
                merge_policy=self._make_policy(),
                index_name=self.name,
            )
        )

    @property
    def bucket_ids(self) -> List[BucketId]:
        return self.directory.buckets

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    def bucket(self, bucket_id: BucketId) -> Bucket:
        try:
            return self._buckets[bucket_id]
        except KeyError:
            raise BucketNotFoundError(
                f"bucket {bucket_id} is not on partition {self.partition_id}"
            ) from None

    def buckets(self) -> List[Bucket]:
        return [self._buckets[bucket_id] for bucket_id in self.directory.buckets]

    def bucket_for_key(self, key: Any) -> Bucket:
        bucket_id = self.directory.bucket_for_hash(hash_key(key))
        return self._buckets[bucket_id]

    def owns_key(self, key: Any) -> bool:
        return self.directory.owns_key(key)

    def bucket_sizes(self) -> Dict[BucketId, int]:
        """Physical size per bucket — the input to the rebalance planner."""
        return {bucket_id: bucket.size_bytes for bucket_id, bucket in self._buckets.items()}

    # ------------------------------------------------------------ data path

    def insert(self, key: Any, value: Any) -> Entry:
        return self.insert_routed(key, value, hash_key(key))

    def insert_routed(self, key: Any, value: Any, hashed: int) -> Entry:
        """Insert with the key's hash already computed (the feed routes on the
        same hash).  Directory routing proves bucket ownership, so the
        bucket-level insert (which would re-hash the key twice more via
        ``owns_key``) is bypassed in favour of its access check + tree write.
        """
        bucket = self._buckets[self.directory.bucket_for_hash(hashed)]
        bucket._check_access()
        return bucket.tree.insert(key, value)

    upsert = insert

    def delete(self, key: Any) -> Entry:
        return self.bucket_for_key(key).delete(key)

    def apply_entry(self, entry: Entry) -> Entry:
        return self.bucket_for_key(entry.key).apply_entry(entry)

    def get(self, key: Any) -> Optional[Any]:
        """Point lookup: only the owning bucket is searched (Section IV)."""
        return self.bucket_for_key(key).get(key)

    def lookup(self, key: Any) -> Optional[Any]:
        """Point lookup that treats "bucket not local" as a miss.

        Collapses the partition hot path's ``owns_key`` + ``get`` pair (three
        key hashes) into a single hash and route: a stale-directory probe for
        a moved bucket simply returns ``None``, exactly as the partition-level
        lookup contract requires.
        """
        bucket_id = self.directory.try_bucket_for_hash(hash_key(key))
        if bucket_id is None:
            return None
        bucket = self._buckets[bucket_id]
        bucket._check_access()
        return bucket.tree.get(key)

    def get_entry(self, key: Any) -> Optional[Entry]:
        return self.bucket_for_key(key).get_entry(key)

    def __contains__(self, key: Any) -> bool:
        return self.get_entry(key) is not None and not self.get_entry(key).tombstone

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    def scan(
        self,
        low: Any = None,
        high: Any = None,
        ordered: bool = False,
    ) -> Iterator[Entry]:
        """Range scan over every bucket.

        ``ordered=False`` concatenates per-bucket scans (no extra overhead,
        unsorted output); ``ordered=True`` merge-sorts them (q18-style).
        """
        bucket_scans = [bucket.scan(low, high) for bucket in self.buckets()]
        return (ordered_scan if ordered else unordered_scan)(bucket_scans)

    # ----------------------------------------------------------- maintenance

    def flush_all(self) -> int:
        """Flush every bucket's memory component; returns bytes flushed."""
        total = 0
        for bucket in self.buckets():
            component = bucket.flush()
            if component is not None:
                total += component.size_bytes
        return total

    def maintain(self) -> None:
        """Run one merge-and-split pass over every bucket.

        Called by the partition's maintenance pass after every batch of
        writes, once the partition has flushed (AsterixDB budgets memory
        components per dataset partition, so flushing is decided there).
        Splits land in :attr:`split_history`.
        """
        for bucket_id in list(self.directory.buckets):
            bucket = self._buckets.get(bucket_id)
            if bucket is None:
                continue
            bucket.maybe_merge()
            if self._should_split(bucket):
                self.split(bucket.bucket_id)

    def _should_split(self, bucket: Bucket) -> bool:
        if not self.splits_enabled or self.bucketing_config.static:
            return False
        if bucket.depth >= 62:
            return False
        return bucket.size_bytes >= self.bucketing_config.max_bucket_bytes

    def disable_splits(self) -> None:
        """Disable splits for the duration of a rebalance (Section V-A)."""
        self.splits_enabled = False

    def enable_splits(self) -> None:
        if not self.bucketing_config.static:
            self.splits_enabled = True

    # ---------------------------------------------------------------- split

    def split(self, bucket_id: BucketId) -> SplitResult:
        """Split one bucket in place (Algorithm 1) and update the directory."""
        bucket = self.bucket(bucket_id)
        result = split_bucket(bucket, manifest=self.manifest)
        # Swap the children in for the parent in the local directory.
        self.directory.split_bucket(bucket_id)
        del self._buckets[bucket_id]
        self._buckets[result.low_child.bucket_id] = result.low_child
        self._buckets[result.high_child.bucket_id] = result.high_child
        bucket.deactivate()
        self.split_history.append(result)
        return result

    # ------------------------------------------------- rebalance operations

    def snapshot_bucket(self, bucket_id: BucketId) -> List:
        """Flush a bucket and return retained components forming its snapshot.

        This is the "immutable bucket snapshot" of Section V-A: the flush time
        is the rebalance start time for this bucket; everything in the
        returned components predates it, and later writes only live in the
        memory component / WAL (which the rebalance replicates separately).
        """
        bucket = self.bucket(bucket_id)
        bucket.flush()
        return bucket.snapshot_components()

    def adopt_bucket(self, bucket: Bucket) -> None:
        """Register a bucket object: an initial bucket, or one received by a
        rebalance and adopted at commit.  Adopting a present id is a no-op."""
        if bucket.bucket_id in self._buckets:
            return
        self.directory.add_bucket(bucket.bucket_id)
        self._buckets[bucket.bucket_id] = bucket
        self.manifest.add_bucket(bucket.bucket_id.prefix, bucket.bucket_id.depth)

    def remove_bucket(self, bucket_id: BucketId) -> None:
        """Drop a bucket that has moved away (source-side commit task).

        Removing an absent bucket is a no-op so the operation is idempotent
        (Section V-D).  The bucket's components are reclaimed once their last
        reader releases them.
        """
        bucket = self._buckets.pop(bucket_id, None)
        self.directory.remove_bucket(bucket_id)
        self.manifest.remove_bucket(bucket_id.prefix, bucket_id.depth)
        if bucket is not None:
            bucket.deactivate()

    def force_manifest(self) -> None:
        self.manifest.force()

    # ---------------------------------------------------------------- sizing

    @property
    def size_bytes(self) -> int:
        return sum(bucket.size_bytes for bucket in self._buckets.values())

    @property
    def component_count(self) -> int:
        return sum(bucket.component_count for bucket in self._buckets.values())

    def aggregated_stats(self) -> StorageStats:
        """Sum of per-bucket storage stats (for the cluster cost model)."""
        total = StorageStats()
        for bucket in self._buckets.values():
            total.add(bucket.tree.stats)
        return total

    def components_opened_total(self) -> int:
        """Sum of ``components_opened`` across buckets — the one stat the
        point-lookup cost charge needs, without materialising a full
        :class:`StorageStats` aggregate per probe."""
        return sum(bucket.tree.stats.components_opened for bucket in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BucketedLSMTree(name={self.name!r}, partition={self.partition_id}, "
            f"buckets={self.bucket_count}, bytes={self.size_bytes})"
        )
