"""The bucketed LSM-tree — the paper's Section IV storage design.

* :class:`Bucket` — one extendible-hash bucket stored as its own LSM-tree.
* :class:`BucketedLSMTree` — a partition's primary index: a local directory of
  buckets with LSM semantics plus bucket-granular rebalance operations.
* :func:`split_bucket` / :class:`SplitResult` — Algorithm 1.
* :func:`unordered_scan` / :func:`ordered_scan` — the per-bucket vs
  merge-sorted primary-key scans.
"""

from .bucket import Bucket
from .bucketed_lsm import BucketedLSMTree
from .scan import estimate_merge_comparisons, ordered_scan, unordered_scan
from .split import SplitResult, split_bucket

__all__ = [
    "Bucket",
    "BucketedLSMTree",
    "SplitResult",
    "estimate_merge_comparisons",
    "ordered_scan",
    "split_bucket",
    "unordered_scan",
]
