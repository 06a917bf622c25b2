"""Exception hierarchy shared across the DynaHash reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can distinguish library failures from programming errors.  The rebalance
protocol additionally uses :class:`RebalanceAborted` as a control-flow signal
for the abort path of its two-phase commit, mirroring how the paper's
implementation treats an abort as an expected (non-exceptional) outcome that
still needs cleanup.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class StorageError(ReproError):
    """Base class for errors raised by the LSM storage substrate."""


class ComponentStateError(StorageError):
    """A component was used after deactivation or before activation."""


class BucketNotFoundError(StorageError):
    """A key was routed to a bucket that does not exist in the local directory."""


class DirectoryError(ReproError):
    """The extendible-hash directory is in an inconsistent state."""


class ClusterError(ReproError):
    """Base class for cluster-level errors (unknown node, dataset, partition)."""


class UnknownNodeError(ClusterError):
    """An operation referenced a node id not registered with the CC."""


class UnknownDatasetError(ClusterError):
    """An operation referenced a dataset that was never created."""


class DatasetExistsError(ClusterError):
    """Attempted to create a dataset whose name is already taken."""


class MissingPrimaryKeyError(ReproError, KeyError):
    """A row lacks a primary-key field of the dataset it was written to.

    Also a :class:`KeyError`, the builtin it replaces, so existing
    ``except KeyError`` clauses keep working.
    """

    def __str__(self) -> str:
        # KeyError quotes its argument; this one carries a sentence.
        return Exception.__str__(self)


class UnsupportedKeyTypeError(ReproError, TypeError):
    """A key has a type the partitioning hash does not support (e.g. ``None``).

    Also a :class:`TypeError`, the builtin it replaces.
    """


class RebalanceError(ReproError):
    """Base class for rebalance-protocol errors."""


class RebalanceAborted(RebalanceError):
    """The rebalance operation was aborted (node failure, injected fault, vote no).

    Carrying the reason makes the abort path observable in tests and
    benchmarks; the dataset is guaranteed to be left in its pre-rebalance
    state when this is raised by
    :meth:`repro.rebalance.operation.RebalanceOperation.run`.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class RebalanceInProgressError(RebalanceError):
    """A second rebalance was requested while one is already running."""


class QueryError(ReproError):
    """Base class for query-engine errors (bad plan, unknown column)."""


class UnknownColumnError(QueryError):
    """A plan referenced a column that is not present in the input schema."""


class FaultInjected(ReproError):
    """Raised by the fault-injection hooks to simulate a node crash.

    The rebalance recovery tests inject this at specific protocol points
    (before/after prepare, before/after commit) to exercise the six failure
    cases of Section V-D.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site}")
        self.site = site
