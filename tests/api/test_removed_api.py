"""Removed public names stay removed.

``SimulatedCluster.ingest`` / ``.lookup`` and the bench helper
``build_loaded_cluster`` spent two releases emitting ``DeprecationWarning``;
this module pins down their removal — the attributes no longer exist, the
canonical replacements cover the old behaviour, and none of the supported
paths raise deprecation warnings anymore.  It also pins the second code paths
folded away since: the driver's per-op loop and ``batch_ops`` knob, the
hand-built traffic/autopilot bench experiments, and the storage layer's
second maintenance design (per-bucket flushes, the maintenance report object
and the scan-mode dispatch).
"""

import importlib
import inspect
import warnings

import pytest

from repro.api import BucketingConfig, ClusterConfig, Database, KIB, LSMConfig
from repro.cluster import SimulatedCluster


def config():
    return ClusterConfig(
        num_nodes=2,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=64 * KIB),
    )


def order_rows(count):
    return [
        {"o_orderkey": key, "o_custkey": key % 100, "o_totalprice": float(key)}
        for key in range(count)
    ]


class TestShimsRemoved:
    def test_cluster_ingest_shim_is_gone(self):
        cluster = SimulatedCluster(config(), strategy="dynahash")
        assert not hasattr(cluster, "ingest")

    def test_cluster_lookup_shim_is_gone(self):
        cluster = SimulatedCluster(config(), strategy="dynahash")
        assert not hasattr(cluster, "lookup")

    def test_build_loaded_cluster_is_gone(self):
        import repro.bench

        assert not hasattr(repro.bench, "build_loaded_cluster")
        with pytest.raises(ImportError):
            from repro.bench import build_loaded_cluster  # noqa: F401

    def test_internal_feed_path_replaces_ingest(self):
        """``feed(...).ingest(rows)`` is the canonical low-level write path."""
        cluster = SimulatedCluster(config(), strategy="dynahash")
        cluster.create_dataset("orders", primary_key="o_orderkey")
        report = cluster.feed("orders").ingest(order_rows(100))
        assert report.records == 100
        assert cluster.point_lookup("orders", 3)["o_custkey"] == 3

    def test_api_handles_match_the_internal_path(self):
        rows = order_rows(500)

        low_level = SimulatedCluster(config(), strategy="dynahash")
        low_level.create_dataset("orders", primary_key="o_orderkey")
        low_report = low_level.feed("orders").ingest(rows)

        with Database(config(), strategy="dynahash") as db:
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            api_report = orders.insert(rows)

            assert api_report.records == low_report.records
            assert api_report.bytes_ingested == low_report.bytes_ingested
            assert api_report.per_partition_records == low_report.per_partition_records
            assert api_report.simulated_seconds == pytest.approx(
                low_report.simulated_seconds
            )
            for key in (0, 123, 499, 10_000):
                assert low_level.point_lookup("orders", key) == orders.get(key)


class TestSecondPathsRemoved:
    """The driver has one executor and the traffic benches run scenario specs.

    The per-op loop and its ``batch_ops`` selector folded into the chunked
    executor (the phase kind now decides whether same-verb runs batch), and
    the hand-built traffic/autopilot experiments gave way to the committed
    ``traffic_storm`` / ``autopilot_storm`` specs.
    """

    @pytest.mark.parametrize(
        "name",
        [
            "run_traffic_experiment",
            "run_autopilot_experiment",
            "TrafficExperimentResult",
            "AutopilotExperimentResult",
        ],
    )
    def test_hand_built_bench_experiments_are_gone(self, name):
        import repro.bench
        import repro.bench.experiments

        assert not hasattr(repro.bench, name)
        assert not hasattr(repro.bench.experiments, name)

    @pytest.mark.parametrize("name", ["_execute_op", "_use_batched_pipeline"])
    def test_driver_per_op_loop_is_gone(self, name):
        from repro.api import WorkloadDriver

        assert not hasattr(WorkloadDriver, name)

    def test_batch_ops_knob_is_gone(self):
        from repro.api import WorkloadSpec
        from repro.scenario import ScenarioSpecError
        from repro.scenario.spec import WorkloadSection

        with pytest.raises(TypeError):
            WorkloadSpec(batch_ops=True)
        with pytest.raises(ScenarioSpecError, match="batch_ops"):
            WorkloadSection.from_mapping({"batch_ops": True})



class TestStorageMaintenanceSecondPathsRemoved:
    """The partition's pass is the storage layer's only maintenance design.

    ``StoragePartition.maintain`` flushes on the partition budget, so the
    per-bucket flush could never fire; nothing read the report object; the
    scan-mode enum only restated ``scan(ordered=)``.
    """

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.bucketed", "MaintenanceReport"),
            ("repro.bucketed.bucketed_lsm", "MaintenanceReport"),
            ("repro.bucketed", "ScanMode"),
            ("repro.bucketed", "choose_scan_mode"),
            ("repro.bucketed", "scan_with_mode"),
            ("repro.bucketed.scan", "ScanMode"),
            ("repro.bucketed.scan", "choose_scan_mode"),
            ("repro.bucketed.scan", "scan_with_mode"),
        ],
    )
    def test_module_names_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("repro.lsm.tree:LSMTree", "maybe_flush"),
            ("repro.lsm.tree:LSMTree", "memory_full"),
            ("repro.lsm.tree:LSMTree", "_component_size"),
            ("repro.bucketed.bucket:Bucket", "maybe_flush"),
            ("repro.bucketed.bucketed_lsm:BucketedLSMTree", "install_bucket"),
        ],
    )
    def test_storage_methods_are_gone(self, owner, name):
        module, _, cls = owner.partition(":")
        assert not hasattr(getattr(importlib.import_module(module), cls), name)

    def test_maintain_and_scan_signatures(self):
        from repro.bucketed.bucketed_lsm import BucketedLSMTree
        from repro.cluster.partition import StoragePartition

        assert "force_flush" not in inspect.signature(BucketedLSMTree.maintain).parameters
        assert "mode" not in inspect.signature(BucketedLSMTree.scan).parameters
        assert inspect.signature(BucketedLSMTree.maintain).return_annotation in (None, "None")
        assert inspect.signature(StoragePartition.maintain).return_annotation in (None, "None")


class TestNoDeprecationWarnings:
    def test_api_verbs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash") as db:
                orders = db.create_dataset("orders", primary_key="o_orderkey")
                orders.insert(order_rows(50))
                assert orders.get(7) is not None
                orders.delete([7])
                assert orders.count() == 49

    def test_tpch_load_path_does_not_warn(self):
        from repro.api import load_tpch

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash") as db:
                load = load_tpch(db, scale_factor=0.0002, tables=("region", "nation"))
                assert load.total_rows > 0

    def test_traffic_engine_paths_do_not_warn(self):
        from repro.api import run_workload

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash") as db:
                report = run_workload(db, initial_records=40, default_ops=30)
                assert report.total_ops == 30

    def test_bench_builder_does_not_warn(self):
        from repro.bench import SMOKE, build_loaded_database

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db, _workload, load = build_loaded_database(
                SMOKE, num_nodes=2, strategy_name="DynaHash", tables=("region",)
            )
            assert load.total_rows > 0
            assert db.cluster.record_count("region") == load.total_rows

    def test_autopilot_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash") as db:
                db.create_dataset("orders", primary_key="o_orderkey")
                pilot = db.autopilot(policy="threshold", check_every_ops=5)
                orders = db.dataset("orders")
                orders.insert(order_rows(30))
                for key in range(20):
                    orders.get(key)
                pilot.stop()
