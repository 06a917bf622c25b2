"""Benchmark harness: experiment drivers, scaling presets, and table formatting."""

from .config import FULL, SMOKE, BenchScale
from .experiments import (
    PAPER_STRATEGIES,
    QUERY_APPROACHES,
    ConcurrentWriteExperimentResult,
    IngestionExperimentResult,
    QueryExperimentResult,
    SCENARIO_SUITES,
    ScalingExperimentResult,
    build_loaded_database,
    make_strategy,
    run_concurrent_write_experiment,
    run_ingestion_experiment,
    run_query_experiment,
    run_scaling_experiment,
    run_scenario_suite,
    scenario_at_scale,
)
from .artifacts import bench_artifact_dir, traffic_artifact_payload, write_bench_artifact
from .reporting import format_table, markdown_table, per_query_table, series_table

__all__ = [
    "BenchScale",
    "ConcurrentWriteExperimentResult",
    "FULL",
    "IngestionExperimentResult",
    "PAPER_STRATEGIES",
    "QUERY_APPROACHES",
    "QueryExperimentResult",
    "SCENARIO_SUITES",
    "SMOKE",
    "ScalingExperimentResult",
    "bench_artifact_dir",
    "build_loaded_database",
    "format_table",
    "make_strategy",
    "markdown_table",
    "per_query_table",
    "run_concurrent_write_experiment",
    "run_ingestion_experiment",
    "run_query_experiment",
    "run_scaling_experiment",
    "run_scenario_suite",
    "scenario_at_scale",
    "series_table",
    "traffic_artifact_payload",
    "write_bench_artifact",
]
