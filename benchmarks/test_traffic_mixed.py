"""Mixed YCSB-style traffic across a node-add rebalance.

Not one of the paper's numbered figures, but its Figure 7c story as
first-class telemetry: the committed ``examples/scenarios/traffic_storm.toml``
runs a zipfian YCSB-A mix warmup → steady → spike → ramp, the spike lands
while the cluster rebalances onto an extra node, and the metrics registry
reports tail write latency broken out by cluster phase (steady vs
rebalance-in-flight).  ``REPRO_BENCH_SCALE=full`` puts the FULL cluster
shape on top of the spec.
"""

from conftest import print_figure

from repro.bench import run_scenario_suite, traffic_artifact_payload, write_bench_artifact
from repro.metrics import PHASE_REBALANCE, PHASE_STEADY


def test_traffic_mixed_smoke(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: run_scenario_suite("traffic", bench_scale),
        rounds=1,
        iterations=1,
    )
    print_figure(
        "Traffic: YCSB-A zipfian mix across a node-add rebalance "
        "(per-op simulated latency by cluster phase)",
        result.metrics_report,
    )

    # The spec's own checks: the cluster grew, and writes mid-rehash pay the
    # log-replication round trip (tail latency no better than steady state).
    assert result.passed, [check.line() for check in result.checks]
    # Both phases produced write samples (the spike genuinely overlapped the
    # rebalance) and reads interleaved with the protocol phases.
    assert result.snapshot.histogram_count("update", PHASE_REBALANCE) > 0
    assert result.snapshot.histogram_count("update", PHASE_STEADY) > 0
    assert result.snapshot.histogram_count("read", PHASE_REBALANCE) > 0
    assert result.total_ops > 0

    # Same scale, same seed: the traffic engine is deterministic end to end.
    again = run_scenario_suite("traffic", bench_scale)
    assert again.snapshot == result.snapshot

    # Persist the perf trajectory (no-op unless REPRO_BENCH_ARTIFACT_DIR set).
    write_bench_artifact(
        "traffic_mixed", traffic_artifact_payload("traffic_mixed", result)
    )
