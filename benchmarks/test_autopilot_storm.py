"""Autopilot storm: the control plane closing the loop under traffic.

The committed ``examples/scenarios/autopilot_storm.toml``: a hotspot storm
with no scheduled rebalance; the cost-aware policy detects the capacity
trajectory, simulates candidate plans, and executes the cheapest one mid-run.
The bench prints the run report (decision log plus the phase-tagged latency
table), asserts the loop actually closed, and (when
``REPRO_BENCH_ARTIFACT_DIR`` is set) persists the run's ops/sec and
p50/p99-by-phase numbers as ``BENCH_autopilot_storm.json``.
``REPRO_BENCH_SCALE=full`` puts the FULL cluster shape on top of the spec.
"""

from conftest import print_figure

from repro.bench import run_scenario_suite, traffic_artifact_payload, write_bench_artifact


def test_autopilot_storm_smoke(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: run_scenario_suite("autopilot", bench_scale),
        rounds=1,
        iterations=1,
    )
    print_figure(
        "Autopilot: cost-aware policy under a hotspot storm "
        "(decision log + per-op simulated latency by cluster phase)",
        result.render(),
    )

    # The loop closed: at least one policy-triggered rebalance, no explicit
    # db.rebalance call anywhere in the schedule.
    assert result.passed, [check.line() for check in result.checks]
    assert result.autopilot_rebalances >= 1
    assert result.nodes_after > result.nodes_before
    assert result.snapshot.counters["autopilot.decision"] >= 1
    assert result.snapshot.counters["autopilot.rebalance.complete"] >= 1
    assert result.total_ops > 0

    # Same scale, same seed: identical decisions and identical telemetry.
    again = run_scenario_suite("autopilot", bench_scale)
    assert again.autopilot_summary == result.autopilot_summary
    assert again.snapshot == result.snapshot

    write_bench_artifact(
        "autopilot_storm", traffic_artifact_payload("autopilot_storm", result)
    )
