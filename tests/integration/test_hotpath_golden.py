"""Golden-snapshot pins for the PR-4 hot-path overhaul.

The driver and traffic fixtures under ``fixtures/`` were generated by the
**pre-overhaul** code (row-at-a-time feed, per-op driver loop, fnmatch event
routing, bisect histograms).  The overhauled pipeline must reproduce them bit
for bit: the optimisations are allowed to change how fast the simulator runs,
never what it computes.  The traced autopilot-storm recording pins the
op-by-op path that autopilot phases keep: its per-op ``op.*`` events, the
span tree they coalesce into, and the autopilot's decisions.
"""

import json
from pathlib import Path

import pytest

from repro.api import ClusterConfig, Database, Phase, Schedule, WorkloadDriver, WorkloadSpec
from repro.metrics import MetricsSnapshot
from repro.scenario import (
    load_recording,
    load_scenario,
    recording_payload,
    run_scenario,
    spec_from_recording,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestDriverGolden:
    @pytest.mark.parametrize("mix", ["A", "B", "E"])
    @pytest.mark.parametrize("max_seconds", [None, 1e9])
    def test_driver_snapshot_matches_pre_overhaul_pipeline(self, mix, max_seconds):
        # A non-binding max_seconds budget runs the phase op by op; both
        # execution shapes must land on the same golden.
        golden = json.loads((FIXTURES / "driver_snapshots_golden.json").read_text())
        db = Database(
            ClusterConfig(num_nodes=3, partitions_per_node=2, strategy="dynahash")
        )
        spec = WorkloadSpec(
            dataset="t",
            initial_records=500,
            mix=mix,
            schedule=Schedule((Phase(name="steady", ops=600, max_seconds=max_seconds),)),
        )
        report = WorkloadDriver(db, spec).run()
        assert json.loads(report.snapshot.to_json()) == golden[mix]
        db.close()


class TestTrafficExperimentGolden:
    def test_traffic_experiment_snapshot_matches_pre_overhaul(self):
        golden_text = (FIXTURES / "traffic_snapshot_golden.json").read_text()
        result = run_scenario(load_scenario(FIXTURES / "traffic_snapshot.toml"))
        assert result.snapshot == MetricsSnapshot.from_json(golden_text)


class TestAutopilotStormGolden:
    def test_traced_autopilot_storm_replays_byte_identical(self):
        path = FIXTURES / "autopilot_storm_traced_golden.json"
        document = load_recording(path)
        assert document["trace"]["spans"]
        assert document["snapshot"]["counters"]["autopilot.rebalance.complete"] >= 1
        # The embedded spec carries the default seed, so replaying it as is
        # reproduces the recorded scenario mapping too.
        replayed = run_scenario(spec_from_recording(document))
        assert replayed.seed == document["seed"]
        text = json.dumps(recording_payload(replayed), sort_keys=True, indent=2) + "\n"
        assert text == path.read_text()
