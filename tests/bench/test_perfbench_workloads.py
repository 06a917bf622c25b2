"""The host-speed benchmark's YCSB workload still runs on the kept surface.

``perfbench/workloads.py`` builds an :class:`~repro.sim.EventScheduler`,
hands it to ``WorkloadDriver(scheduler=)`` and counts the scheduler's
``dispatch_log``; this drives a tiny copy of that workload end to end so a
change to the driver or the scheduler that breaks it fails here.  The module
is loaded from its file and only read.
"""

import importlib.util
import sys
from pathlib import Path

from repro.api import Phase, Schedule

WORKLOADS = Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Registered before executing: its dataclasses resolve their module.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


class TinyYcsbRebalance(workloads.YcsbRebalance):
    PRELOAD = 600
    SCHEDULE = Schedule(
        (
            Phase(name="warmup", ops=60, mix="A", keys="uniform"),
            Phase(name="steady", ops=200, mix="A", keys="zipfian"),
            Phase(name="spike", ops=160, mix="A", keys="hotspot", rebalance={"add": 1}),
            Phase(name="scale_in", ops=80, mix="E", keys="zipfian", rebalance={"remove": 1}),
        )
    )


def test_ycsb_rebalance_runs_on_the_event_scheduler():
    workload = TinyYcsbRebalance(seed=7)
    state = workload.setup()
    outcome = workload.run(state)
    workload.check(state, outcome)
    assert outcome.failed == 0, outcome.failures
    assert outcome.ops == TinyYcsbRebalance.SCHEDULE.total_ops
    assert outcome.counts["sim_dispatches"] > 0
    state.db.close()
