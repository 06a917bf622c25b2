"""Machine-readable benchmark artifacts: the perf trajectory on disk.

CI (and local runs) can persist each bench driver's headline numbers —
ops/sec plus p50/p99 latency broken out by cluster phase — as a
``BENCH_<name>.json`` file, so consecutive runs form a comparable perf
trajectory instead of scrolling away in a log.  Writing is opt-in: when
``REPRO_BENCH_ARTIFACT_DIR`` is unset (and no explicit directory is given)
:func:`write_bench_artifact` is a no-op, keeping plain ``pytest`` runs free
of side effects.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenario import ScenarioResult

#: Environment variable selecting where artifacts are written.
ARTIFACT_DIR_ENV = "REPRO_BENCH_ARTIFACT_DIR"


def bench_artifact_dir() -> Optional[str]:
    """The configured artifact directory, or ``None`` when disabled."""
    value = os.environ.get(ARTIFACT_DIR_ENV, "").strip()
    return value or None


def write_bench_artifact(
    name: str,
    payload: Mapping[str, Any],
    directory: "Optional[str | Path]" = None,
) -> Optional[str]:
    """Write ``BENCH_<name>.json`` and return its path (``None`` if disabled).

    ``directory`` overrides the ``REPRO_BENCH_ARTIFACT_DIR`` environment
    variable; with neither set the call does nothing.  The JSON is sorted and
    indented so artifact diffs between runs stay readable.
    """
    target = Path(directory) if directory is not None else None
    if target is None:
        configured = bench_artifact_dir()
        if configured is None:
            return None
        target = Path(configured)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{name}.json"
    path.write_text(json.dumps(dict(payload), sort_keys=True, indent=2) + "\n")
    return str(path)


def traffic_artifact_payload(name: str, result: "ScenarioResult") -> Dict[str, Any]:
    """The standard artifact body for a traffic scenario run.

    Headline ops/sec, p99 write/read latency per cluster phase, and the
    percentile row of every populated ``"op[phase]"`` histogram (seconds:
    count/mean/p50/p95/p99/max), read off the run's metrics snapshot.
    """
    from ..metrics.histogram import LatencyHistogram

    simulated = result.simulated_seconds
    return {
        "name": name,
        "total_ops": result.total_ops,
        "simulated_seconds": simulated,
        "ops_per_second": result.total_ops / simulated if simulated > 0 else 0.0,
        "write_p99_ms": {phase: s * 1e3 for phase, s in result.write_p99_seconds.items()},
        "read_p99_ms": {phase: s * 1e3 for phase, s in result.read_p99_seconds.items()},
        "op_phase_percentiles": {
            key: LatencyHistogram.from_snapshot(snap).summary()
            for key, snap in result.snapshot.histograms.items()
            if snap[1]
        },
    }
