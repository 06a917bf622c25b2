"""Declarative scenario specs: frozen dataclasses a TOML/JSON file validates into.

A *scenario* is everything one experiment needs, declared in one document:
the cluster to build, the datasets to create (or the TPC-H subset to load),
the phased workload to drive, the autopilot policy to attach, the explicit
steps to run afterwards (rebalances — possibly fault-injected — recovery,
queries), and the checks the run must satisfy.  The
:mod:`~repro.scenario.runner` compiles a validated :class:`ScenarioSpec` onto
the existing :class:`~repro.api.Database` / :class:`~repro.api.WorkloadDriver`
/ :class:`~repro.api.Autopilot` APIs, so a spec file is exactly as powerful —
and exactly as deterministic — as the Python it replaces.

Validation philosophy
---------------------
Specs are parsed *strictly*: unknown sections and unknown keys are errors
(catching typos like ``initial_recrods``), every error names the section path
it occurred in (``workload.phases[2]``), and cross-field conflicts that could
silently produce a meaningless run (a phase-scheduled rebalance fighting an
autopilot, a dry-run autopilot expected to rebalance) are rejected with
messages that say what to change.  Byte-sized fields accept either integers
or human-readable strings (``"32 KiB"``, ``"10 GiB"``).

The canonical mapping form (:meth:`ScenarioSpec.to_mapping`) round-trips:
``ScenarioSpec.from_mapping(spec.to_mapping()) == spec``; recordings embed it
so :mod:`repro.cli`'s ``replay`` can re-run a scenario without the original
file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos import CrashPlan, LoadWindow, PartitionWindow, RetryPolicy, StragglerWindow

from ..common.config import BucketingConfig, ClusterConfig, CostModelConfig, LSMConfig
from ..common.errors import ConfigError
from ..common.units import GIB, KIB, MIB

__all__ = [
    "AutopilotSection",
    "ChaosSection",
    "ChecksSection",
    "ClusterSection",
    "DatasetSection",
    "QueryStep",
    "RebalanceStep",
    "RecoverStep",
    "ScenarioSpec",
    "ScenarioSpecError",
    "SecondaryIndexSection",
    "SweepSection",
    "TPCHSection",
    "TraceSection",
    "WorkloadPhaseSpec",
    "WorkloadSection",
    "parse_bytes",
]


class ScenarioSpecError(ConfigError):
    """A scenario document failed validation; the message names the section."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

_BYTE_UNITS = {
    "B": 1,
    "KB": 1000,
    "MB": 1000**2,
    "GB": 1000**3,
    "KIB": KIB,
    "MIB": MIB,
    "GIB": GIB,
}


def parse_bytes(value: Any, where: str = "value") -> int:
    """An integer byte count, or a string like ``"32 KiB"`` / ``"10 GiB"``."""
    if isinstance(value, bool):
        raise ScenarioSpecError(f"{where}: expected a byte size, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        text = value.strip()
        for unit in sorted(_BYTE_UNITS, key=len, reverse=True):
            if text.upper().endswith(unit):
                number = text[: len(text) - len(unit)].strip()
                try:
                    return int(float(number) * _BYTE_UNITS[unit])
                except ValueError:
                    break
        try:
            return int(text)
        except ValueError:
            pass
    raise ScenarioSpecError(
        f"{where}: expected a byte size (int or a string like \"32 KiB\"), got {value!r}"
    )


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioSpecError(f"{where}: expected a table, got {type(value).__name__}")
    return value


def _check_keys(
    mapping: Mapping[str, Any],
    where: str,
    allowed: Sequence[str],
    required: Sequence[str] = (),
) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioSpecError(
            f"{where}: unknown key(s) {unknown}; allowed keys: {sorted(allowed)}"
        )
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ScenarioSpecError(f"{where}: missing required key(s) {missing}")


def _get_typed(
    mapping: Mapping[str, Any],
    key: str,
    types: "type | Tuple[type, ...]",
    where: str,
    default: Any = None,
) -> Any:
    if key not in mapping:
        return default
    value = mapping[key]
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise ScenarioSpecError(
            f"{where}.{key}: expected {_type_names(types)}, got a boolean"
        )
    if not isinstance(value, types):
        raise ScenarioSpecError(
            f"{where}.{key}: expected {_type_names(types)}, got {type(value).__name__}"
        )
    return value


def _type_names(types: "type | Tuple[type, ...]") -> str:
    if isinstance(types, tuple):
        return " or ".join(t.__name__ for t in types)
    return types.__name__


def _string_tuple(value: Any, where: str) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, Sequence) and all(isinstance(item, str) for item in value):
        return tuple(value)
    raise ScenarioSpecError(f"{where}: expected a string or a list of strings")


def _drop_defaults(mapping: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical form: keys whose value is None or empty are omitted."""
    return {
        key: value
        for key, value in mapping.items()
        if value is not None and value != {} and value != [] and value != ()
    }


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterSection:
    """``[cluster]``: the :class:`~repro.api.ClusterConfig` to build."""

    nodes: int = 4
    partitions_per_node: int = 2
    seed: Optional[int] = None
    strategy: str = "dynahash"
    strategy_options: Mapping[str, Any] = field(default_factory=dict)
    workload_scale: float = 1.0
    lsm: Mapping[str, Any] = field(default_factory=dict)
    bucketing: Mapping[str, Any] = field(default_factory=dict)
    cost: Mapping[str, Any] = field(default_factory=dict)

    _KEYS = (
        "nodes",
        "partitions_per_node",
        "seed",
        "strategy",
        "strategy_options",
        "workload_scale",
        "lsm",
        "bucketing",
        "cost",
    )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str = "cluster") -> "ClusterSection":
        _check_keys(mapping, where, cls._KEYS)
        section = cls(
            nodes=_get_typed(mapping, "nodes", int, where, 4),
            partitions_per_node=_get_typed(mapping, "partitions_per_node", int, where, 2),
            seed=_get_typed(mapping, "seed", int, where),
            strategy=_get_typed(mapping, "strategy", str, where, "dynahash"),
            strategy_options=dict(
                _require_mapping(mapping.get("strategy_options", {}), f"{where}.strategy_options")
            ),
            workload_scale=float(
                _get_typed(mapping, "workload_scale", (int, float), where, 1.0)
            ),
            lsm=dict(_require_mapping(mapping.get("lsm", {}), f"{where}.lsm")),
            bucketing=dict(_require_mapping(mapping.get("bucketing", {}), f"{where}.bucketing")),
            cost=dict(_require_mapping(mapping.get("cost", {}), f"{where}.cost")),
        )
        section.build_config()  # validate eagerly so errors carry the section path
        return section

    def build_config(self, seed_override: Optional[int] = None) -> ClusterConfig:
        """Compile this section into a :class:`~repro.api.ClusterConfig`."""
        from ..api.registry import available_strategies, strategy_by_name

        try:  # resolves aliases and validates the factory options at spec time
            strategy_by_name(self.strategy, **dict(self.strategy_options))
        except (ConfigError, TypeError) as exc:
            raise ScenarioSpecError(
                f"cluster.strategy: cannot build strategy {self.strategy!r} "
                f"with options {dict(self.strategy_options)!r}: {exc} "
                f"(registered strategies: {', '.join(available_strategies())})"
            ) from exc
        try:
            lsm = LSMConfig(**self._bytes_aware("cluster.lsm", LSMConfig, self.lsm))
            bucketing = BucketingConfig(
                **self._bytes_aware("cluster.bucketing", BucketingConfig, self.bucketing)
            )
            cost = CostModelConfig(
                **self._bytes_aware("cluster.cost", CostModelConfig, self.cost)
            )
            seed = seed_override if seed_override is not None else self.seed
            kwargs: Dict[str, Any] = {}
            if seed is not None:
                kwargs["seed"] = seed
            return ClusterConfig(
                num_nodes=self.nodes,
                partitions_per_node=self.partitions_per_node,
                lsm=lsm,
                bucketing=bucketing,
                cost=cost,
                strategy=self.strategy,
                **kwargs,
            )
        except ScenarioSpecError:
            raise
        except (ConfigError, TypeError) as exc:
            raise ScenarioSpecError(f"cluster: {exc}") from exc

    @staticmethod
    def _bytes_aware(where: str, config_cls: type, mapping: Mapping[str, Any]) -> Dict[str, Any]:
        fields_allowed = tuple(config_cls.__dataclass_fields__)
        _check_keys(mapping, where, fields_allowed)
        resolved: Dict[str, Any] = {}
        for key, value in mapping.items():
            if key.endswith("_bytes") or key.endswith("_bytes_per_sec"):
                resolved[key] = parse_bytes(value, f"{where}.{key}")
            else:
                resolved[key] = value
        return resolved

    def to_mapping(self) -> Dict[str, Any]:
        return _drop_defaults(
            {
                "nodes": self.nodes,
                "partitions_per_node": self.partitions_per_node,
                "seed": self.seed,
                "strategy": self.strategy,
                "strategy_options": dict(self.strategy_options),
                "workload_scale": self.workload_scale if self.workload_scale != 1.0 else None,
                "lsm": dict(self.lsm),
                "bucketing": dict(self.bucketing),
                "cost": dict(self.cost),
            }
        )


@dataclass(frozen=True)
class SecondaryIndexSection:
    """One entry of ``[[datasets.secondary_indexes]]``."""

    name: str
    fields: Tuple[str, ...]
    included_fields: Tuple[str, ...] = ()

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str) -> "SecondaryIndexSection":
        _check_keys(mapping, where, ("name", "fields", "included_fields"), ("name", "fields"))
        return cls(
            name=_get_typed(mapping, "name", str, where),
            fields=_string_tuple(mapping["fields"], f"{where}.fields"),
            included_fields=_string_tuple(
                mapping.get("included_fields", ()), f"{where}.included_fields"
            ),
        )

    def to_mapping(self) -> Dict[str, Any]:
        return _drop_defaults(
            {
                "name": self.name,
                "fields": list(self.fields),
                "included_fields": list(self.included_fields),
            }
        )


@dataclass(frozen=True)
class DatasetSection:
    """``[[datasets]]``: a dataset created before traffic starts."""

    name: str
    primary_key: Tuple[str, ...] = ("k",)
    secondary_indexes: Tuple[SecondaryIndexSection, ...] = ()

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str) -> "DatasetSection":
        _check_keys(mapping, where, ("name", "primary_key", "secondary_indexes"), ("name",))
        indexes = mapping.get("secondary_indexes", [])
        if not isinstance(indexes, Sequence) or isinstance(indexes, str):
            raise ScenarioSpecError(f"{where}.secondary_indexes: expected an array of tables")
        return cls(
            name=_get_typed(mapping, "name", str, where),
            primary_key=_string_tuple(mapping.get("primary_key", "k"), f"{where}.primary_key"),
            secondary_indexes=tuple(
                SecondaryIndexSection.from_mapping(
                    _require_mapping(index, f"{where}.secondary_indexes[{position}]"),
                    f"{where}.secondary_indexes[{position}]",
                )
                for position, index in enumerate(indexes)
            ),
        )

    def to_mapping(self) -> Dict[str, Any]:
        return _drop_defaults(
            {
                "name": self.name,
                "primary_key": list(self.primary_key)
                if len(self.primary_key) > 1
                else self.primary_key[0],
                "secondary_indexes": [index.to_mapping() for index in self.secondary_indexes],
            }
        )


@dataclass(frozen=True)
class TPCHSection:
    """``[tpch]``: load the paper's TPC-H subset before traffic starts."""

    scale_factor: float = 0.001
    tables: Tuple[str, ...] = ()
    batch_size: int = 2000

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str = "tpch") -> "TPCHSection":
        _check_keys(mapping, where, ("scale_factor", "tables", "batch_size"))
        scale_factor = float(_get_typed(mapping, "scale_factor", (int, float), where, 0.001))
        if scale_factor <= 0:
            raise ScenarioSpecError(f"{where}.scale_factor: must be positive")
        return cls(
            scale_factor=scale_factor,
            tables=_string_tuple(mapping.get("tables", ()), f"{where}.tables"),
            batch_size=_get_typed(mapping, "batch_size", int, where, 2000),
        )

    def to_mapping(self) -> Dict[str, Any]:
        return _drop_defaults(
            {
                "scale_factor": self.scale_factor,
                "tables": list(self.tables),
                "batch_size": self.batch_size if self.batch_size != 2000 else None,
            }
        )


def _mix_from_value(value: Any, where: str) -> Union[str, Mapping[str, Any], None]:
    """A mix is a YCSB preset name or an inline weight table; validated here."""
    if value is None:
        return None
    if isinstance(value, str):
        from ..workload.mixes import YCSB_MIXES

        if value.upper() not in YCSB_MIXES:
            raise ScenarioSpecError(
                f"{where}: unknown operation mix {value!r}; "
                f"YCSB presets: {', '.join(sorted(YCSB_MIXES))}, "
                "or give an inline table like {read = 0.3, insert = 0.7}"
            )
        return value
    mapping = _require_mapping(value, where)
    _check_keys(mapping, where, ("name", "read", "insert", "update", "delete", "scan"))
    weights = {k: v for k, v in mapping.items() if k != "name"}
    if not weights:
        raise ScenarioSpecError(f"{where}: an inline mix needs at least one weight")
    for key, weight in weights.items():
        if isinstance(weight, bool) or not isinstance(weight, (int, float)) or weight < 0:
            raise ScenarioSpecError(f"{where}.{key}: weights must be non-negative numbers")
    return dict(mapping)


def _build_mix(value: Union[str, Mapping[str, Any], None]) -> Any:
    from ..workload.mixes import OperationMix

    if value is None or isinstance(value, str):
        return value
    return OperationMix(**value)


@dataclass(frozen=True)
class WorkloadPhaseSpec:
    """``[[workload.phases]]``: one leg of the phased schedule."""

    name: str
    ops: int
    mix: Union[str, Mapping[str, Any], None] = None
    keys: Optional[str] = None
    rebalance: Optional[Mapping[str, int]] = None
    max_seconds: Optional[float] = None

    _KEYS = ("name", "ops", "mix", "keys", "rebalance", "max_seconds")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str) -> "WorkloadPhaseSpec":
        _check_keys(mapping, where, cls._KEYS, ("name", "ops"))
        keys = _get_typed(mapping, "keys", str, where)
        if keys is not None:
            _validate_distribution(keys, f"{where}.keys")
        rebalance = mapping.get("rebalance")
        if rebalance is not None:
            rebalance = dict(_require_mapping(rebalance, f"{where}.rebalance"))
            _check_keys(rebalance, f"{where}.rebalance", ("add", "remove", "target_nodes"))
            if len(rebalance) != 1:
                raise ScenarioSpecError(
                    f"{where}.rebalance: give exactly one of add/remove/target_nodes"
                )
        max_seconds = _get_typed(mapping, "max_seconds", (int, float), where)
        return cls(
            name=_get_typed(mapping, "name", str, where),
            ops=_get_typed(mapping, "ops", int, where),
            mix=_mix_from_value(mapping.get("mix"), f"{where}.mix"),
            keys=keys,
            rebalance=rebalance,
            max_seconds=float(max_seconds) if max_seconds is not None else None,
        )

    def to_mapping(self) -> Dict[str, Any]:
        return _drop_defaults(
            {
                "name": self.name,
                "ops": self.ops,
                "mix": dict(self.mix) if isinstance(self.mix, Mapping) else self.mix,
                "keys": self.keys,
                "rebalance": dict(self.rebalance) if self.rebalance else None,
                "max_seconds": self.max_seconds,
            }
        )


def _validate_distribution(name: str, where: str) -> None:
    from ..workload.keygen import DISTRIBUTIONS

    if name.lower() not in DISTRIBUTIONS:
        raise ScenarioSpecError(
            f"{where}: unknown key distribution {name!r}; "
            f"choose from {', '.join(sorted(DISTRIBUTIONS))}"
        )


@dataclass(frozen=True)
class WorkloadSection:
    """``[workload]``: the phased YCSB-style traffic to drive."""

    dataset: str = "traffic"
    primary_key: str = "k"
    initial_records: int = 1000
    payload_bytes: int = 64
    mix: Union[str, Mapping[str, Any]] = "B"
    keys: str = "zipfian"
    phases: Tuple[WorkloadPhaseSpec, ...] = ()
    default_ops: int = 1000
    batch_size: int = 32
    batch_jitter: float = 0.25
    scan_span: int = 16
    op_chunk: int = 256

    _KEYS = (
        "dataset",
        "primary_key",
        "initial_records",
        "payload_bytes",
        "mix",
        "keys",
        "phases",
        "default_ops",
        "batch_size",
        "batch_jitter",
        "scan_span",
        "op_chunk",
    )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str = "workload") -> "WorkloadSection":
        _check_keys(mapping, where, cls._KEYS)
        phases_raw = mapping.get("phases", [])
        if not isinstance(phases_raw, Sequence) or isinstance(phases_raw, str):
            raise ScenarioSpecError(f"{where}.phases: expected an array of tables")
        phases = tuple(
            WorkloadPhaseSpec.from_mapping(
                _require_mapping(phase, f"{where}.phases[{position}]"),
                f"{where}.phases[{position}]",
            )
            for position, phase in enumerate(phases_raw)
        )
        _validate_phase_ordering(phases, where)
        keys = _get_typed(mapping, "keys", str, where, "zipfian")
        _validate_distribution(keys, f"{where}.keys")
        section = cls(
            dataset=_get_typed(mapping, "dataset", str, where, "traffic"),
            primary_key=_get_typed(mapping, "primary_key", str, where, "k"),
            initial_records=_get_typed(mapping, "initial_records", int, where, 1000),
            payload_bytes=parse_bytes(mapping.get("payload_bytes", 64), f"{where}.payload_bytes"),
            mix=_mix_from_value(mapping.get("mix", "B"), f"{where}.mix"),
            keys=keys,
            phases=phases,
            default_ops=_get_typed(mapping, "default_ops", int, where, 1000),
            batch_size=_get_typed(mapping, "batch_size", int, where, 32),
            batch_jitter=float(_get_typed(mapping, "batch_jitter", (int, float), where, 0.25)),
            scan_span=_get_typed(mapping, "scan_span", int, where, 16),
            op_chunk=_get_typed(mapping, "op_chunk", int, where, 256),
        )
        section.build_spec()  # validate the numeric ranges eagerly
        return section

    def build_spec(self) -> Any:
        """Compile into a :class:`~repro.api.WorkloadSpec` (with schedule)."""
        from ..workload.driver import WorkloadSpec
        from ..workload.schedule import Phase, Schedule

        try:
            schedule = None
            if self.phases:
                schedule = Schedule(
                    tuple(
                        Phase(
                            name=phase.name,
                            ops=phase.ops,
                            mix=_build_mix(phase.mix),
                            keys=phase.keys,
                            rebalance=dict(phase.rebalance) if phase.rebalance else None,
                            max_seconds=phase.max_seconds,
                        )
                        for phase in self.phases
                    )
                )
            return WorkloadSpec(
                dataset=self.dataset,
                primary_key=self.primary_key,
                initial_records=self.initial_records,
                payload_bytes=self.payload_bytes,
                mix=_build_mix(self.mix),
                keys=self.keys,
                schedule=schedule,
                default_ops=self.default_ops,
                batch_size=self.batch_size,
                batch_jitter=self.batch_jitter,
                scan_span=self.scan_span,
                op_chunk=self.op_chunk,
            )
        except ValueError as exc:
            raise ScenarioSpecError(f"workload: {exc}") from exc

    @property
    def rebalance_phases(self) -> Tuple[WorkloadPhaseSpec, ...]:
        return tuple(phase for phase in self.phases if phase.rebalance is not None)

    def to_mapping(self) -> Dict[str, Any]:
        defaults = WorkloadSection()
        mapping: Dict[str, Any] = {}
        for key in (
            "dataset",
            "primary_key",
            "initial_records",
            "payload_bytes",
            "keys",
            "default_ops",
            "batch_size",
            "batch_jitter",
            "scan_span",
                "op_chunk",
        ):
            value = getattr(self, key)
            if value != getattr(defaults, key):
                mapping[key] = value
        if self.mix != defaults.mix:
            mapping["mix"] = dict(self.mix) if isinstance(self.mix, Mapping) else self.mix
        if self.phases:
            mapping["phases"] = [phase.to_mapping() for phase in self.phases]
        return mapping


def _validate_phase_ordering(phases: Sequence[WorkloadPhaseSpec], where: str) -> None:
    """Schedule-level sanity: unique names, some traffic, sane rebalance count."""
    names = [phase.name for phase in phases]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ScenarioSpecError(
            f"{where}.phases: phase names must be unique (duplicated: {duplicates}); "
            "rename the repeated phases — reports and metrics are keyed by phase name"
        )
    if phases and all(phase.ops == 0 for phase in phases):
        raise ScenarioSpecError(
            f"{where}.phases: every phase has ops = 0, the schedule drives no traffic; "
            "give at least one phase a positive op count"
        )
    rebalancing = [phase.name for phase in phases if phase.rebalance is not None]
    if len(rebalancing) > 1:
        raise ScenarioSpecError(
            f"{where}.phases: at most one phase may carry a rebalance "
            f"(got {rebalancing}); split the scenario or use [[steps]] for "
            "additional resizes after the workload"
        )


@dataclass(frozen=True)
class AutopilotSection:
    """``[autopilot]``: the control loop attached before traffic starts."""

    policy: str = "threshold"
    options: Mapping[str, Any] = field(default_factory=dict)
    check_every_ops: int = 50
    cooldown_seconds: float = 0.0
    hysteresis: int = 1
    dry_run: bool = False
    max_rebalances: Optional[int] = None

    _KEYS = (
        "policy",
        "options",
        "check_every_ops",
        "cooldown_seconds",
        "hysteresis",
        "dry_run",
        "max_rebalances",
    )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str = "autopilot") -> "AutopilotSection":
        from ..control import available_policies

        _check_keys(mapping, where, cls._KEYS)
        policy = _get_typed(mapping, "policy", str, where, "threshold")
        if policy not in available_policies():
            raise ScenarioSpecError(
                f"{where}.policy: unknown policy {policy!r}; "
                f"registered policies: {', '.join(available_policies())}"
            )
        options = dict(_require_mapping(mapping.get("options", {}), f"{where}.options"))
        for key, value in options.items():
            if key.endswith("_bytes"):
                options[key] = parse_bytes(value, f"{where}.options.{key}")
        section = cls(
            policy=policy,
            options=options,
            check_every_ops=_get_typed(mapping, "check_every_ops", int, where, 50),
            cooldown_seconds=float(
                _get_typed(mapping, "cooldown_seconds", (int, float), where, 0.0)
            ),
            hysteresis=_get_typed(mapping, "hysteresis", int, where, 1),
            dry_run=_get_typed(mapping, "dry_run", bool, where, False),
            max_rebalances=_get_typed(mapping, "max_rebalances", int, where),
        )
        if section.check_every_ops < 1:
            raise ScenarioSpecError(f"{where}.check_every_ops: must be at least 1")
        if section.cooldown_seconds < 0:
            raise ScenarioSpecError(f"{where}.cooldown_seconds: must be non-negative")
        if section.hysteresis < 1:
            raise ScenarioSpecError(f"{where}.hysteresis: must be at least 1")
        try:  # conflicting/unknown policy options fail at spec time, not mid-run
            from ..control import resolve_policy

            resolve_policy(policy, **options)
        except ScenarioSpecError:
            raise
        except (ConfigError, TypeError) as exc:
            raise ScenarioSpecError(
                f"{where}.options: policy {policy!r} rejected these options: {exc}"
            ) from exc
        return section

    def to_mapping(self) -> Dict[str, Any]:
        defaults = AutopilotSection()
        mapping: Dict[str, Any] = {"policy": self.policy}
        if self.options:
            mapping["options"] = dict(self.options)
        for key in ("check_every_ops", "cooldown_seconds", "hysteresis", "dry_run", "max_rebalances"):
            value = getattr(self, key)
            if value != getattr(defaults, key):
                mapping[key] = value
        return mapping


@dataclass(frozen=True)
class TraceSection:
    """``[trace]``: attach a tracing session (spans + timeline) to the run.

    Presence of the section enables tracing (``enabled = false`` keeps the
    section but turns it off, e.g. for A/B-ing overhead); the resulting
    span tree and sampled series embed into the run's recording and join
    ``replay``'s determinism diff.
    """

    enabled: bool = True
    #: Simulated seconds between timeline gauge samples.
    sample_interval_seconds: float = 0.25

    _KEYS = ("enabled", "sample_interval_seconds")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str = "trace") -> "TraceSection":
        _check_keys(mapping, where, cls._KEYS)
        section = cls(
            enabled=_get_typed(mapping, "enabled", bool, where, True),
            sample_interval_seconds=float(
                _get_typed(mapping, "sample_interval_seconds", (int, float), where, 0.25)
            ),
        )
        if section.sample_interval_seconds <= 0:
            raise ScenarioSpecError(f"{where}.sample_interval_seconds: must be positive")
        return section

    def to_mapping(self) -> Dict[str, Any]:
        # ``enabled`` is always emitted: the section's presence is what turns
        # tracing on, so an all-defaults section must survive the round trip.
        mapping: Dict[str, Any] = {"enabled": self.enabled}
        if self.sample_interval_seconds != TraceSection().sample_interval_seconds:
            mapping["sample_interval_seconds"] = self.sample_interval_seconds
        return mapping


def _table_array(value: Any, where: str) -> "List[Mapping[str, Any]]":
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ScenarioSpecError(f"{where}: expected an array of tables ([[{where}]])")
    return [
        _require_mapping(entry, f"{where}[{position}]")
        for position, entry in enumerate(value)
    ]


def _chaos_seconds(
    mapping: Mapping[str, Any],
    key: str,
    where: str,
    default: Any = None,
    minimum: float = 0.0,
    exclusive: bool = False,
) -> Any:
    value = _get_typed(mapping, key, (int, float), where, default)
    if value is None:
        return None
    value = float(value)
    if value < minimum or (exclusive and value == minimum):
        bound = "positive" if exclusive and minimum == 0.0 else f">= {minimum:g}"
        raise ScenarioSpecError(f"{where}.{key}: must be {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class ChaosSection:
    """``[chaos]``: deterministic fault injection for the run.

    Presence of the section arms the chaos engine (``enabled = false`` keeps
    the section but disarms it, for A/B-ing a scenario with and without
    chaos).  Every fault is declared on the *simulated* clock and every
    undeclared choice (which node straggles, which protocol site a crash
    lands on) is drawn from the run's dedicated ``chaos:<seed>`` RNG stream,
    so a chaos run records and replays exactly like a fault-free one:

    * ``[[chaos.stragglers]]`` — a node whose per-node work is multiplied
      inside a time window (slowest-node semantics spread the slowdown to
      every ingest/query/rebalance roll-up that touches it).
    * ``[[chaos.partitions]]`` — CC↔NC partition windows during which the
      client's directory view goes stale; lookups that land on a moved
      bucket pay a routing miss plus an optional timeout/backoff retry loop.
    * ``[[chaos.crashes]]`` — time-triggered kills at rebalance protocol
      sites (see ``repro.api.FAULT_SITES``), generalising per-step
      ``fault_sites``; pair with a recover step.
    * ``[[chaos.backpressure]]`` / ``[[chaos.bursts]]`` — windows that
      stretch feed ingestion / client service times by a factor.
    * ``[chaos.retry]`` — the client retry policy (attempt cap, capped
      exponential backoff) applied when a partition window forces retries.
    """

    enabled: bool = True
    stragglers: "Tuple[StragglerWindow, ...]" = ()
    random_stragglers: int = 0
    straggler_horizon_seconds: float = 10.0
    partitions: "Tuple[PartitionWindow, ...]" = ()
    crashes: "Tuple[CrashPlan, ...]" = ()
    backpressure: "Tuple[LoadWindow, ...]" = ()
    bursts: "Tuple[LoadWindow, ...]" = ()
    retry: "Optional[RetryPolicy]" = None

    _KEYS = (
        "enabled",
        "stragglers",
        "random_stragglers",
        "straggler_horizon_seconds",
        "partitions",
        "crashes",
        "backpressure",
        "bursts",
        "retry",
    )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str = "chaos") -> "ChaosSection":
        from ..chaos import CrashPlan, LoadWindow, PartitionWindow, RetryPolicy, StragglerWindow
        from ..rebalance.operation import FAULT_SITES

        _check_keys(mapping, where, cls._KEYS)

        stragglers = []
        for position, entry in enumerate(
            _table_array(mapping.get("stragglers", []), f"{where}.stragglers")
        ):
            entry_where = f"{where}.stragglers[{position}]"
            _check_keys(
                entry,
                entry_where,
                ("node", "start", "duration", "multiplier"),
                ("start", "duration", "multiplier"),
            )
            node = _get_typed(entry, "node", str, entry_where)
            multiplier = _chaos_seconds(entry, "multiplier", entry_where, minimum=1.0)
            stragglers.append(
                StragglerWindow(
                    start=_chaos_seconds(entry, "start", entry_where),
                    duration=_chaos_seconds(entry, "duration", entry_where, exclusive=True),
                    multiplier=multiplier,
                    node=node,
                )
            )

        partitions = []
        for position, entry in enumerate(
            _table_array(mapping.get("partitions", []), f"{where}.partitions")
        ):
            entry_where = f"{where}.partitions[{position}]"
            _check_keys(
                entry,
                entry_where,
                ("start", "duration", "timeout_probability"),
                ("start", "duration"),
            )
            timeout_probability = _chaos_seconds(
                entry, "timeout_probability", entry_where, default=0.0
            )
            if timeout_probability >= 1.0:
                raise ScenarioSpecError(
                    f"{entry_where}.timeout_probability: must be below 1.0 "
                    "(a certain timeout would retry forever), got "
                    f"{timeout_probability!r}"
                )
            partitions.append(
                PartitionWindow(
                    start=_chaos_seconds(entry, "start", entry_where),
                    duration=_chaos_seconds(entry, "duration", entry_where, exclusive=True),
                    timeout_probability=timeout_probability,
                )
            )

        crashes = []
        for position, entry in enumerate(
            _table_array(mapping.get("crashes", []), f"{where}.crashes")
        ):
            entry_where = f"{where}.crashes[{position}]"
            _check_keys(entry, entry_where, ("after_seconds", "site"), ("after_seconds",))
            site = _get_typed(entry, "site", str, entry_where)
            if site is not None and site not in FAULT_SITES:
                raise ScenarioSpecError(
                    f"{entry_where}.site: unknown site {site!r}; "
                    f"valid sites: {', '.join(FAULT_SITES)}"
                )
            crashes.append(
                CrashPlan(
                    after_seconds=_chaos_seconds(entry, "after_seconds", entry_where),
                    site=site,
                )
            )

        load_windows: Dict[str, "List[LoadWindow]"] = {"backpressure": [], "bursts": []}
        for key, windows in load_windows.items():
            for position, entry in enumerate(
                _table_array(mapping.get(key, []), f"{where}.{key}")
            ):
                entry_where = f"{where}.{key}[{position}]"
                _check_keys(
                    entry,
                    entry_where,
                    ("start", "duration", "factor"),
                    ("start", "duration", "factor"),
                )
                windows.append(
                    LoadWindow(
                        start=_chaos_seconds(entry, "start", entry_where),
                        duration=_chaos_seconds(entry, "duration", entry_where, exclusive=True),
                        factor=_chaos_seconds(entry, "factor", entry_where, exclusive=True),
                    )
                )

        retry = None
        if "retry" in mapping:
            retry_raw = _require_mapping(mapping["retry"], f"{where}.retry")
            retry_where = f"{where}.retry"
            _check_keys(
                retry_raw,
                retry_where,
                ("max_attempts", "backoff_base_seconds", "backoff_cap_seconds"),
            )
            max_attempts = _get_typed(retry_raw, "max_attempts", int, retry_where, 3)
            if max_attempts < 1:
                raise ScenarioSpecError(f"{retry_where}.max_attempts: must be at least 1")
            base = _chaos_seconds(
                retry_raw, "backoff_base_seconds", retry_where, default=0.001, exclusive=True
            )
            cap = _chaos_seconds(
                retry_raw, "backoff_cap_seconds", retry_where, default=0.05, exclusive=True
            )
            if cap < base:
                raise ScenarioSpecError(
                    f"{retry_where}.backoff_cap_seconds: cap {cap!r} is below the "
                    f"base delay {base!r}"
                )
            retry = RetryPolicy(
                max_attempts=max_attempts,
                backoff_base_seconds=base,
                backoff_cap_seconds=cap,
            )

        random_stragglers = _get_typed(mapping, "random_stragglers", int, where, 0)
        if random_stragglers < 0:
            raise ScenarioSpecError(f"{where}.random_stragglers: must be non-negative")
        horizon = _chaos_seconds(
            mapping, "straggler_horizon_seconds", where, default=10.0, exclusive=True
        )
        section = cls(
            enabled=_get_typed(mapping, "enabled", bool, where, True),
            stragglers=tuple(stragglers),
            random_stragglers=random_stragglers,
            straggler_horizon_seconds=horizon,
            partitions=tuple(partitions),
            crashes=tuple(crashes),
            backpressure=tuple(load_windows["backpressure"]),
            bursts=tuple(load_windows["bursts"]),
            retry=retry,
        )
        if section.enabled and not (
            section.stragglers
            or section.random_stragglers
            or section.partitions
            or section.crashes
            or section.backpressure
            or section.bursts
        ):
            raise ScenarioSpecError(
                f"{where}: the section declares no faults — add stragglers, "
                "partitions, crashes, backpressure, or bursts (or drop [chaos])"
            )
        return section

    def engine_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for :meth:`repro.api.Database.enable_chaos`."""
        kwargs: Dict[str, Any] = {
            "stragglers": self.stragglers,
            "random_stragglers": self.random_stragglers,
            "straggler_horizon_seconds": self.straggler_horizon_seconds,
            "partitions": self.partitions,
            "crashes": self.crashes,
            "backpressure": self.backpressure,
            "bursts": self.bursts,
        }
        if self.retry is not None:
            kwargs["retry"] = self.retry
        return kwargs

    def to_mapping(self) -> Dict[str, Any]:
        from ..chaos import RetryPolicy

        # Like [trace], presence arms the engine, so ``enabled`` always
        # survives the round trip.
        mapping: Dict[str, Any] = {"enabled": self.enabled}
        if self.stragglers:
            mapping["stragglers"] = [
                _drop_defaults(
                    {
                        "node": w.node,
                        "start": w.start,
                        "duration": w.duration,
                        "multiplier": w.multiplier,
                    }
                )
                for w in self.stragglers
            ]
        if self.random_stragglers:
            mapping["random_stragglers"] = self.random_stragglers
        if self.straggler_horizon_seconds != ChaosSection().straggler_horizon_seconds:
            mapping["straggler_horizon_seconds"] = self.straggler_horizon_seconds
        if self.partitions:
            mapping["partitions"] = [
                _drop_defaults(
                    {
                        "start": w.start,
                        "duration": w.duration,
                        "timeout_probability": w.timeout_probability or None,
                    }
                )
                for w in self.partitions
            ]
        if self.crashes:
            mapping["crashes"] = [
                _drop_defaults({"after_seconds": plan.after_seconds, "site": plan.site})
                for plan in self.crashes
            ]
        for key in ("backpressure", "bursts"):
            windows = getattr(self, key)
            if windows:
                mapping[key] = [
                    {"start": w.start, "duration": w.duration, "factor": w.factor}
                    for w in windows
                ]
        if self.retry is not None:
            defaults = RetryPolicy()
            retry_mapping = {
                field_name: getattr(self.retry, field_name)
                for field_name in ("max_attempts", "backoff_base_seconds", "backoff_cap_seconds")
                if getattr(self.retry, field_name) != getattr(defaults, field_name)
            }
            mapping["retry"] = retry_mapping
        return mapping


@dataclass(frozen=True)
class SweepSection:
    """``[sweep]``: a parameter grid for ``python -m repro sweep``.

    Each key of ``[sweep.axes]`` is an *axis*: a shorthand alias
    (``strategy``, ``seed``, ``nodes``, ``workload_scale``, ``policy``) or a
    dotted path into the spec's canonical mapping form
    (``workload.initial_records``, ``autopilot.options.max_skew``,
    ``steps.0.target_nodes``), mapped to the list of values to try.  The
    sweep runs one cell per point of the cartesian product, in declared axis
    order, each cell being the base spec with that cell's overrides applied
    and the ``[sweep]`` section stripped — so every cell recording replays
    like any single-scenario recording.

    ``run``/``replay`` ignore the section entirely: a spec with a ``[sweep]``
    table still runs as the base scenario, which keeps one file usable both
    as a single run and as a grid.
    """

    #: Ordered ``(axis, values)`` pairs — the declared grid.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    #: Default worker-process count for the executor (CLI ``--jobs`` wins).
    jobs: int = 1

    _KEYS = ("axes", "jobs")

    #: Shorthand axis names -> dotted canonical-mapping paths.
    AXIS_ALIASES = {
        "strategy": "cluster.strategy",
        "seed": "cluster.seed",
        "nodes": "cluster.nodes",
        "workload_scale": "cluster.workload_scale",
        "policy": "autopilot.policy",
    }

    #: Sections a dotted axis path may start with.
    _PATH_ROOTS = (
        "cluster",
        "workload",
        "autopilot",
        "tpch",
        "trace",
        "chaos",
        "steps",
        "checks",
        "datasets",
    )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str = "sweep") -> "SweepSection":
        _check_keys(mapping, where, cls._KEYS)
        axes_raw = _require_mapping(mapping.get("axes", {}), f"{where}.axes")
        axes: List[Tuple[str, Tuple[Any, ...]]] = []
        for axis, values in axes_raw.items():
            axis_where = f"{where}.axes.{axis}"
            cls.validate_axis_name(axis, axis_where)
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise ScenarioSpecError(
                    f"{axis_where}: expected an array of values, got {type(values).__name__}"
                )
            if not values:
                raise ScenarioSpecError(f"{axis_where}: an axis needs at least one value")
            for position, value in enumerate(values):
                if not isinstance(value, (str, int, float, bool)):
                    raise ScenarioSpecError(
                        f"{axis_where}[{position}]: axis values must be scalars "
                        f"(string/int/float/bool), got {type(value).__name__}"
                    )
            if len(set(map(repr, values))) != len(values):
                raise ScenarioSpecError(f"{axis_where}: axis values must be unique")
            axes.append((axis, tuple(values)))
        jobs = _get_typed(mapping, "jobs", int, where, 1)
        if jobs < 1:
            raise ScenarioSpecError(f"{where}.jobs: must be at least 1")
        section = cls(axes=tuple(axes), jobs=jobs)
        section._validate_values()
        return section

    @classmethod
    def validate_axis_name(cls, axis: str, where: str) -> str:
        """Resolve ``axis`` to its dotted path; raises on unknown names."""
        if axis in cls.AXIS_ALIASES:
            return cls.AXIS_ALIASES[axis]
        root = axis.split(".", 1)[0]
        if "." in axis and root in cls._PATH_ROOTS:
            return axis
        raise ScenarioSpecError(
            f"{where}: unknown axis {axis!r}; use an alias "
            f"({', '.join(sorted(cls.AXIS_ALIASES))}) or a dotted spec path "
            f"starting with one of: {', '.join(cls._PATH_ROOTS)}"
        )

    def _validate_values(self) -> None:
        """Registry-backed eager checks for the common axes."""
        for axis, values in self.axes:
            path = self.validate_axis_name(axis, f"sweep.axes.{axis}")
            if path == "cluster.strategy":
                from ..api.registry import available_strategies, strategy_by_name

                for value in values:
                    try:
                        strategy_by_name(str(value))
                    except ConfigError as exc:
                        raise ScenarioSpecError(
                            f"sweep.axes.{axis}: unknown strategy {value!r} "
                            f"(registered strategies: {', '.join(available_strategies())})"
                        ) from exc
            elif path == "cluster.seed":
                for value in values:
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise ScenarioSpecError(
                            f"sweep.axes.{axis}: seeds must be integers, got {value!r}"
                        )
            elif path == "autopilot.policy":
                from ..control import available_policies

                for value in values:
                    if value not in available_policies():
                        raise ScenarioSpecError(
                            f"sweep.axes.{axis}: unknown policy {value!r} "
                            f"(registered policies: {', '.join(available_policies())})"
                        )

    def to_mapping(self) -> Dict[str, Any]:
        mapping: Dict[str, Any] = {}
        if self.axes:
            mapping["axes"] = {axis: list(values) for axis, values in self.axes}
        if self.jobs != 1:
            mapping["jobs"] = self.jobs
        return mapping


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RebalanceStep:
    """``{kind = "rebalance"}``: an explicit resize after the workload."""

    add: Optional[int] = None
    remove: Optional[int] = None
    target_nodes: Optional[int] = None
    fault_sites: Tuple[str, ...] = ()
    expect_fault: bool = False

    kind = "rebalance"

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str) -> "RebalanceStep":
        _check_keys(
            mapping,
            where,
            ("kind", "add", "remove", "target_nodes", "fault_sites", "expect_fault"),
        )
        step = cls(
            add=_get_typed(mapping, "add", int, where),
            remove=_get_typed(mapping, "remove", int, where),
            target_nodes=_get_typed(mapping, "target_nodes", int, where),
            fault_sites=_string_tuple(mapping.get("fault_sites", ()), f"{where}.fault_sites"),
            expect_fault=_get_typed(mapping, "expect_fault", bool, where, False),
        )
        chosen = [v for v in (step.add, step.remove, step.target_nodes) if v is not None]
        if len(chosen) != 1:
            raise ScenarioSpecError(
                f"{where}: a rebalance step needs exactly one of add/remove/target_nodes"
            )
        if step.expect_fault and not step.fault_sites:
            raise ScenarioSpecError(
                f"{where}: expect_fault = true needs fault_sites naming the "
                "protocol site(s) to crash at (see repro.api.FAULT_SITES)"
            )
        if step.fault_sites and not step.expect_fault:
            raise ScenarioSpecError(
                f"{where}: fault_sites without expect_fault = true would crash "
                "the run when the injected fault fires; add expect_fault = true "
                "(and a recover step) or drop fault_sites"
            )
        if step.fault_sites:
            from ..rebalance.operation import FAULT_SITES

            unknown = sorted(set(step.fault_sites) - set(FAULT_SITES))
            if unknown:
                raise ScenarioSpecError(
                    f"{where}.fault_sites: unknown site(s) {unknown}; "
                    f"valid sites: {', '.join(FAULT_SITES)}"
                )
        return step

    def to_mapping(self) -> Dict[str, Any]:
        return _drop_defaults(
            {
                "kind": "rebalance",
                "add": self.add,
                "remove": self.remove,
                "target_nodes": self.target_nodes,
                "fault_sites": list(self.fault_sites),
                "expect_fault": self.expect_fault or None,
            }
        )


@dataclass(frozen=True)
class RecoverStep:
    """``{kind = "recover"}``: run rebalance recovery (Section V-D)."""

    kind = "recover"

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str) -> "RecoverStep":
        _check_keys(mapping, where, ("kind",))
        return cls()

    def to_mapping(self) -> Dict[str, Any]:
        return {"kind": "recover"}


@dataclass(frozen=True)
class QueryStep:
    """``{kind = "query", plan = "q1"}``: run a named TPC-H plan."""

    plan: str = "q1"

    kind = "query"

    _PLANS = ("q1", "q3", "q6")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str) -> "QueryStep":
        _check_keys(mapping, where, ("kind", "plan"), ("plan",))
        plan = _get_typed(mapping, "plan", str, where)
        if plan not in cls._PLANS:
            raise ScenarioSpecError(
                f"{where}.plan: unknown query plan {plan!r}; available: {', '.join(cls._PLANS)}"
            )
        return cls(plan=plan)

    def to_mapping(self) -> Dict[str, Any]:
        return {"kind": "query", "plan": self.plan}


Step = Union[RebalanceStep, RecoverStep, QueryStep]

_STEP_KINDS = {
    "rebalance": RebalanceStep,
    "recover": RecoverStep,
    "query": QueryStep,
}


def _step_from_mapping(mapping: Mapping[str, Any], where: str) -> Step:
    kind = mapping.get("kind")
    if kind not in _STEP_KINDS:
        raise ScenarioSpecError(
            f"{where}.kind: unknown step kind {kind!r}; "
            f"available kinds: {', '.join(sorted(_STEP_KINDS))}"
        )
    return _STEP_KINDS[kind].from_mapping(mapping, where)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChecksSection:
    """``[checks]``: assertions the run must satisfy (CLI exit status)."""

    min_autopilot_rebalances: Optional[int] = None
    expect_nodes: Optional[int] = None
    min_total_ops: Optional[int] = None
    rebalance_write_p99_gte_steady: bool = False
    datasets_unchanged_after_steps: bool = False
    queries_identical_across_rebalance: bool = False
    #: Per-phase write-p99 SLO budgets in milliseconds, e.g.
    #: ``write_p99_budget_ms = {steady = 5.0, rebalance = 25.0}``.  One check
    #: per phase: the phase's write p99 must not exceed its budget (a phase
    #: that recorded no writes fails — a silent workload is not within SLO).
    write_p99_budget_ms: Mapping[str, float] = field(default_factory=dict)
    #: Simulated-seconds budget from the last chaos-injected crash to the end
    #: of the recovery pass that repaired it (trivially passes when no chaos
    #: crash fired).
    recovered_within_seconds: Optional[float] = None
    #: Cap on ``retry.routing_miss / ops.total`` — how often a stale
    #: directory view may land a lookup on a moved bucket.
    max_routing_miss_rate: Optional[float] = None

    _KEYS = (
        "min_autopilot_rebalances",
        "expect_nodes",
        "min_total_ops",
        "rebalance_write_p99_gte_steady",
        "datasets_unchanged_after_steps",
        "queries_identical_across_rebalance",
        "write_p99_budget_ms",
        "recovered_within_seconds",
        "max_routing_miss_rate",
    )

    #: Phases a latency budget can be stated over.
    _BUDGET_PHASES = ("steady", "rebalance")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], where: str = "checks") -> "ChecksSection":
        _check_keys(mapping, where, cls._KEYS)
        budgets_raw = _require_mapping(
            mapping.get("write_p99_budget_ms", {}), f"{where}.write_p99_budget_ms"
        )
        _check_keys(budgets_raw, f"{where}.write_p99_budget_ms", cls._BUDGET_PHASES)
        budgets: Dict[str, float] = {}
        for phase, budget in budgets_raw.items():
            if isinstance(budget, bool) or not isinstance(budget, (int, float)) or budget <= 0:
                raise ScenarioSpecError(
                    f"{where}.write_p99_budget_ms.{phase}: budgets are positive "
                    f"milliseconds, got {budget!r}"
                )
            budgets[phase] = float(budget)
        recovered_within = _get_typed(mapping, "recovered_within_seconds", (int, float), where)
        if recovered_within is not None:
            recovered_within = float(recovered_within)
            if recovered_within <= 0:
                raise ScenarioSpecError(f"{where}.recovered_within_seconds: must be positive")
        miss_rate = _get_typed(mapping, "max_routing_miss_rate", (int, float), where)
        if miss_rate is not None:
            miss_rate = float(miss_rate)
            if not 0.0 <= miss_rate <= 1.0:
                raise ScenarioSpecError(
                    f"{where}.max_routing_miss_rate: a rate must be within [0, 1]"
                )
        return cls(
            min_autopilot_rebalances=_get_typed(mapping, "min_autopilot_rebalances", int, where),
            expect_nodes=_get_typed(mapping, "expect_nodes", int, where),
            min_total_ops=_get_typed(mapping, "min_total_ops", int, where),
            rebalance_write_p99_gte_steady=_get_typed(
                mapping, "rebalance_write_p99_gte_steady", bool, where, False
            ),
            datasets_unchanged_after_steps=_get_typed(
                mapping, "datasets_unchanged_after_steps", bool, where, False
            ),
            queries_identical_across_rebalance=_get_typed(
                mapping, "queries_identical_across_rebalance", bool, where, False
            ),
            write_p99_budget_ms=budgets,
            recovered_within_seconds=recovered_within,
            max_routing_miss_rate=miss_rate,
        )

    def to_mapping(self) -> Dict[str, Any]:
        defaults = ChecksSection()
        mapping = {
            key: getattr(self, key)
            for key in self._KEYS
            if key != "write_p99_budget_ms" and getattr(self, key) != getattr(defaults, key)
        }
        if self.write_p99_budget_ms:
            mapping["write_p99_budget_ms"] = dict(self.write_p99_budget_ms)
        return mapping


# ---------------------------------------------------------------------------
# the scenario itself
# ---------------------------------------------------------------------------

#: Execution engines a scenario may select with ``scenario.concurrency``.
CONCURRENCY_MODES = ("legacy", "interleaved")

_TOP_LEVEL_KEYS = (
    "scenario",
    "cluster",
    "datasets",
    "tpch",
    "workload",
    "autopilot",
    "trace",
    "chaos",
    "steps",
    "checks",
    "sweep",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario document (see the module docstring)."""

    name: str
    description: str = ""
    #: Which execution engine runs the scenario: ``"legacy"`` (run to
    #: completion, bit-identical to pre-scheduler recordings) or
    #: ``"interleaved"`` (the :mod:`repro.sim` event scheduler — rebalance
    #: phases migrate bucket by bucket with foreground traffic paced inside
    #: the movement windows).  Embedded in recordings, so ``replay`` always
    #: re-runs the engine the recording was made with.
    concurrency: str = "legacy"
    cluster: ClusterSection = field(default_factory=ClusterSection)
    datasets: Tuple[DatasetSection, ...] = ()
    tpch: Optional[TPCHSection] = None
    workload: Optional[WorkloadSection] = None
    autopilot: Optional[AutopilotSection] = None
    trace: Optional[TraceSection] = None
    chaos: Optional[ChaosSection] = None
    steps: Tuple[Step, ...] = ()
    checks: ChecksSection = field(default_factory=ChecksSection)
    sweep: Optional[SweepSection] = None

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ScenarioSpec":
        """Validate a parsed document into a spec; raises
        :class:`ScenarioSpecError` with the offending section path."""
        mapping = _require_mapping(mapping, "scenario document")
        _check_keys(mapping, "scenario document", _TOP_LEVEL_KEYS, ("scenario",))
        header = _require_mapping(mapping["scenario"], "scenario")
        _check_keys(header, "scenario", ("name", "description", "concurrency"), ("name",))
        name = _get_typed(header, "name", str, "scenario")
        if not name:
            raise ScenarioSpecError("scenario.name: must not be empty")
        concurrency = _get_typed(header, "concurrency", str, "scenario", "legacy")
        if concurrency not in CONCURRENCY_MODES:
            raise ScenarioSpecError(
                f"scenario.concurrency: unknown mode {concurrency!r}; "
                f"choose one of {sorted(CONCURRENCY_MODES)}"
            )

        datasets_raw = mapping.get("datasets", [])
        if not isinstance(datasets_raw, Sequence) or isinstance(datasets_raw, str):
            raise ScenarioSpecError("datasets: expected an array of tables ([[datasets]])")
        datasets = tuple(
            DatasetSection.from_mapping(
                _require_mapping(entry, f"datasets[{position}]"), f"datasets[{position}]"
            )
            for position, entry in enumerate(datasets_raw)
        )
        dataset_names = [dataset.name for dataset in datasets]
        duplicate_datasets = sorted({n for n in dataset_names if dataset_names.count(n) > 1})
        if duplicate_datasets:
            raise ScenarioSpecError(f"datasets: duplicate dataset name(s) {duplicate_datasets}")

        steps_raw = mapping.get("steps", [])
        if not isinstance(steps_raw, Sequence) or isinstance(steps_raw, str):
            raise ScenarioSpecError("steps: expected an array of tables ([[steps]])")
        steps = tuple(
            _step_from_mapping(
                _require_mapping(entry, f"steps[{position}]"), f"steps[{position}]"
            )
            for position, entry in enumerate(steps_raw)
        )

        spec = cls(
            name=name,
            description=_get_typed(header, "description", str, "scenario", ""),
            concurrency=concurrency,
            cluster=ClusterSection.from_mapping(
                _require_mapping(mapping.get("cluster", {}), "cluster")
            ),
            datasets=datasets,
            tpch=TPCHSection.from_mapping(_require_mapping(mapping["tpch"], "tpch"))
            if "tpch" in mapping
            else None,
            workload=WorkloadSection.from_mapping(
                _require_mapping(mapping["workload"], "workload")
            )
            if "workload" in mapping
            else None,
            autopilot=AutopilotSection.from_mapping(
                _require_mapping(mapping["autopilot"], "autopilot")
            )
            if "autopilot" in mapping
            else None,
            trace=TraceSection.from_mapping(_require_mapping(mapping["trace"], "trace"))
            if "trace" in mapping
            else None,
            chaos=ChaosSection.from_mapping(_require_mapping(mapping["chaos"], "chaos"))
            if "chaos" in mapping
            else None,
            steps=steps,
            checks=ChecksSection.from_mapping(_require_mapping(mapping.get("checks", {}), "checks")),
            sweep=SweepSection.from_mapping(_require_mapping(mapping["sweep"], "sweep"))
            if "sweep" in mapping
            else None,
        )
        spec._validate_cross_section()
        return spec

    def _validate_cross_section(self) -> None:
        """Conflicts no single section can see."""
        if self.autopilot is not None and self.workload is not None:
            scheduled = [p.name for p in self.workload.rebalance_phases]
            if scheduled:
                raise ScenarioSpecError(
                    "autopilot: conflicts with the phase-scheduled rebalance in "
                    f"workload.phases {scheduled}: an autopilot and an explicit "
                    "mid-phase resize would fight over the cluster; drop the "
                    "[autopilot] section or the phase's rebalance key"
                )
        if (
            self.autopilot is not None
            and self.autopilot.dry_run
            and (self.checks.min_autopilot_rebalances or 0) > 0
        ):
            raise ScenarioSpecError(
                "checks.min_autopilot_rebalances: conflicts with autopilot.dry_run = true "
                "— a dry-run engine plans but never rebalances; drop dry_run or the check"
            )
        if self.checks.min_autopilot_rebalances is not None and self.autopilot is None:
            raise ScenarioSpecError(
                "checks.min_autopilot_rebalances: needs an [autopilot] section to count"
            )
        if self.checks.queries_identical_across_rebalance:
            # The check compares a plan's first pre-rebalance answer against
            # its first post-rebalance answer, so some plan must straddle a
            # completing (non-fault) rebalance step — otherwise it can never pass.
            rebalance_positions = [
                position
                for position, step in enumerate(self.steps)
                if isinstance(step, RebalanceStep) and not step.expect_fault
            ]
            straddling = any(
                isinstance(before, QueryStep)
                and isinstance(after, QueryStep)
                and before.plan == after.plan
                and any(i < rebalance < j for rebalance in rebalance_positions)
                for i, before in enumerate(self.steps)
                for j, after in enumerate(self.steps)
                if i < j
            )
            if not straddling:
                raise ScenarioSpecError(
                    "checks.queries_identical_across_rebalance: needs the same "
                    "query plan in [[steps]] both before and after a rebalance "
                    "step (one without expect_fault) — as written the check "
                    "could never pass"
                )
        global_hashing_names = ("hashing", "global", "globalhashing", "modulo")
        strategy_name = self.cluster.strategy.strip().lower()
        if strategy_name in global_hashing_names:
            faulted = [
                position
                for position, step in enumerate(self.steps)
                if isinstance(step, RebalanceStep) and step.fault_sites
            ]
            if faulted:
                raise ScenarioSpecError(
                    f"steps[{faulted[0]}].fault_sites: the global-hashing baseline "
                    "rebuilds datasets offline and has no Section V protocol "
                    "sites to fault; use dynahash, statichash, or consistenthash"
                )
        chaos_crashes = (
            self.chaos is not None and self.chaos.enabled and bool(self.chaos.crashes)
        )
        recover_positions = [
            position for position, step in enumerate(self.steps) if isinstance(step, RecoverStep)
        ]
        for position in recover_positions:
            earlier = self.steps[:position]
            if not chaos_crashes and not any(
                isinstance(step, RebalanceStep) and step.expect_fault for step in earlier
            ):
                raise ScenarioSpecError(
                    f"steps[{position}]: a recover step needs an earlier rebalance step "
                    "with expect_fault = true (or [[chaos.crashes]]) — otherwise "
                    "there is nothing to recover"
                )
        if chaos_crashes:
            if strategy_name in global_hashing_names:
                raise ScenarioSpecError(
                    "chaos.crashes: the global-hashing baseline has no "
                    "interruptible protocol window, so crash plans cannot fire "
                    "on it; use dynahash, statichash, or consistenthash"
                )
            rebalance_positions = [
                position
                for position, step in enumerate(self.steps)
                if isinstance(step, RebalanceStep)
            ]
            if not rebalance_positions:
                raise ScenarioSpecError(
                    "chaos.crashes: crash plans fire when an explicit [[steps]] "
                    "rebalance arms them — add a rebalance step (and a recover "
                    "step after it) or drop the crashes"
                )
            if not any(r < position for r in rebalance_positions for position in recover_positions):
                raise ScenarioSpecError(
                    "chaos.crashes: a chaos-interrupted rebalance leaves the "
                    "cluster mid-protocol — add a recover step after the "
                    "rebalance step"
                )
        for position, step in enumerate(self.steps):
            if isinstance(step, QueryStep) and self.tpch is None:
                raise ScenarioSpecError(
                    f"steps[{position}]: query steps run the TPC-H plans and need a "
                    "[tpch] section to load the tables they read"
                )
        if self.workload is None and not self.steps and self.tpch is None and not self.datasets:
            raise ScenarioSpecError(
                "scenario: nothing to do — give a [workload], [tpch], [[datasets]], "
                "or [[steps]] section"
            )

    # ------------------------------------------------------------- utilities

    def to_mapping(self) -> Dict[str, Any]:
        """The canonical, JSON-serialisable form (round-trips through
        :meth:`from_mapping`; embedded in recordings for ``replay``)."""
        mapping: Dict[str, Any] = {
            "scenario": _drop_defaults(
                {
                    "name": self.name,
                    "description": self.description or None,
                    "concurrency": None if self.concurrency == "legacy" else self.concurrency,
                }
            )
        }
        cluster = self.cluster.to_mapping()
        if cluster:
            mapping["cluster"] = cluster
        if self.datasets:
            mapping["datasets"] = [dataset.to_mapping() for dataset in self.datasets]
        if self.tpch is not None:
            mapping["tpch"] = self.tpch.to_mapping()
        if self.workload is not None:
            mapping["workload"] = self.workload.to_mapping()
        if self.autopilot is not None:
            mapping["autopilot"] = self.autopilot.to_mapping()
        if self.trace is not None:
            mapping["trace"] = self.trace.to_mapping()
        if self.chaos is not None:
            mapping["chaos"] = self.chaos.to_mapping()
        if self.steps:
            mapping["steps"] = [step.to_mapping() for step in self.steps]
        checks = self.checks.to_mapping()
        if checks:
            mapping["checks"] = checks
        if self.sweep is not None:
            mapping["sweep"] = self.sweep.to_mapping()
        return mapping

    def with_overrides(
        self,
        seed: Optional[int] = None,
        strategy: Optional[str] = None,
        concurrency: Optional[str] = None,
    ) -> "ScenarioSpec":
        """A copy with the seed, strategy, and/or concurrency mode replaced
        (CLI ``--seed`` / ``--strategy`` / ``--concurrency``).  A strategy
        override drops the spec's ``strategy_options`` — they are specific to
        the strategy they were written for."""
        spec = self
        if concurrency is not None:
            if concurrency not in CONCURRENCY_MODES:
                raise ScenarioSpecError(
                    f"scenario.concurrency: unknown mode {concurrency!r}; "
                    f"choose one of {sorted(CONCURRENCY_MODES)}"
                )
            spec = replace(spec, concurrency=concurrency)
        if seed is not None:
            spec = replace(spec, cluster=replace(spec.cluster, seed=seed))
        if strategy is not None and strategy != spec.cluster.strategy:
            spec = replace(
                spec,
                cluster=replace(spec.cluster, strategy=strategy, strategy_options={}),
            )
            spec.cluster.build_config()  # validate the new name
            # Re-run the cross-section rules: a strategy swap can invalidate
            # combinations the original spec passed (fault_sites steps or
            # chaos crash plans on the global-hashing baseline), and those
            # must fail here as a spec error, not mid-run as a traceback.
            spec._validate_cross_section()
        return spec

    def scaled_down(
        self,
        max_phase_ops: int = 60,
        max_initial_records: int = 240,
        max_tpch_scale: float = 0.0004,
    ) -> "ScenarioSpec":
        """A smoke-scale copy for fast round-trip tests: phase op counts,
        preload sizes, and the TPC-H scale factor are capped; everything else
        (seed, strategy, policy, steps, checks) is untouched.  Checks tuned
        for the full-scale run may not hold at smoke scale."""
        spec = self
        if spec.workload is not None:
            workload = replace(
                spec.workload,
                initial_records=min(spec.workload.initial_records, max_initial_records),
                default_ops=min(spec.workload.default_ops, max_phase_ops),
                phases=tuple(
                    replace(phase, ops=min(phase.ops, max_phase_ops))
                    for phase in spec.workload.phases
                ),
            )
            spec = replace(spec, workload=workload)
        if spec.tpch is not None:
            spec = replace(
                spec,
                tpch=replace(spec.tpch, scale_factor=min(spec.tpch.scale_factor, max_tpch_scale)),
            )
        return spec
