"""Dataset and index specifications.

An AsterixDB dataset has a primary key, a primary index storing whole records,
a primary-key index storing keys only (for COUNT(*) and uniqueness checks),
and any number of local secondary indexes whose index keys are the composition
of the secondary key and the primary key (Section II-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..common.errors import ConfigError, MissingPrimaryKeyError


@dataclass(frozen=True)
class SecondaryIndexSpec:
    """Definition of one local secondary index."""

    name: str
    #: Record fields forming the secondary key, in order.
    key_fields: Tuple[str, ...]
    #: Extra fields stored in the index entry (a covering index, as the paper
    #: builds on LineItem and Orders to enable index-only plans).
    included_fields: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("secondary index name must not be empty")
        if not self.key_fields:
            raise ConfigError(f"secondary index {self.name!r} needs at least one key field")

    def secondary_key(self, record: Mapping[str, Any]) -> Tuple[Any, ...]:
        """Extract the secondary-key tuple from a record."""
        return tuple(record[field_name] for field_name in self.key_fields)

    def covered_value(self, record: Mapping[str, Any]) -> Dict[str, Any]:
        """The covered (included) fields stored alongside the index entry."""
        return {field_name: record[field_name] for field_name in self.included_fields}


@dataclass(frozen=True)
class DatasetSpec:
    """Definition of one dataset."""

    name: str
    #: Record field holding the primary key.  Composite keys pass a tuple of
    #: field names.
    primary_key: Tuple[str, ...]
    secondary_indexes: Tuple[SecondaryIndexSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("dataset name must not be empty")
        if not self.primary_key:
            raise ConfigError(f"dataset {self.name!r} needs a primary key")
        names = [index.name for index in self.secondary_indexes]
        if len(names) != len(set(names)):
            raise ConfigError(f"dataset {self.name!r} has duplicate secondary index names")

    @classmethod
    def create(
        cls,
        name: str,
        primary_key: "str | Sequence[str]",
        secondary_indexes: Sequence[SecondaryIndexSpec] = (),
    ) -> "DatasetSpec":
        """Convenience constructor accepting a single-field primary key."""
        if isinstance(primary_key, str):
            key_fields: Tuple[str, ...] = (primary_key,)
        else:
            key_fields = tuple(primary_key)
        return cls(name=name, primary_key=key_fields, secondary_indexes=tuple(secondary_indexes))

    @property
    def has_composite_key(self) -> bool:
        return len(self.primary_key) > 1

    def primary_key_of(self, record: Mapping[str, Any]) -> Any:
        """Extract the primary key value (scalar for single-field keys)."""
        try:
            if len(self.primary_key) == 1:
                return record[self.primary_key[0]]
            return tuple(record[field_name] for field_name in self.primary_key)
        except KeyError as exc:
            raise MissingPrimaryKeyError(
                f"dataset {self.name!r}: row has no primary-key field {exc.args[0]!r} "
                f"(primary key: {', '.join(self.primary_key)})"
            ) from None

    def index_names(self) -> List[str]:
        return [index.name for index in self.secondary_indexes]

    def index(self, name: str) -> SecondaryIndexSpec:
        for index in self.secondary_indexes:
            if index.name == name:
                return index
        raise ConfigError(f"dataset {self.name!r} has no secondary index {name!r}")
