"""Bad keys raise typed ``repro.common.errors`` exceptions, not bare builtins.

A row without its primary-key field raises :class:`MissingPrimaryKeyError`
and a key the partitioning hash cannot hash raises
:class:`UnsupportedKeyTypeError`.  Each also subclasses the builtin it
replaces (``KeyError`` / ``TypeError``), so existing ``except`` clauses keep
working.
"""

import pytest

from repro.api import (
    ClusterConfig,
    Database,
    MissingPrimaryKeyError,
    ReproError,
    UnsupportedKeyTypeError,
)


@pytest.fixture
def db():
    with Database(ClusterConfig(num_nodes=2)) as session:
        yield session


@pytest.fixture
def table(db):
    table = db.create_dataset("t", primary_key="k")
    table.insert([{"k": 1, "v": 1}])
    return table


class TestMissingPrimaryKey:
    @pytest.mark.parametrize("verb", ["insert", "upsert", "upsert_each"])
    def test_row_without_primary_key_raises_typed_error(self, table, verb):
        with pytest.raises(MissingPrimaryKeyError, match="'k'") as caught:
            getattr(table, verb)([{"v": 1}])
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, KeyError)
        assert "dataset 't'" in str(caught.value)

    def test_existing_key_error_handlers_still_catch_it(self, table):
        with pytest.raises(KeyError):
            table.insert([{"v": 1}])

    def test_composite_key_names_the_missing_field(self, db):
        orders = db.create_dataset("orders", primary_key=("o", "line"))
        with pytest.raises(MissingPrimaryKeyError, match="'line'"):
            orders.insert([{"o": 1}])

    def test_valid_rows_before_and_after_are_unaffected(self, table):
        table.insert([{"k": 2, "v": 2}])
        assert table.get(2) == {"k": 2, "v": 2}
        assert table.count() == 2


class TestUnsupportedKeyType:
    @pytest.mark.parametrize(
        "call",
        [
            lambda table: table.get_many([None]),
            lambda table: table.get(None),
            lambda table: table.insert([{"k": None}]),
            lambda table: table.upsert([{"k": [1]}]),
        ],
        ids=["get_many", "get", "insert", "upsert"],
    )
    def test_unhashable_key_raises_typed_error(self, table, call):
        with pytest.raises(UnsupportedKeyTypeError, match="unsupported partitioning key type") as caught:
            call(table)
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, TypeError)

    def test_existing_type_error_handlers_still_catch_it(self, table):
        with pytest.raises(TypeError):
            table.get_many([None])
