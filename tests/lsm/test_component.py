"""Tests for memory, disk, and reference components and their lifecycle."""

import pytest

from repro.common.errors import ComponentStateError
from repro.common.hashutil import hash_key, low_bits
from repro.lsm.component import DiskComponent, MemoryComponent, ReferenceDiskComponent
from repro.lsm.entry import Entry


def make_entries(keys, seq_start=1, value="v"):
    return [Entry(key=k, value=f"{value}{k}", seqnum=seq_start + i) for i, k in enumerate(keys)]


class TestMemoryComponent:
    def test_put_and_get(self):
        mem = MemoryComponent()
        mem.put(Entry(key=1, value="a", seqnum=1))
        assert mem.get(1).value == "a"
        assert mem.get(2) is None

    def test_newest_write_wins(self):
        mem = MemoryComponent()
        mem.put(Entry(key=1, value="a", seqnum=1))
        mem.put(Entry(key=1, value="b", seqnum=2))
        assert mem.get(1).value == "b"
        assert len(mem) == 1

    def test_sorted_entries(self):
        mem = MemoryComponent()
        for key in (5, 1, 3):
            mem.put(Entry(key=key, value=str(key), seqnum=key))
        assert [e.key for e in mem.sorted_entries()] == [1, 3, 5]

    def test_scan_bounds(self):
        mem = MemoryComponent()
        for key in range(10):
            mem.put(Entry(key=key, value=str(key), seqnum=key + 1))
        assert [e.key for e in mem.scan(3, 6)] == [3, 4, 5, 6]

    def test_size_grows_with_puts(self):
        mem = MemoryComponent()
        assert mem.size_bytes == 0
        mem.put(Entry(key=1, value="x" * 100, seqnum=1))
        assert mem.size_bytes > 100

    def test_write_after_deactivate_rejected(self):
        mem = MemoryComponent()
        mem.deactivate()
        with pytest.raises(ComponentStateError):
            mem.put(Entry(key=1, value="a", seqnum=1))

    def test_is_empty(self):
        mem = MemoryComponent()
        assert mem.is_empty
        mem.put(Entry(key=1, value="a", seqnum=1))
        assert not mem.is_empty


class TestReferenceCounting:
    def test_retain_release_cycle(self):
        comp = DiskComponent(make_entries([1, 2]))
        comp.retain()
        assert comp.refcount == 1
        comp.release()
        assert comp.refcount == 0
        assert not comp.is_destroyed  # still active

    def test_release_without_retain_rejected(self):
        comp = DiskComponent(make_entries([1]))
        with pytest.raises(ComponentStateError):
            comp.release()

    def test_deactivate_with_no_readers_destroys_immediately(self):
        comp = DiskComponent(make_entries([1]))
        comp.deactivate()
        assert comp.is_destroyed

    def test_deactivate_waits_for_readers(self):
        comp = DiskComponent(make_entries([1]))
        comp.retain()
        comp.deactivate()
        assert not comp.is_destroyed
        comp.release()
        assert comp.is_destroyed

    def test_retain_destroyed_rejected(self):
        comp = DiskComponent(make_entries([1]))
        comp.deactivate()
        with pytest.raises(ComponentStateError):
            comp.retain()


class TestDiskComponent:
    def test_entries_are_sorted_regardless_of_input_order(self):
        comp = DiskComponent(make_entries([5, 1, 3]))
        assert [e.key for e in comp.entries()] == [1, 3, 5]

    def test_min_max_keys(self):
        comp = DiskComponent(make_entries([5, 1, 3]))
        assert comp.min_key == 1
        assert comp.max_key == 5

    def test_empty_component(self):
        comp = DiskComponent([])
        assert len(comp) == 0
        assert comp.min_key is None
        assert comp.get(1) is None

    def test_point_lookup(self):
        comp = DiskComponent(make_entries(range(100)))
        assert comp.get(42).value == "v42"
        assert comp.get(1000) is None

    def test_bloom_filter_rejects_most_absent_keys(self):
        comp = DiskComponent(make_entries(range(500)))
        rejected = sum(1 for key in range(10_000, 11_000) if not comp.may_contain(key))
        assert rejected > 900

    def test_scan_range(self):
        comp = DiskComponent(make_entries(range(20)))
        assert [e.key for e in comp.scan(5, 8)] == [5, 6, 7, 8]

    def test_scan_open_ended(self):
        comp = DiskComponent(make_entries(range(5)))
        assert [e.key for e in comp.scan()] == [0, 1, 2, 3, 4]
        assert [e.key for e in comp.scan(low=3)] == [3, 4]
        assert [e.key for e in comp.scan(high=1)] == [0, 1]

    def test_size_bytes_sums_entries(self):
        entries = make_entries(range(10))
        comp = DiskComponent(entries)
        assert comp.size_bytes == sum(e.size_bytes for e in entries)

    def test_read_after_destroy_rejected(self):
        comp = DiskComponent(make_entries([1]))
        comp.deactivate()
        with pytest.raises(ComponentStateError):
            comp.get(1)

    def test_tuple_keys_sort_lexicographically(self):
        comp = DiskComponent(
            [
                Entry(key=(2, "a"), value=1, seqnum=1),
                Entry(key=(1, "b"), value=2, seqnum=2),
                Entry(key=(1, "a"), value=3, seqnum=3),
            ]
        )
        assert [e.key for e in comp.entries()] == [(1, "a"), (1, "b"), (2, "a")]


class TestDiskComponentScanCost:
    """Range scans bisect to their bounds: keys visited ~ result + log n."""

    @pytest.fixture
    def counted_sort_keys(self, monkeypatch):
        import repro.lsm.component as component_module

        calls = []
        original = component_module._sort_key

        def counting(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(component_module, "_sort_key", counting)
        return calls

    @pytest.mark.parametrize("low, high", [(0, 9), (2_000, 2_015), (4_090, 5_000), (-5, -1)])
    def test_scan_visits_result_plus_log_entries(self, counted_sort_keys, low, high):
        count = 4_096
        comp = DiskComponent(make_entries(range(0, 2 * count, 2)))
        counted_sort_keys.clear()
        result = [e.key for e in comp.scan(low, high)]
        assert result == [k for k in range(0, 2 * count, 2) if low <= k <= high]
        log_n = count.bit_length()
        # Two bisections of ~log2(n) probes each, plus one call per bound.
        assert len(counted_sort_keys) <= 2 * (log_n + 2)

    def test_scan_matches_filter_on_tuple_keys(self):
        keys = [(a, b) for a in range(20) for b in "abc"]
        comp = DiskComponent(make_entries(reversed(keys)))
        assert [e.key for e in comp.scan((3, "b"), (5, "a"))] == [
            k for k in sorted(keys) if (3, "b") <= k <= (5, "a")
        ]


class TestReferenceDiskComponent:
    def _split_pair(self, keys, depth=1):
        """Build a parent component and the two depth-``depth`` references."""
        parent = DiskComponent(make_entries(keys))
        ref0 = ReferenceDiskComponent(parent, hash_prefix=0, depth=depth)
        ref1 = ReferenceDiskComponent(parent, hash_prefix=1, depth=depth)
        return parent, ref0, ref1

    def test_references_partition_the_parent(self):
        keys = list(range(200))
        parent, ref0, ref1 = self._split_pair(keys)
        keys0 = {e.key for e in ref0.entries()}
        keys1 = {e.key for e in ref1.entries()}
        assert keys0 | keys1 == set(keys)
        assert keys0 & keys1 == set()

    def test_reference_filters_by_hash_prefix(self):
        _, ref0, _ = self._split_pair(range(100))
        for entry in ref0.entries():
            assert low_bits(hash_key(entry.key), 1) == 0

    def test_point_lookup_through_reference(self):
        _, ref0, ref1 = self._split_pair(range(50))
        for key in range(50):
            owner = ref0 if low_bits(hash_key(key), 1) == 0 else ref1
            other = ref1 if owner is ref0 else ref0
            assert owner.get(key) is not None
            assert other.get(key) is None

    def test_reference_pins_target(self):
        parent, ref0, _ref1 = self._split_pair(range(10))
        parent.deactivate()
        assert not parent.is_destroyed  # still referenced by ref0/_ref1
        ref0.deactivate()
        _ref1.deactivate()
        assert parent.is_destroyed

    def test_materialize_produces_real_component(self):
        _, ref0, _ = self._split_pair(range(100))
        real = ref0.materialize()
        assert {e.key for e in real.entries()} == {e.key for e in ref0.entries()}
        assert real.size_bytes == ref0.size_bytes

    def test_referenced_bytes_reports_parent_size(self):
        parent, ref0, _ = self._split_pair(range(100))
        assert ref0.referenced_bytes == parent.size_bytes
        assert ref0.size_bytes < parent.size_bytes

    def test_negative_depth_rejected(self):
        parent = DiskComponent(make_entries([1]))
        with pytest.raises(ValueError):
            ReferenceDiskComponent(parent, hash_prefix=0, depth=-1)

    def test_may_contain_respects_prefix(self):
        _, ref0, _ = self._split_pair(range(100))
        wrong_side = next(k for k in range(100) if low_bits(hash_key(k), 1) == 1)
        assert not ref0.may_contain(wrong_side)

    def test_size_and_length_are_fixed_when_built(self, monkeypatch):
        import repro.lsm.component as component_module

        parent, ref0, ref1 = self._split_pair(range(100))
        hashed = []
        monkeypatch.setattr(component_module, "hash_key", hashed.append)
        owned = [ref.size_bytes for ref in (ref0, ref1)]
        counts = [len(ref) for ref in (ref0, ref1)]
        assert hashed == []  # no re-filtering of the target
        assert sum(owned) == parent.size_bytes
        assert sum(counts) == len(parent)
        monkeypatch.undo()
        assert owned == [sum(e.size_bytes for e in ref.entries()) for ref in (ref0, ref1)]
        assert counts == [len(ref.entries()) for ref in (ref0, ref1)]
