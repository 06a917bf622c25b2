"""Tests for the bucketed scan modes and their cost estimate."""

from repro.bucketed.scan import estimate_merge_comparisons, ordered_scan, unordered_scan
from repro.lsm.entry import Entry


def stream(keys, seq_start=1):
    return [Entry(key=k, value=str(k), seqnum=seq_start + i) for i, k in enumerate(sorted(keys))]


class TestUnorderedScan:
    def test_concatenates_all_buckets(self):
        result = [e.key for e in unordered_scan([stream([1, 4]), stream([2, 3])])]
        assert sorted(result) == [1, 2, 3, 4]

    def test_preserves_within_bucket_order(self):
        result = [e.key for e in unordered_scan([stream([4, 1]), stream([3, 2])])]
        assert result == [1, 4, 2, 3]

    def test_empty(self):
        assert list(unordered_scan([])) == []
        assert list(unordered_scan([[], []])) == []


class TestOrderedScan:
    def test_global_key_order(self):
        result = [e.key for e in ordered_scan([stream([1, 4, 9]), stream([2, 3, 8]), stream([5])])]
        assert result == [1, 2, 3, 4, 5, 8, 9]

    def test_single_bucket_passthrough(self):
        result = [e.key for e in ordered_scan([stream([1, 2, 3])])]
        assert result == [1, 2, 3]

    def test_empty_buckets_are_skipped(self):
        result = [e.key for e in ordered_scan([[], stream([2, 1]), []])]
        assert result == [1, 2]

    def test_tuple_keys(self):
        left = [Entry(key=(1, 2), value="a", seqnum=1), Entry(key=(2, 1), value="b", seqnum=2)]
        right = [Entry(key=(1, 3), value="c", seqnum=3)]
        result = [e.key for e in ordered_scan([left, right])]
        assert result == [(1, 2), (1, 3), (2, 1)]


class TestDispatchAndCost:
    def test_merge_comparisons_zero_for_single_bucket(self):
        assert estimate_merge_comparisons(1, 10_000) == 0
        assert estimate_merge_comparisons(4, 0) == 0

    def test_merge_comparisons_grow_with_bucket_count(self):
        few = estimate_merge_comparisons(4, 10_000)
        many = estimate_merge_comparisons(16, 10_000)
        assert many > few > 0
