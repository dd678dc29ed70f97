"""Unit tests for the B+tree."""

import pytest

from repro.errors import StorageError
from repro.storage.btree import BPlusTree, _even_groups


@pytest.fixture
def small_tree():
    """Order-4 tree: splits trigger quickly."""
    return BPlusTree(order=4)


class TestBasics:
    def test_empty_tree(self, small_tree):
        assert len(small_tree) == 0
        assert small_tree.num_keys == 0
        assert small_tree.height == 1
        assert small_tree.search(1) == []
        assert 1 not in small_tree
        assert list(small_tree.items()) == []
        small_tree.check_invariants()

    def test_single_insert_and_search(self, small_tree):
        small_tree.insert(5, "a")
        assert small_tree.search(5) == ["a"]
        assert 5 in small_tree
        assert len(small_tree) == 1

    def test_order_below_three_rejected(self):
        with pytest.raises(StorageError):
            BPlusTree(order=2)

    def test_duplicates_accumulate_in_order(self, small_tree):
        small_tree.insert(5, "a")
        small_tree.insert(5, "b")
        small_tree.insert(5, "c")
        assert small_tree.search(5) == ["a", "b", "c"]
        assert small_tree.num_keys == 1
        assert len(small_tree) == 3

    def test_many_inserts_stay_sorted(self, small_tree):
        import random

        rng = random.Random(7)
        keys = list(range(200))
        rng.shuffle(keys)
        for key in keys:
            small_tree.insert(key, key * 10)
        small_tree.check_invariants()
        assert [k for k, _ in small_tree.items()] == list(range(200))
        assert small_tree.height > 1

    def test_string_keys(self, small_tree):
        for word in ["pear", "apple", "mango", "fig"]:
            small_tree.insert(word, word.upper())
        assert [k for k, _ in small_tree.items()] == [
            "apple", "fig", "mango", "pear"]

    def test_tuple_keys(self, small_tree):
        small_tree.insert((1, "b"), 1)
        small_tree.insert((1, "a"), 2)
        small_tree.insert((0, "z"), 3)
        assert [k for k, _ in small_tree.items()] == [
            (0, "z"), (1, "a"), (1, "b")]


class TestRange:
    @pytest.fixture
    def populated(self, small_tree):
        for key in range(0, 100, 2):  # even keys 0..98
            small_tree.insert(key, f"v{key}")
        return small_tree

    def test_inclusive_range(self, populated):
        result = [k for k, _ in populated.range(10, 20)]
        assert result == [10, 12, 14, 16, 18, 20]

    def test_exclusive_bounds(self, populated):
        result = [k for k, _ in populated.range(
            10, 20, inclusive_low=False, inclusive_high=False)]
        assert result == [12, 14, 16, 18]

    def test_open_low(self, populated):
        result = [k for k, _ in populated.range(None, 6)]
        assert result == [0, 2, 4, 6]

    def test_open_high(self, populated):
        result = [k for k, _ in populated.range(94, None)]
        assert result == [94, 96, 98]

    def test_bounds_between_keys(self, populated):
        result = [k for k, _ in populated.range(9, 15)]
        assert result == [10, 12, 14]

    def test_empty_range(self, populated):
        assert list(populated.range(200, 300)) == []
        assert list(populated.range(11, 11)) == []

    def test_range_yields_duplicates(self, small_tree):
        small_tree.insert(1, "a")
        small_tree.insert(1, "b")
        small_tree.insert(2, "c")
        assert list(small_tree.range(1, 2)) == [(1, "a"), (1, "b"), (2, "c")]

    def test_keys_iterator(self, populated):
        assert list(populated.keys()) == list(range(0, 100, 2))


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self):
        pairs = [(i, f"v{i}") for i in range(500)]
        loaded = BPlusTree.bulk_load(pairs, order=8)
        loaded.check_invariants()
        assert list(loaded.items()) == pairs
        assert loaded.num_keys == 500

    def test_bulk_load_empty(self):
        tree = BPlusTree.bulk_load([], order=8)
        tree.check_invariants()
        assert len(tree) == 0

    def test_bulk_load_single_pair(self):
        tree = BPlusTree.bulk_load([(1, "a")], order=8)
        tree.check_invariants()
        assert tree.search(1) == ["a"]

    def test_bulk_load_duplicates_collapse(self):
        pairs = [(1, "a"), (1, "b"), (2, "c")]
        tree = BPlusTree.bulk_load(pairs, order=8)
        assert tree.search(1) == ["a", "b"]
        assert tree.num_keys == 2
        assert len(tree) == 3

    def test_bulk_load_rejects_unsorted(self):
        with pytest.raises(StorageError):
            BPlusTree.bulk_load([(2, "a"), (1, "b")])

    def test_bulk_load_rejects_bad_fill(self):
        with pytest.raises(StorageError):
            BPlusTree.bulk_load([], fill=0.0)
        with pytest.raises(StorageError):
            BPlusTree.bulk_load([], fill=1.5)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 63, 64, 65, 1000])
    @pytest.mark.parametrize("fill", [0.5, 0.9, 1.0])
    def test_bulk_load_sizes_and_fills(self, count, fill):
        pairs = [(i, i) for i in range(count)]
        tree = BPlusTree.bulk_load(pairs, order=6, fill=fill)
        tree.check_invariants()
        assert list(tree.keys()) == list(range(count))

    def test_inserts_after_bulk_load(self):
        tree = BPlusTree.bulk_load([(i * 2, i) for i in range(100)], order=6)
        for i in range(100):
            tree.insert(i * 2 + 1, -i)
        tree.check_invariants()
        assert list(tree.keys()) == list(range(200))


def test_even_groups_bounds():
    for total in range(0, 200):
        groups = _even_groups(total, target=5, cap_min=3, cap_max=7)
        assert sum(groups) == total
        if total >= 3:
            assert all(3 <= g <= 7 for g in groups)
        elif total > 0:
            assert len(groups) == 1
    assert _even_groups(0, 5, 3, 7) == []
