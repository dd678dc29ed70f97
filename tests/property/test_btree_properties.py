"""Property-based tests for the B+tree against a dict-of-lists model."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.btree import BPlusTree

keys = st.integers(min_value=-50, max_value=50)
orders = st.integers(min_value=3, max_value=12)


@given(st.lists(st.tuples(keys, st.integers())), orders)
def test_insert_matches_model(pairs, order):
    tree = BPlusTree(order=order)
    model = defaultdict(list)
    for key, value in pairs:
        tree.insert(key, value)
        model[key].append(value)
    tree.check_invariants()
    assert tree.num_keys == len(model)
    assert len(tree) == sum(len(v) for v in model.values())
    for key, values in model.items():
        assert tree.search(key) == values
    expected = [(k, v) for k in sorted(model) for v in model[k]]
    assert list(tree.items()) == expected


@given(st.lists(st.tuples(keys, st.integers())), orders,
       st.floats(min_value=0.3, max_value=1.0))
def test_bulk_load_equals_incremental(pairs, order, fill):
    pairs = sorted(pairs, key=lambda pair: pair[0])
    loaded = BPlusTree.bulk_load(pairs, order=order, fill=fill)
    loaded.check_invariants()
    incremental = BPlusTree(order=order)
    for key, value in pairs:
        incremental.insert(key, value)
    assert list(loaded.items()) == list(incremental.items())


@given(st.lists(keys, unique=True), keys, keys, orders)
def test_range_matches_sorted_filter(insert_keys, low, high, order):
    low, high = min(low, high), max(low, high)
    tree = BPlusTree(order=order)
    for key in insert_keys:
        tree.insert(key, key)
    got = [k for k, _ in tree.range(low, high)]
    assert got == sorted(k for k in insert_keys if low <= k <= high)


class BTreeMachine(RuleBasedStateMachine):
    """Stateful fuzz: arbitrary interleavings of inserts and searches keep
    invariants intact."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model = defaultdict(list)
        self.counter = 0

    @rule(key=keys)
    def insert(self, key):
        self.counter += 1
        self.tree.insert(key, self.counter)
        self.model[key].append(self.counter)

    @rule(key=keys)
    def search(self, key):
        assert self.tree.search(key) == self.model.get(key, [])

    @invariant()
    def tree_is_valid(self):
        self.tree.check_invariants()
        assert self.tree.num_keys == len(self.model)


TestBTreeStateMachine = BTreeMachine.TestCase
TestBTreeStateMachine.settings = settings(max_examples=30,
                                          stateful_step_count=40,
                                          deadline=None)
