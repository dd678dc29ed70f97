"""An in-memory B+tree, the structure behind ``BtreeFile``.

The paper's ReDe prototype builds "local secondary indexes on the date
columns ... and global indexes for each foreign key", all B-tree shaped.
This is a textbook B+tree:

* unique keys in the tree, each holding a *list* of values (so secondary
  indexes with duplicate keys need no special casing);
* leaves are chained for ordered range scans;
* insertion with node splits (entries are never deleted in place:
  upserts kill them through delta-run tombstones and compaction rebuilds
  the tree);
* :meth:`BPlusTree.bulk_load` builds a packed tree from sorted pairs;
* :meth:`BPlusTree.check_invariants` verifies the full B+tree contract and
  is exercised heavily by the property-based tests.

Keys must be mutually comparable (the library uses plain values or tuples).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Optional

from repro.errors import StorageError

__all__ = ["BPlusTree"]


def _even_groups(total: int, target: int, cap_min: int,
                 cap_max: int) -> list[int]:
    """Split ``total`` items into group sizes near ``target``.

    Every group size lands in ``[cap_min, cap_max]`` whenever
    ``total >= cap_min``; a smaller total yields a single (root-exempt)
    group.  Sizes differ by at most one, which is what makes bulk-loaded
    trees satisfy the occupancy invariants at every level.
    """
    if total == 0:
        return []
    n_min = -(-total // cap_max)  # ceil
    n_max = total // cap_min if total >= cap_min else 1
    n = -(-total // target)
    n = max(n_min, min(n, max(n_min, n_max)))
    base, remainder = divmod(total, n)
    return [base + 1] * remainder + [base] * (n - remainder)


class _Leaf:
    __slots__ = ("keys", "values", "next", "page")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[list[Any]] = []
        self.next: Optional["_Leaf"] = None
        #: page number for cache identity, assigned on first traversal
        self.page: Optional[int] = None

    is_leaf = True


class _Internal:
    __slots__ = ("keys", "children", "page")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.children: list[Any] = []
        self.page: Optional[int] = None

    is_leaf = False


class BPlusTree:
    """A B+tree mapping comparable keys to lists of values.

    Args:
        order: maximum number of children of an internal node; leaves hold at
            most ``order - 1`` keys.  Small orders make splits easy to
            exercise in tests; the storage layer defaults to a realistic 64.
    """

    def __init__(self, order: int = 64) -> None:
        if order < 3:
            raise StorageError(f"B+tree order must be >= 3, got {order}")
        self.order = order
        self._root: Any = _Leaf()
        self._height = 1
        self._num_keys = 0
        self._num_values = 0
        self._next_page_no = 0

    # -- capacities ------------------------------------------------------

    @property
    def _max_keys(self) -> int:
        return self.order - 1

    @property
    def _min_keys(self) -> int:
        # Non-root nodes must stay at least half full.
        return self._max_keys // 2

    # -- public metadata -------------------------------------------------

    def __len__(self) -> int:
        """Number of stored *values* (duplicates counted)."""
        return self._num_values

    @property
    def num_keys(self) -> int:
        """Number of distinct keys."""
        return self._num_keys

    @property
    def height(self) -> int:
        """Levels from root to leaf, inclusive (1 for a lone leaf)."""
        return self._height

    # -- search ----------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def search(self, key: Any) -> list[Any]:
        """Return all values stored under ``key`` (empty list if absent)."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def __contains__(self, key: Any) -> bool:
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        return index < len(leaf.keys) and leaf.keys[index] == key

    def range(self, low: Any = None, high: Any = None,
              inclusive_low: bool = True,
              inclusive_high: bool = True) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with key in the requested range.

        ``None`` bounds are open ends.  Duplicate values under one key are
        yielded individually, in insertion order.
        """
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            index = 0
        else:
            leaf = self._find_leaf(low)
            index = (bisect.bisect_left(leaf.keys, low) if inclusive_low
                     else bisect.bisect_right(leaf.keys, low))
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if high is not None:
                    if key > high or (key == high and not inclusive_high):
                        return
                for value in leaf.values[index]:
                    yield key, value
                index += 1
            leaf = leaf.next
            index = 0

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All ``(key, value)`` pairs in key order."""
        return self.range()

    def keys(self) -> Iterator[Any]:
        """All distinct keys in order."""
        leaf: Optional[_Leaf] = self._leftmost_leaf()
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    # -- page traversal (cache identity) ---------------------------------

    def _page_no(self, node: Any) -> int:
        """Stable page number of a tree node, assigned on first traversal.

        Numbers live on the nodes themselves, so they survive splits
        and stay unique for the lifetime of the tree; allocation order
        follows probe order, which is deterministic for a deterministic
        workload.
        """
        if node.page is None:
            node.page = self._next_page_no
            self._next_page_no += 1
        return node.page

    def point_traversal_pages(self, key: Any) -> tuple[list[int], list[int]]:
        """``(interior_pages, leaf_pages)`` an equality probe of ``key``
        touches: the root-to-leaf path plus the single candidate leaf."""
        interior: list[int] = []
        node = self._root
        while not node.is_leaf:
            interior.append(self._page_no(node))
            node = node.children[bisect.bisect_right(node.keys, key)]
        return interior, [self._page_no(node)]

    def range_traversal_pages(self, low: Any = None, high: Any = None,
                              inclusive_low: bool = True,
                              inclusive_high: bool = True
                              ) -> tuple[list[int], list[int]]:
        """``(interior_pages, leaf_pages)`` a range probe touches.

        Mirrors :meth:`range`: the interior path descends toward ``low``
        (or the leftmost leaf), then the leaf chain is followed until a key
        beyond ``high`` proves the scan is done — a leaf is counted as soon
        as it must be read, including the one that terminates the scan.
        """
        interior: list[int] = []
        node = self._root
        while not node.is_leaf:
            interior.append(self._page_no(node))
            if low is None:
                node = node.children[0]
            else:
                node = node.children[bisect.bisect_right(node.keys, low)]
        leaf: _Leaf = node
        leaves = [self._page_no(leaf)]
        index = (0 if low is None
                 else bisect.bisect_left(leaf.keys, low) if inclusive_low
                 else bisect.bisect_right(leaf.keys, low))
        while True:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if high is not None and (
                        key > high or (key == high and not inclusive_high)):
                    return interior, leaves
                index += 1
            if leaf.next is None:
                return interior, leaves
            leaf = leaf.next
            leaves.append(self._page_no(leaf))
            index = 0

    def all_pages(self) -> tuple[list[int], list[int]]:
        """``(interior_pages, leaf_pages)`` of the whole tree, breadth-first.

        Assigns page numbers to any node not yet traversed, so the result
        enumerates every page the tree would ever expose to the cache —
        the scrub worker's sampling universe.
        """
        interior: list[int] = []
        leaves: list[int] = []
        frontier: list[Any] = [self._root]
        while frontier:
            next_frontier: list[Any] = []
            for node in frontier:
                if node.is_leaf:
                    leaves.append(self._page_no(node))
                else:
                    interior.append(self._page_no(node))
                    next_frontier.extend(node.children)
            frontier = next_frontier
        return interior, leaves

    # -- insertion -------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert one value under ``key`` (duplicates accumulate)."""
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1

    def _insert(self, node: Any, key: Any,
                value: Any) -> Optional[tuple[Any, Any]]:
        """Recursive insert; returns ``(separator, new_right_sibling)`` on
        split, else None."""
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index].append(value)
                self._num_values += 1
                return None
            node.keys.insert(index, key)
            node.values.insert(index, [value])
            self._num_keys += 1
            self._num_values += 1
            if len(node.keys) <= self._max_keys:
                return None
            return self._split_leaf(node)

        index = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) <= self._max_keys:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        del leaf.keys[middle:]
        del leaf.values[middle:]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> tuple[Any, _Internal]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        del node.keys[middle:]
        del node.children[middle + 1:]
        return separator, right

    # -- bulk loading ----------------------------------------------------

    @classmethod
    def bulk_load(cls, pairs: Iterable[tuple[Any, Any]],
                  order: int = 64, fill: float = 0.9) -> "BPlusTree":
        """Build a tree from ``(key, value)`` pairs sorted by key.

        Consecutive equal keys collapse into one duplicate bucket.  ``fill``
        controls target leaf packing (0 < fill <= 1); nodes at every level
        are *evenly* distributed around the target so the result always
        satisfies the B+tree occupancy invariants.
        """
        if not 0 < fill <= 1:
            raise StorageError(f"fill factor must be in (0, 1], got {fill}")
        tree = cls(order=order)

        keys: list[Any] = []
        buckets: list[list[Any]] = []
        sentinel = object()
        previous_key: Any = sentinel
        bucket: list[Any] = []
        for key, value in pairs:
            # No key equals the sentinel: the first pair always opens a
            # bucket.
            if key == previous_key:
                bucket.append(value)
                continue
            if previous_key is not sentinel and key < previous_key:
                raise StorageError("bulk_load input must be sorted by key")
            bucket = [value]
            keys.append(key)
            buckets.append(bucket)
            previous_key = key
        tree._num_keys = len(keys)
        tree._num_values = sum(map(len, buckets))

        # Leaves: even split with per-leaf target around fill * max_keys.
        target = max(1, min(tree._max_keys, round(tree._max_keys * fill)))
        groups = _even_groups(len(keys), target,
                              max(1, tree._min_keys), tree._max_keys)
        leaves: list[_Leaf] = []
        start = 0
        for size in groups:
            leaf = _Leaf()
            leaf.keys = keys[start:start + size]
            leaf.values = buckets[start:start + size]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
            start += size
        if not leaves:
            leaves.append(_Leaf())

        level: list[Any] = leaves
        height = 1
        child_target = max(2, min(tree.order, round(tree.order * fill)))
        while len(level) > 1:
            level = tree._build_internal_level(level, child_target)
            height += 1
        tree._root = level[0]
        tree._height = height
        return tree

    @staticmethod
    def _first_key(node: Any) -> Any:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    def _build_internal_level(self, children: list[Any],
                              child_target: int) -> list[Any]:
        groups = _even_groups(len(children), child_target,
                              self._min_keys + 1, self.order)
        nodes: list[_Internal] = []
        start = 0
        for size in groups:
            node = _Internal()
            node.children = children[start:start + size]
            node.keys = [self._first_key(child)
                         for child in node.children[1:]]
            nodes.append(node)
            start += size
        return nodes

    # -- validation ------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the full B+tree contract; raises StorageError on violation.

        Checks: sorted keys everywhere, key-count bounds, uniform leaf depth,
        separator correctness (every key in child ``i`` lies within the
        separators around it), intact leaf chain, and accurate counters.
        """
        leaves: list[_Leaf] = []
        self._check_node(self._root, depth=1, low=None, high=None,
                         is_root=True, leaves=leaves)
        chained = []
        node = self._leftmost_leaf()
        while node is not None:
            chained.append(node)
            node = node.next
        if chained != leaves:
            raise StorageError("leaf chain does not match tree order")
        num_keys = sum(len(leaf.keys) for leaf in leaves)
        num_values = sum(len(bucket) for leaf in leaves
                         for bucket in leaf.values)
        if num_keys != self._num_keys:
            raise StorageError(
                f"key counter {self._num_keys} != actual {num_keys}")
        if num_values != self._num_values:
            raise StorageError(
                f"value counter {self._num_values} != actual {num_values}")

    def _check_node(self, node: Any, depth: int, low: Any, high: Any,
                    is_root: bool, leaves: list[_Leaf]) -> int:
        keys = node.keys
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise StorageError(f"unsorted keys in node: {keys}")
        for key in keys:
            if low is not None and key < low:
                raise StorageError(f"key {key!r} below separator {low!r}")
            if high is not None and key >= high:
                raise StorageError(f"key {key!r} not below separator {high!r}")
        if node.is_leaf:
            if not is_root and len(keys) < self._min_keys:
                raise StorageError(
                    f"underfull leaf: {len(keys)} < {self._min_keys}")
            if len(keys) > self._max_keys:
                raise StorageError("overfull leaf")
            if len(node.values) != len(keys):
                raise StorageError("leaf keys/values length mismatch")
            if any(not bucket for bucket in node.values):
                raise StorageError("empty duplicate bucket in leaf")
            if depth != self._height:
                raise StorageError(
                    f"leaf at depth {depth}, expected {self._height}")
            leaves.append(node)
            return depth
        if not is_root and len(keys) < self._min_keys:
            raise StorageError(
                f"underfull internal node: {len(keys)} < {self._min_keys}")
        if len(keys) > self._max_keys:
            raise StorageError("overfull internal node")
        if len(node.children) != len(keys) + 1:
            raise StorageError("internal node children/keys mismatch")
        if is_root and len(node.children) < 2:
            raise StorageError("internal root must have >= 2 children")
        depths = set()
        bounds = [low] + list(keys) + [high]
        for i, child in enumerate(node.children):
            depths.add(self._check_node(child, depth + 1, bounds[i],
                                        bounds[i + 1], False, leaves))
        if len(depths) != 1:
            raise StorageError("leaves at differing depths")
        return depths.pop()
