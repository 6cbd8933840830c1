""""Regular" lookup: bit-by-bit scan of the binary trie.

This is the paper's baseline (1): walk the destination address bit by bit
down the radix trie, remembering the last marked vertex.  Worst case is
O(W) memory references (W = 32 for IPv4); the empirical average on
backbone-sized tables is in the low twenties, which is what makes the
clue methods' ≈1 reference such a large win.
"""

from __future__ import annotations

from typing import Optional

from repro.addressing import Address
from repro.lookup.base import LookupAlgorithm, sorted_entries
from repro.lookup.counters import LookupResult, MemoryCounter
from repro.trie.binary_trie import BinaryTrie


class RegularTrieLookup(LookupAlgorithm):
    """Bit-by-bit binary-trie lookup (one reference per vertex visited)."""

    name = "regular"

    @classmethod
    def over_trie(cls, trie: BinaryTrie, entries) -> "RegularTrieLookup":
        """A lookup that walks ``trie``, already built from ``entries``.

        Nothing is inserted a second time.  The trie stays shared with
        whoever built it (a ``ReceiverState``, say), so route changes
        go through one of the two, not both.
        """
        lookup = cls.__new__(cls)
        lookup.width = trie.width
        lookup._entries = sorted_entries(entries)
        lookup.trie = trie
        return lookup

    def _build(self) -> None:
        self.trie = BinaryTrie(self.width)
        for prefix, next_hop in self._entries:
            self.trie.insert(prefix, next_hop)

    def _patch(self, added, removed) -> None:
        # Removal prunes emptied vertices, so the trie keeps the vertex
        # set of a fresh build over the merged table.
        for prefix in removed:
            self.trie.remove(prefix)
        for prefix, next_hop in added:
            self.trie.insert(prefix, next_hop)

    def lookup(
        self, address: Address, counter: Optional[MemoryCounter] = None
    ) -> LookupResult:
        counter = counter if counter is not None else MemoryCounter()
        node = self.trie.root
        counter.touch()
        best = node if node.marked else None
        value = address.value
        for shift in range(self.width - 1, -1, -1):
            node = node.children.get((value >> shift) & 1)
            if node is None:
                break
            counter.touch()
            if node.marked:
                best = node
        if best is None:
            return self._result(None, None, counter)
        return self._result(best.prefix, best.next_hop, counter)
