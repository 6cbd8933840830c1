"""Patricia lookup: path-compressed trie walk.

The paper's baseline (2): the classical BSD radix implementation [22, 23].
Path compression makes the walk proportional to the number of *branching*
vertices on the way, not the prefix length, so it needs noticeably fewer
memory references than the plain trie on sparse regions of the address
space.
"""

from __future__ import annotations

from typing import Optional

from repro.addressing import Address
from repro.lookup.base import LookupAlgorithm
from repro.lookup.counters import LookupResult, MemoryCounter
from repro.trie.patricia import PatriciaTrie


class PatriciaLookup(LookupAlgorithm):
    """Compressed-trie lookup (one reference per vertex visited)."""

    name = "patricia"

    def _build(self) -> None:
        self.trie = PatriciaTrie(self.width)
        for prefix, next_hop in self._entries:
            self.trie.insert(prefix, next_hop)

    def _patch(self, added, removed) -> None:
        # Removal re-contracts one-way vertices, so the trie keeps the
        # vertex set of a fresh build over the merged table.
        for prefix in removed:
            self.trie.remove(prefix)
        for prefix, next_hop in added:
            self.trie.insert(prefix, next_hop)

    def lookup(
        self, address: Address, counter: Optional[MemoryCounter] = None
    ) -> LookupResult:
        counter = counter if counter is not None else MemoryCounter()
        best = None
        for node in self.trie.walk(address):
            counter.touch()
            if node.marked and node.prefix.matches(address):
                best = node
        if best is None:
            return self._result(None, None, counter)
        return self._result(best.prefix, best.next_hop, counter)
