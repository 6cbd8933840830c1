"""On-the-fly construction of the clues table (§3.3.1).

The paper's preferred deployment story: routers start with an *empty*
clues table and learn records as clues arrive.  Two techniques:

* **Learning the hash table** — hash the 5-bit clue (plus destination
  prefix) into the table; a mismatching or missing record triggers a full
  lookup and the record is (re)built.  Uses only the 5 header bits.  This
  is :class:`repro.core.lookup.ClueAssistedLookup` given a ``builder``.
* **Indexing technique** — the sender enumerates its clues and stamps a
  16-bit index on each packet; the receiver keeps a flat array and
  overwrites any slot whose stored clue disagrees.  No hash function at
  all, inherently robust, at the cost of 16 more header bits.

Both are *zero-coordination*: nothing is exchanged between the routers
beyond the packets themselves, and even the first packet of a flow is
routed correctly (it merely pays a full lookup once per new clue).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.addressing import Address, Prefix
from repro.core.lookup import Builder, resolve
from repro.core.table import IndexedClueTable
from repro.lookup.base import LookupAlgorithm
from repro.lookup.hotpath import hot_path
from repro.lookup.counters import (
    METHOD_CLUE_MISS,
    METHOD_FULL,
    LookupResult,
    MemoryCounter,
)


class SenderIndexAssigner:
    """The sender side of the indexing technique: clue → 16-bit index."""

    __slots__ = ("capacity", "_indices", "_next")

    def __init__(self, capacity: int = 1 << 16):
        self.capacity = capacity
        self._indices: Dict[Prefix, int] = {}
        self._next = 0

    def index_of(self, clue: Prefix) -> int:
        """Sequentially enumerate clues; recycle slots when full."""
        index = self._indices.get(clue)
        if index is None:
            index = self._next % self.capacity
            self._indices[clue] = index
            self._next += 1
        return index

    def assigned(self) -> int:
        """Number of clues enumerated so far."""
        return len(self._indices)


class IndexedClueLookup:
    """Array variant: the packet carries the sender-assigned 16-bit index."""

    __slots__ = ("base", "builder", "table", "hits", "misses")

    def __init__(
        self,
        base: LookupAlgorithm,
        builder: Builder,
        capacity: int = 1 << 16,
    ):
        self.base = base
        self.builder = builder
        self.table = IndexedClueTable(capacity)
        self.hits = 0
        self.misses = 0

    @hot_path
    def lookup(
        self,
        address: Address,
        clue: Optional[Prefix] = None,
        index: Optional[int] = None,
        counter: Optional[MemoryCounter] = None,
    ) -> LookupResult:
        """Route one packet; a disagreeing slot is overwritten in place."""
        counter = counter if counter is not None else MemoryCounter()
        if clue is None or index is None:
            counter.method = METHOD_FULL
            result = self.base.lookup(address, counter)
            result.method = METHOD_FULL
            return result
        entry = self.table.probe(index, clue, counter)
        if entry is None:
            self.misses += 1
            counter.method = METHOD_CLUE_MISS
            result = self.base.lookup(address, counter)
            result.method = METHOD_CLUE_MISS
            self.table.store(index, self.builder.build_entry(clue))
            return result
        self.hits += 1
        prefix, next_hop = resolve(entry, address, counter)
        return LookupResult(prefix, next_hop, counter.accesses, counter.method)

    def hit_rate(self) -> float:
        """Fraction of indexed packets that hit an agreeing slot."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
