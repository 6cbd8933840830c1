"""Binary search over prefix ranges — the paper's baseline (3), ref [19].

Every prefix covers a contiguous range of addresses.  Cutting the address
line at every range boundary yields segments inside which the best matching
prefix is constant, so longest-prefix matching reduces to a binary search
for the segment containing the destination (O(log N) memory references,
one per probe; the answer rides in the final probed record for free).

The same :class:`RangeTable` also powers the 6-way variant (baseline (4)),
the clue-restricted searches over a potential set ``P(s, R1)``, and, on
the serving plane, both the audit oracle (``repro.resilience.engine``)
and the load generator's clue stamps (``repro.serve.loadgen``).  It
builds its segments from the entry list with a sort and a stack sweep,
never a trie, so the oracle shares no code with the tries it checks.
The serving plane locates whole int64 arrays of IPv4 addresses at once
with :meth:`RangeTable.locate_batch`, one ``searchsorted`` per array and
the same "rightmost start not above the address" rule as the scalar
:meth:`RangeTable.locate_binary`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.addressing import Address, Prefix
from repro.lookup.base import LookupAlgorithm, TableEntries
from repro.lookup.counters import LookupResult, MemoryCounter


class RangeTable:
    """Sorted segment array with a precomputed BMP per segment.

    Built from the raw entry list with one sort and one sweep, no trie:
    entries sorted by ``(low, length)`` open in nesting order, so a
    stack of open prefixes always holds the matches of the current
    address, deepest on top.  A segment starts at every prefix's low
    end (answered by that prefix) and one past every high end (answered
    by whatever is still open); a later entry for the same prefix
    replaces an earlier one.
    """

    def __init__(self, entries: TableEntries, width: int = 32):
        self.width = width
        top = 1 << width
        latest = {}
        for prefix, next_hop in entries:
            low, high = prefix.address_range()
            latest[(low, prefix.length)] = (high, (prefix, next_hop))
        #: segment i covers addresses [starts[i], starts[i+1]) — the last
        #: segment runs to the top of the address space.
        self.starts: List[int] = [0]
        self.answers: List[Tuple[Optional[Prefix], Optional[object]]] = [
            (None, None)
        ]
        #: ``starts`` as int64, packed by the first :meth:`locate_batch`.
        self._start_array: Optional[np.ndarray] = None
        # (high, answer) of every prefix holding the sweep point, deepest
        # last; the sentinel at ``top`` closes whatever is still open.
        holding: List[Tuple[int, Tuple[Prefix, object]]] = []
        for key in sorted(latest) + [(top, 0)]:
            low = key[0]
            while holding and holding[-1][0] < low:
                end = holding.pop()[0] + 1
                if end < top:
                    self._emit(end, holding[-1][1] if holding else (None, None))
            if low < top:
                holding.append(latest[key])
                self._emit(low, latest[key][1])

    def _emit(self, start: int, answer) -> None:
        """Open a segment at ``start``; a later one at the same start wins."""
        if self.starts[-1] == start:
            self.answers[-1] = answer
        else:
            self.starts.append(start)
            self.answers.append(answer)

    def segment_count(self) -> int:
        """Number of constant-BMP segments."""
        return len(self.starts)

    def locate_binary(
        self, address: Address, counter: MemoryCounter
    ) -> Tuple[Optional[Prefix], Optional[object]]:
        """Binary search: one memory reference per probed record.

        Finds the rightmost segment start not exceeding the address; the
        answer is stored alongside the key in the probed record, so the
        final fetch is free.
        """
        value = address.value
        lo, hi = 0, len(self.starts) - 1
        if lo == hi:
            counter.touch()
            return self.answers[lo]
        while lo < hi:
            mid = (lo + hi + 1) // 2
            counter.touch()
            if self.starts[mid] <= value:
                lo = mid
            else:
                hi = mid - 1
        return self.answers[lo]

    def locate_batch(self, values: np.ndarray) -> np.ndarray:
        """Segment index of every address in the int64 array ``values``.

        The batch twin of :meth:`locate_binary`: the rightmost segment
        start not exceeding each address, found by one ``searchsorted``
        over the starts (packed into int64 once, on first use, so IPv4
        only); ``answers[i]`` is the BMP of an address in segment ``i``.
        """
        if self._start_array is None:
            self._start_array = np.array(self.starts, dtype=np.int64)
        return np.searchsorted(self._start_array, values, side="right") - 1

    def locate_multiway(
        self, address: Address, counter: MemoryCounter, branching: int = 6
    ) -> Tuple[Optional[Prefix], Optional[object]]:
        """B-way search: each step reads one node of B-1 keys (one line).

        The candidate range shrinks by a factor of ``branching`` per memory
        reference; once at most ``branching`` candidates remain, one last
        node read resolves among them.
        """
        if branching < 2:
            raise ValueError("branching factor must be at least 2")
        value = address.value
        lo, hi = 0, len(self.starts) - 1
        while hi - lo + 1 > branching:
            counter.touch()
            span = hi - lo + 1
            step = math.ceil(span / branching)
            prev = lo
            probe = lo + step
            narrowed = False
            while probe <= hi:
                if self.starts[probe] <= value:
                    prev = probe
                    probe += step
                else:
                    lo, hi = prev, probe - 1
                    narrowed = True
                    break
            if not narrowed:
                lo = prev
        counter.touch()
        while lo < hi and self.starts[lo + 1] <= value:
            lo += 1
        return self.answers[lo]


class BinaryRangeLookup(LookupAlgorithm):
    """Binary search over range segments [19]."""

    name = "binary"

    def _build(self) -> None:
        self.ranges = RangeTable(self._entries, self.width)

    def lookup(
        self, address: Address, counter: Optional[MemoryCounter] = None
    ) -> LookupResult:
        counter = counter if counter is not None else MemoryCounter()
        prefix, next_hop = self.ranges.locate_binary(address, counter)
        return self._result(prefix, next_hop, counter)


class MultiwayRangeLookup(LookupAlgorithm):
    """B-way search over range segments [11] (default B = 6)."""

    name = "6way"

    def __init__(self, entries: TableEntries, width: int = 32, branching: int = 6):
        self.branching = branching
        super().__init__(entries, width)

    def _build(self) -> None:
        self.ranges = RangeTable(self._entries, self.width)

    def lookup(
        self, address: Address, counter: Optional[MemoryCounter] = None
    ) -> LookupResult:
        counter = counter if counter is not None else MemoryCounter()
        prefix, next_hop = self.ranges.locate_multiway(
            address, counter, self.branching
        )
        return self._result(prefix, next_hop, counter)
