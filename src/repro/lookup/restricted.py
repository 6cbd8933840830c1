"""Resuming a lookup below a clue — the §4 adaptations.

When a clue entry's Ptr field is non-empty the receiving router must search
for a match longer than the clue ``s``.  The paper shows how to adapt each
baseline to this *restricted* search:

* **trie / Patricia** — walk down from the clue vertex; with the Advance
  method the walk holds the set of vertices where Claim 1 fails, and halts
  at the first vertex outside it ("stop here"): nothing better can exist
  below it.
* **binary / 6-way** — the candidate prefixes form the potential set
  ``P(s, R1)`` (Condition C1); when small it rides in the clue entry's
  cache line and costs *zero* extra references, otherwise a (B-way) binary
  search over its range segments runs as usual.
* **Log W** — a binary search over only the lengths present in the
  potential set, bounded by its min/max length.

A continuation returns ``None`` when nothing longer than the clue matches;
the caller then falls back to the entry's FD field.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Set, Tuple

from repro.addressing import Address, Prefix
from repro.lookup.binary_range import RangeTable
from repro.lookup.counters import CACHE_LINE_PREFIXES, MemoryCounter
from repro.lookup.logw import LengthTables
from repro.trie.binary_trie import BinaryTrie
from repro.trie.node import TrieNode
from repro.trie.patricia import PatriciaTrie

Match = Optional[Tuple[Prefix, object]]


class Continuation(abc.ABC):
    """A precomputed resumed-search object stored in a clue entry's Ptr."""

    __slots__ = ()

    @abc.abstractmethod
    def search(self, address: Address, counter: MemoryCounter) -> Match:
        """Look for a match longer than the clue; None if there is none."""


class TrieContinuation(Continuation):
    """Bit-by-bit walk below the clue vertex (Regular adaptation).

    ``problematic`` is the Advance method's set of vertices where Claim 1
    fails: the walk stops at the first vertex outside it.  The Simple
    method passes None and walks until the path runs out.
    """

    __slots__ = ("start", "width", "problematic")

    def __init__(
        self,
        start: TrieNode,
        width: int,
        problematic: Optional[Set[Prefix]] = None,
    ):
        self.start = start
        self.width = width
        self.problematic = problematic

    def search(self, address: Address, counter: MemoryCounter) -> Match:
        node = self.start
        best: Match = None
        for index in range(node.prefix.length, self.width):
            node = node.children.get(address.bit(index))
            if node is None:
                break
            counter.touch()
            if node.marked:
                best = (node.prefix, node.next_hop)
            if self.problematic is not None and node.prefix not in self.problematic:
                break
        return best


class PatriciaContinuation(Continuation):
    """Compressed walk below the clue (Patricia adaptation).

    The clue may fall in the middle of a compressed edge; ``entry`` is then
    the vertex hanging below that edge and is charged as the first visited
    vertex.  When the clue is an exact vertex, ``entry`` is that vertex and
    is *not* charged (the clue entry's Ptr already holds its record).
    ``problematic`` stops the walk as in :class:`TrieContinuation`.
    """

    __slots__ = ("entry", "entry_is_clue_vertex", "clue", "width", "problematic")

    def __init__(
        self,
        entry: TrieNode,
        entry_is_clue_vertex: bool,
        clue: Prefix,
        width: int,
        problematic: Optional[Set[Prefix]] = None,
    ):
        self.entry = entry
        self.entry_is_clue_vertex = entry_is_clue_vertex
        self.clue = clue
        self.width = width
        self.problematic = problematic

    def search(self, address: Address, counter: MemoryCounter) -> Match:
        best: Match = None
        node = self.entry
        if not self.entry_is_clue_vertex:
            counter.touch()
            if not node.prefix.matches(address):
                return None
            if node.marked:
                best = (node.prefix, node.next_hop)
            if self.problematic is not None and node.prefix not in self.problematic:
                return best
        while node.prefix.length < self.width:
            child = node.children.get(address.bit(node.prefix.length))
            if child is None:
                break
            counter.touch()
            if not child.prefix.matches(address):
                break
            if child.marked:
                best = (child.prefix, child.next_hop)
            if self.problematic is not None and child.prefix not in self.problematic:
                break
            node = child
        return best


class SetContinuation(Continuation):
    """(B-way) binary search over the potential set (binary/6-way adaptation).

    Sets of at most :data:`CACHE_LINE_PREFIXES` prefixes live in the clue
    entry's own cache line and cost no extra references.
    """

    __slots__ = ("candidates", "width", "branching", "inline", "ranges")

    def __init__(
        self,
        candidates: List[Tuple[Prefix, object]],
        width: int,
        branching: int = 2,
        inline_capacity: int = CACHE_LINE_PREFIXES,
    ):
        if not candidates:
            raise ValueError("a continuation needs a non-empty candidate set")
        self.candidates = sorted(
            candidates, key=lambda item: (item[0].length, item[0].bits)
        )
        self.width = width
        self.branching = branching
        self.inline = len(self.candidates) <= inline_capacity
        self.ranges = None if self.inline else RangeTable(self.candidates, width)

    def search(self, address: Address, counter: MemoryCounter) -> Match:
        if self.inline:
            best: Match = None
            for prefix, next_hop in self.candidates:
                if prefix.matches(address):
                    best = (prefix, next_hop)
            return best
        if self.branching <= 2:
            prefix, next_hop = self.ranges.locate_binary(address, counter)
        else:
            prefix, next_hop = self.ranges.locate_multiway(
                address, counter, self.branching
            )
        if prefix is None:
            return None
        return (prefix, next_hop)


class LengthContinuation(Continuation):
    """Binary search over the potential set's lengths (Log W adaptation)."""

    __slots__ = ("levels",)

    def __init__(self, candidates: List[Tuple[Prefix, object]], width: int):
        if not candidates:
            raise ValueError("a continuation needs a non-empty candidate set")
        self.levels = LengthTables(candidates, width)

    def search(self, address: Address, counter: MemoryCounter) -> Match:
        prefix, next_hop = self.levels.search(address, counter)
        if prefix is None:
            return None
        return (prefix, next_hop)


def subtree_candidates(
    trie: BinaryTrie, clue: Prefix
) -> List[Tuple[Prefix, object]]:
    """All marked prefixes strictly below ``clue`` (Simple method's set)."""
    top = trie.find_node(clue)
    if top is None:
        return []
    return [
        (node.prefix, node.next_hop)
        for node in top.descendants()
        if node.marked
    ]


def locate_patricia_entry(
    patricia: PatriciaTrie, clue: Prefix
) -> Optional[Tuple[TrieNode, bool]]:
    """Entry point for a Patricia continuation below ``clue``.

    Returns ``(vertex, is_clue_vertex)`` — the vertex to resume from and
    whether it *is* the clue (so its record is already in the clue entry) —
    or None when nothing in the Patricia trie extends the clue.
    """
    below, above = patricia.locate(clue)
    if below.prefix == clue:
        if not below.children:
            return None
        return below, True
    if above is not None:
        return above, False
    return None
