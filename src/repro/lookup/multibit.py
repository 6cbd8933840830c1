"""Stride-k multibit trie — the "different jumps" technique ([24] in §2).

Controlled prefix expansion: prefixes are expanded to the next multiple
of the stride and stored in nodes of 2^stride slots, so a lookup walks
``ceil(W / stride)`` nodes at most — one memory reference per node, the
classical time/space trade against the bit-by-bit trie.

This is the reproduction's sixth baseline (the paper's §4 notes the clue
method composes with "one of the techniques suggested in [26, 11, 24]");
:class:`MultibitContinuation` is the corresponding restricted search that
resumes below a clue.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.addressing import Address, Prefix
from repro.lookup.base import LookupAlgorithm, TableEntries
from repro.lookup.counters import LookupResult, MemoryCounter
from repro.lookup.restricted import Continuation, Match

DEFAULT_STRIDE = 4


class _MultibitNode:
    """One node: 2^stride slots, each holding a BMP and a child pointer."""

    __slots__ = ("bmp", "children")

    def __init__(self, fanout: int):
        #: per-slot best matching (prefix, next_hop) seen up to this node.
        self.bmp: List[Optional[Tuple[Prefix, object]]] = [None] * fanout
        self.children: List[Optional["_MultibitNode"]] = [None] * fanout


class MultibitTrie:
    """A stride-k expanded trie over one forwarding table."""

    def __init__(self, stride: int = DEFAULT_STRIDE, width: int = 32):
        if stride < 1:
            raise ValueError("stride must be at least 1")
        if width % stride:
            raise ValueError(
                "stride %d does not divide the address width %d" % (stride, width)
            )
        self.stride = stride
        self.width = width
        self.fanout = 1 << stride
        self.root = _MultibitNode(self.fanout)
        self._size = 0

    def insert(self, prefix: Prefix, next_hop: object) -> None:
        """Insert a prefix, expanding it within its final node."""
        node = self.root
        depth = 0
        while prefix.length - depth > self.stride:
            chunk = (prefix.bits >> (prefix.length - depth - self.stride)) & (
                self.fanout - 1
            )
            child = node.children[chunk]
            if child is None:
                child = _MultibitNode(self.fanout)
                node.children[chunk] = child
            node = child
            depth += self.stride
        # Expand the remaining bits (possibly zero) across the node's slots.
        remaining = prefix.length - depth
        head = (prefix.bits & ((1 << remaining) - 1)) if remaining else 0
        free_bits = self.stride - remaining
        for filler in range(1 << free_bits):
            slot = (head << free_bits) | filler
            current = node.bmp[slot]
            if current is None or current[0].length <= prefix.length:
                node.bmp[slot] = (prefix, next_hop)
        self._size += 1

    def lookup_from(
        self,
        address: Address,
        counter: MemoryCounter,
        start: Optional[_MultibitNode] = None,
        start_depth: int = 0,
        best: Optional[Tuple[Prefix, object]] = None,
    ) -> Optional[Tuple[Prefix, object]]:
        """Walk from ``start`` (default root), one reference per node."""
        node = self.root if start is None else start
        depth = start_depth
        while node is not None and depth < self.width:
            counter.touch()
            chunk = address.leading_bits(depth + self.stride) & (self.fanout - 1)
            slot_best = node.bmp[chunk]
            if slot_best is not None:
                if best is None or slot_best[0].length > best[0].length:
                    best = slot_best
            node = node.children[chunk]
            depth += self.stride
        return best

    def node_at(self, prefix: Prefix) -> Optional[Tuple[_MultibitNode, int]]:
        """The node whose subtree covers ``prefix``, with its depth.

        Returns the deepest node at a stride boundary at or above the
        prefix; the continuation resumes the walk there.
        """
        node = self.root
        depth = 0
        while depth + self.stride <= prefix.length:
            chunk = (prefix.bits >> (prefix.length - depth - self.stride)) & (
                self.fanout - 1
            )
            child = node.children[chunk]
            if child is None:
                return None
            node = child
            depth += self.stride
        return node, depth

    def __len__(self) -> int:
        return self._size


class MultibitTrieLookup(LookupAlgorithm):
    """Stride-k multibit-trie lookup [24]."""

    name = "multibit"

    def __init__(self, entries: TableEntries, width: int = 32, stride: int = DEFAULT_STRIDE):
        self.stride = stride
        super().__init__(entries, width)

    def _build(self) -> None:
        self.trie = MultibitTrie(self.stride, self.width)
        for prefix, next_hop in self._entries:
            self.trie.insert(prefix, next_hop)

    def lookup(
        self, address: Address, counter: Optional[MemoryCounter] = None
    ) -> LookupResult:
        counter = counter if counter is not None else MemoryCounter()
        best = self.trie.lookup_from(address, counter)
        if best is None:
            return self._result(None, None, counter)
        return self._result(best[0], best[1], counter)


class MultibitContinuation(Continuation):
    """Resume a multibit walk below a clue (§4 adaptation of [24]).

    The walk restarts at the deepest stride-aligned node covering the
    clue; matches shorter than the clue are discarded (the FD field
    already covers them), so the continuation only reports strictly
    longer matches, like its siblings.  ``start`` is that node and its
    depth, ``trie.node_at(clue)``, when the caller has already found it.
    """

    def __init__(
        self,
        trie: MultibitTrie,
        clue: Prefix,
        start: Optional[Tuple[_MultibitNode, int]] = None,
    ):
        located = start if start is not None else trie.node_at(clue)
        if located is None:
            raise ValueError("clue %s has no covering multibit node" % clue)
        self.trie = trie
        self.clue = clue
        self.node, self.depth = located

    def search(self, address: Address, counter: MemoryCounter) -> Match:
        best = self.trie.lookup_from(
            address, counter, start=self.node, start_depth=self.depth
        )
        if best is None or best[0].length <= self.clue.length:
            return None
        if not best[0].matches(address):
            return None
        return best
