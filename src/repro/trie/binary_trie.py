"""The plain bit-by-bit binary trie ("Regular" in the paper).

This is the classical radix-trie forwarding structure of §3.1: every vertex
represents the binary string spelled by the edges from the root, marked
vertices carry forwarding-table prefixes, and unmarked vertices with no
marked descendants are pruned.  Longest-prefix matching walks the
destination address bit by bit.

The trie is the reference structure for the whole reproduction: the clue
methods, the overlay analysis (Claim 1) and the Patricia compression are all
defined relative to it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.addressing import Address, Prefix
from repro.trie.node import TrieNode


class BinaryTrie:
    """A binary trie over prefixes of one address family."""

    __slots__ = ("width", "root", "_size")

    def __init__(self, width: int = 32):
        self.width = width
        self.root = TrieNode(Prefix.root(width))
        self._size = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_prefixes(
        cls,
        entries: Iterable[Tuple[Prefix, object]],
        width: int = 32,
    ) -> "BinaryTrie":
        """Build a trie from ``(prefix, next_hop)`` pairs."""
        trie = cls(width)
        for prefix, next_hop in entries:
            trie.insert(prefix, next_hop)
        return trie

    def insert(self, prefix: Prefix, next_hop: object) -> TrieNode:
        """Insert (or update) a prefix; returns its vertex."""
        node = self.root
        bits, length, width = prefix.bits, prefix.length, prefix.width
        derived = Prefix._derived
        for shift in range(length - 1, -1, -1):
            head = bits >> shift
            child = node.children.get(head & 1)
            if child is None:
                child = TrieNode(derived(head, length - shift, width))
                node.children[head & 1] = child
            node = child
        if not node.marked:
            self._size += 1
        node.mark(next_hop)
        return node

    def remove(self, prefix: Prefix) -> bool:
        """Remove a prefix; prunes now-useless vertices.  True if found."""
        path: List[TrieNode] = [self.root]
        node = self.root
        bits = prefix.bits
        for shift in range(prefix.length - 1, -1, -1):
            node = node.children.get((bits >> shift) & 1)
            if node is None:
                return False
            path.append(node)
        if not node.marked:
            return False
        node.unmark()
        self._size -= 1
        # Prune unmarked leaves bottom-up so the invariant "all leaves are
        # marked" (§3.1) is preserved.
        for parent, child in zip(reversed(path[:-1]), reversed(path[1:])):
            if child.marked or child.children:
                break
            del parent.children[child.prefix.bits & 1]
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def find_node(self, prefix: Prefix) -> Optional[TrieNode]:
        """The vertex for ``prefix`` if it exists in the trie."""
        node = self.root
        bits = prefix.bits
        for shift in range(prefix.length - 1, -1, -1):
            node = node.children.get((bits >> shift) & 1)
            if node is None:
                return None
        return node

    def contains(self, prefix: Prefix) -> bool:
        """True if ``prefix`` is a marked vertex (a table entry)."""
        node = self.find_node(prefix)
        return node is not None and node.marked

    def next_hop_of(self, prefix: Prefix) -> Optional[object]:
        """The next hop stored with a marked prefix, else None."""
        node = self.find_node(prefix)
        if node is not None and node.marked:
            return node.next_hop
        return None

    def longest_match(self, address: Address) -> Optional[TrieNode]:
        """The vertex of the longest marked prefix matching ``address``."""
        node = self.root
        best = node if node.marked else None
        value = address.value
        for shift in range(self.width - 1, -1, -1):
            node = node.children.get((value >> shift) & 1)
            if node is None:
                break
            if node.marked:
                best = node
        return best

    def best_prefix(self, address: Address) -> Optional[Prefix]:
        """The longest marked prefix matching ``address`` (or None)."""
        node = self.longest_match(address)
        return node.prefix if node else None

    def least_marked_ancestor(
        self, prefix: Prefix, include_self: bool = True
    ) -> Optional[TrieNode]:
        """Deepest marked vertex on the root-to-``prefix`` path.

        This is the paper's "least ancestor of *s* in the trie which is also
        a prefix" — the value pre-computed into a clue entry's FD field.  The
        walk follows the bits of ``prefix`` as far as the trie allows, so it
        also works when ``prefix`` itself is not a vertex of the trie
        (Advance method, case 1).  The root prefix has no strict ancestor,
        so with ``include_self=False`` it yields None.
        """
        if not include_self and not prefix.length:
            return None
        node = self.root
        best = node if node.marked else None
        bits = prefix.bits
        # Without ``include_self`` the walk stops above the last bit.
        for shift in range(prefix.length - 1, -1 if include_self else 0, -1):
            node = node.children.get((bits >> shift) & 1)
            if node is None:
                break
            if node.marked:
                best = node
        return best

    def marked_in_subtree(self, prefix: Prefix) -> Iterator[TrieNode]:
        """All marked vertices at or below ``prefix``."""
        top = self.find_node(prefix)
        if top is None:
            return
        for node in top.subtree():
            if node.marked:
                yield node

    def has_marked_descendant(self, prefix: Prefix) -> bool:
        """True if a marked vertex lies strictly below ``prefix``."""
        top = self.find_node(prefix)
        if top is None:
            return False
        return any(node.marked for node in top.descendants())

    # ------------------------------------------------------------------
    # iteration / stats
    # ------------------------------------------------------------------
    def prefixes(self) -> Iterator[Prefix]:
        """All marked prefixes, pre-order."""
        for node in self.root.subtree():
            if node.marked:
                yield node.prefix

    def entries(self) -> Iterator[Tuple[Prefix, object]]:
        """All ``(prefix, next_hop)`` pairs, pre-order."""
        for node in self.root.subtree():
            if node.marked:
                yield node.prefix, node.next_hop

    def nodes(self) -> Iterator[TrieNode]:
        """All vertices, pre-order."""
        return self.root.subtree()

    def node_count(self) -> int:
        """Total number of vertices (marked and unmarked)."""
        return sum(1 for _ in self.root.subtree())

    def depth_histogram(self) -> Dict[int, int]:
        """Count of marked prefixes per prefix length."""
        histogram: Dict[int, int] = {}
        for prefix in self.prefixes():
            histogram[prefix.length] = histogram.get(prefix.length, 0) + 1
        return histogram

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self.contains(prefix)

    def __repr__(self) -> str:
        return "BinaryTrie(%d prefixes, width=%d)" % (self._size, self.width)
