"""Trie vertices.

Both the plain binary trie and the Patricia trie use the same vertex type:
a vertex knows the full prefix it represents (the paper's "binary string
associated with a vertex"), whether it is *marked* (represents a prefix in
the forwarding table) and, when marked, the forwarding decision (next hop)
stored with the prefix.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.addressing import Prefix


class TrieNode:
    """A vertex of a (possibly path-compressed) binary trie."""

    __slots__ = ("prefix", "marked", "next_hop", "children")

    def __init__(self, prefix: Prefix):
        self.prefix = prefix
        self.marked = False
        self.next_hop: Optional[object] = None
        self.children: Dict[int, "TrieNode"] = {}

    def child(self, bit: int) -> Optional["TrieNode"]:
        """The child reached over edge ``bit``, or None."""
        return self.children.get(bit)

    def is_leaf(self) -> bool:
        """True if the vertex has no children."""
        return not self.children

    def mark(self, next_hop: object) -> None:
        """Mark the vertex as representing a forwarding-table prefix."""
        self.marked = True
        self.next_hop = next_hop

    def unmark(self) -> None:
        """Remove the prefix represented by this vertex."""
        self.marked = False
        self.next_hop = None

    def descendants(self) -> Iterator["TrieNode"]:
        """All vertices strictly below this one, pre-order."""
        stack = [child for child in self.children.values()]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def subtree(self) -> Iterator["TrieNode"]:
        """This vertex and all its descendants, pre-order."""
        yield self
        for node in self.descendants():
            yield node

    def __repr__(self) -> str:
        flag = "*" if self.marked else ""
        return "TrieNode(%s%s)" % (self.prefix.bitstring() or "<root>", flag)
