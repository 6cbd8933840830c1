"""Trie substrate: binary trie, Patricia trie, and two-trie overlays."""

from repro.trie.binary_trie import BinaryTrie
from repro.trie.node import TrieNode
from repro.trie.overlay import TrieOverlay
from repro.trie.patricia import PatriciaTrie

__all__ = [
    "BinaryTrie",
    "PatriciaTrie",
    "TrieNode",
    "TrieOverlay",
]
