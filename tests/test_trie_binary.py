"""Unit tests for the plain binary trie."""

import pytest

from repro.addressing import Address, Prefix
from repro.trie import BinaryTrie
from tests.conftest import p


@pytest.fixture
def trie():
    trie = BinaryTrie()
    trie.insert(p("0"), "a")
    trie.insert(p("01"), "b")
    trie.insert(p("0110"), "c")
    trie.insert(p("1"), "d")
    return trie


class TestInsert:
    def test_len_counts_marked(self, trie):
        assert len(trie) == 4

    def test_contains_inserted(self, trie):
        assert p("01") in trie
        assert trie.contains(p("0110"))

    def test_intermediate_vertices_not_marked(self, trie):
        assert not trie.contains(p("011"))
        assert trie.find_node(p("011")) is not None

    def test_reinsert_updates_next_hop(self, trie):
        trie.insert(p("01"), "b2")
        assert len(trie) == 4
        assert trie.next_hop_of(p("01")) == "b2"

    def test_insert_root_as_default_route(self):
        trie = BinaryTrie()
        trie.insert(Prefix.root(), "default")
        assert trie.contains(Prefix.root())
        assert len(trie) == 1

    def test_from_prefixes(self, tiny_sender_entries):
        trie = BinaryTrie.from_prefixes(tiny_sender_entries)
        assert len(trie) == len(tiny_sender_entries)


class TestRemove:
    def test_remove_leaf_prunes(self, trie):
        assert trie.remove(p("0110"))
        assert not trie.contains(p("0110"))
        # The unmarked chain 011 -> 0110 must be gone.
        assert trie.find_node(p("011")) is None
        assert len(trie) == 3

    def test_remove_internal_keeps_children(self, trie):
        assert trie.remove(p("01"))
        assert trie.find_node(p("01")) is not None  # still on the path to 0110
        assert trie.contains(p("0110"))

    def test_remove_missing_returns_false(self, trie):
        assert not trie.remove(p("111"))
        assert not trie.remove(p("011"))  # exists but unmarked

    def test_all_leaves_marked_after_removals(self, trie):
        trie.remove(p("0110"))
        trie.remove(p("01"))
        for node in trie.nodes():
            if node.is_leaf() and node.prefix.length:
                assert node.marked


class TestLookup:
    def test_longest_match_prefers_deepest(self, trie):
        address = p("0110").random_address(__import__("random").Random(0))
        assert trie.best_prefix(address) == p("0110")

    def test_longest_match_falls_back(self, trie):
        # 0111... matches 01 but not 0110.
        address = Address(0b0111 << 28, 32)
        assert trie.best_prefix(address) == p("01")

    def test_longest_match_miss(self):
        trie = BinaryTrie()
        trie.insert(p("1"), "d")
        assert trie.best_prefix(Address(0, 32)) is None

    def test_root_default_route_matches_all(self):
        trie = BinaryTrie()
        trie.insert(Prefix.root(), "default")
        assert trie.best_prefix(Address(123456, 32)) == Prefix.root()


class TestAncestors:
    def test_least_marked_ancestor_self(self, trie):
        assert trie.least_marked_ancestor(p("01")).prefix == p("01")

    def test_least_marked_ancestor_excluding_self(self, trie):
        node = trie.least_marked_ancestor(p("01"), include_self=False)
        assert node.prefix == p("0")

    def test_least_marked_ancestor_of_absent_prefix(self, trie):
        # 0101 is absent; its best ancestor is 01.
        assert trie.least_marked_ancestor(p("0101")).prefix == p("01")

    def test_least_marked_ancestor_none(self):
        trie = BinaryTrie()
        trie.insert(p("1"), "d")
        assert trie.least_marked_ancestor(p("0000")) is None

    def test_root_has_no_strict_ancestor(self):
        # A marked default route is the root's own vertex, never its
        # strict ancestor; it stays every other prefix's.
        trie = BinaryTrie()
        trie.insert(Prefix.root(), "default")
        assert trie.least_marked_ancestor(Prefix.root(), include_self=False) is None
        assert trie.least_marked_ancestor(Prefix.root()) is trie.root
        assert trie.least_marked_ancestor(p("1"), include_self=False) is trie.root


class TestSubtrees:
    def test_marked_in_subtree(self, trie):
        found = {node.prefix for node in trie.marked_in_subtree(p("0"))}
        assert found == {p("0"), p("01"), p("0110")}

    def test_has_marked_descendant(self, trie):
        assert trie.has_marked_descendant(p("0"))
        assert trie.has_marked_descendant(p("011"))
        assert not trie.has_marked_descendant(p("0110"))
        assert not trie.has_marked_descendant(p("1"))

    def test_marked_in_subtree_of_absent_root(self, trie):
        assert list(trie.marked_in_subtree(p("00"))) == []


class TestIteration:
    def test_prefixes_yields_all(self, trie):
        assert set(trie.prefixes()) == {p("0"), p("01"), p("0110"), p("1")}

    def test_entries_pair_next_hops(self, trie):
        entries = dict(trie.entries())
        assert entries[p("0110")] == "c"

    def test_node_count_includes_unmarked(self, trie):
        # root, 0, 01, 011, 0110, 1 = 6 vertices.
        assert trie.node_count() == 6

    def test_depth_histogram(self, trie):
        assert trie.depth_histogram() == {1: 2, 2: 1, 4: 1}
