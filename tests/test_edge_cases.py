"""Edge cases and failure injection across the stack."""

import pytest

from repro.addressing import Address, Prefix
from repro.core import (
    AdvanceMethod,
    ClueAssistedLookup,
    ClueTable,
    ReceiverState,
    SimpleMethod,
)
from repro.lookup import BASELINES, MemoryCounter
from repro.trie import BinaryTrie, PatriciaTrie, TrieOverlay
from tests.conftest import p


def addr(bits: str) -> Address:
    return Address(int(bits, 2) << (32 - len(bits)), 32)


class TestEmptyAndSingleton:
    def test_empty_receiver_table(self):
        receiver = ReceiverState([])
        assert receiver.best_match(addr("1010")) == (None, None)
        sender = BinaryTrie.from_prefixes([(p("1"), "s")])
        method = AdvanceMethod(sender, receiver, "binary")
        entry = method.build_entry(p("1"))
        assert entry.pointer_empty()
        assert entry.final_decision() == (None, None)

    def test_empty_sender_universe(self, tiny_receiver):
        method = SimpleMethod(tiny_receiver)
        table = method.build_table([])
        assert len(table) == 0

    def test_single_prefix_everything(self):
        entries = [(p("1"), "only")]
        for name, cls in BASELINES.items():
            lookup = cls(entries)
            assert lookup.lookup(addr("1")).prefix == p("1"), name
            assert lookup.lookup(addr("0")).prefix is None, name

    def test_default_route_only(self):
        entries = [(Prefix.root(), "default")]
        for name, cls in BASELINES.items():
            lookup = cls(entries)
            assert lookup.lookup(addr("10101")).prefix == Prefix.root(), name

    def test_full_width_prefix(self):
        host = Prefix((1 << 32) - 1, 32, 32)
        entries = [(p("1"), "agg"), (host, "host")]
        for name, cls in BASELINES.items():
            lookup = cls(entries)
            assert lookup.lookup(Address((1 << 32) - 1, 32)).prefix == host, name


class TestOverlayEdges:
    def test_overlay_of_empty_tries(self):
        overlay = TrieOverlay(BinaryTrie(), BinaryTrie())
        assert overlay.equal_prefixes() == 0
        assert overlay.problematic_clues() == []
        assert overlay.claim1_holds(p("1"))

    def test_root_clue_default_route(self):
        sender = BinaryTrie.from_prefixes([(Prefix.root(), "s")])
        receiver = BinaryTrie.from_prefixes([(Prefix.root(), "r"), (p("1"), "r1")])
        overlay = TrieOverlay(sender, receiver)
        # The receiver's "1" extends the root clue with no sender prefix
        # on the way: the default-route clue is problematic.
        assert overlay.is_problematic(Prefix.root())
        assert overlay.potential_set(Prefix.root()) == [p("1")]

    def test_identical_tries_have_no_problematic_clues(self, pair_tables):
        sender, _ = pair_tables
        trie_a = BinaryTrie.from_prefixes(sender)
        trie_b = BinaryTrie.from_prefixes(sender)
        overlay = TrieOverlay(trie_a, trie_b)
        assert overlay.problematic_clues() == []


class TestPatriciaEdges:
    def test_root_only_trie(self):
        trie = PatriciaTrie()
        trie.insert(Prefix.root(), "default")
        assert trie.best_prefix(addr("101")) == Prefix.root()
        assert trie.remove(Prefix.root())
        assert trie.best_prefix(addr("101")) is None

    def test_remove_then_reinsert(self):
        trie = PatriciaTrie()
        trie.insert(p("1010"), "x")
        assert trie.remove(p("1010"))
        trie.insert(p("1010"), "y")
        assert trie.contains(p("1010"))
        assert trie.check_invariant()

    def test_walk_on_empty_trie(self):
        trie = PatriciaTrie()
        nodes = list(trie.walk(addr("1")))
        assert len(nodes) == 1  # just the root


class TestDataPathEdges:
    def test_clue_for_destination_with_no_receiver_route(self):
        receiver = ReceiverState([(p("0"), "r")])
        sender = BinaryTrie.from_prefixes([(p("1"), "s")])
        method = AdvanceMethod(sender, receiver, "patricia")
        lookup = ClueAssistedLookup(
            BASELINES["patricia"](receiver.entries), method.build_table()
        )
        result = lookup.lookup(addr("1"), clue=p("1"))
        assert result.prefix is None
        assert result.next_hop is None

    def test_counter_never_negative_or_zero_on_clue_path(
        self, tiny_sender_trie, tiny_receiver
    ):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver, "binary")
        lookup = ClueAssistedLookup(
            BASELINES["binary"](tiny_receiver.entries), method.build_table()
        )
        for block in range(16):
            destination = Address(block << 28, 32)
            clue = tiny_sender_trie.best_prefix(destination)
            if clue is None:
                continue
            counter = MemoryCounter()
            lookup.lookup(destination, clue, counter)
            assert counter.accesses >= 1

    def test_reprobing_inactive_entries(self, tiny_sender_trie, tiny_receiver):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver, "binary")
        table = method.build_table()
        entry = table.probe(p("1"))
        entry.deactivate()
        lookup = ClueAssistedLookup(BASELINES["binary"](tiny_receiver.entries), table)
        # Inactive entry behaves like an unknown clue: full lookup.
        result = lookup.lookup(addr("10"), clue=p("1"))
        expected, _ = tiny_receiver.best_match(addr("10"))
        assert result.prefix == expected
        assert lookup.misses == 1

    def test_clue_table_probe_without_counter(self):
        table = ClueTable()
        assert table.probe(p("1")) is None  # no counter: still safe
