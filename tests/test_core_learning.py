"""Unit tests for on-the-fly clue-table construction (§3.3.1)."""

import pytest

from repro.addressing import Address
from repro.core import (
    AdvanceMethod,
    ClueAssistedLookup,
    IndexedClueLookup,
    SenderIndexAssigner,
    SimpleMethod,
)
from repro.lookup import MemoryCounter, PatriciaLookup
from tests.conftest import p


def addr(bits: str) -> Address:
    return Address(int(bits, 2) << (32 - len(bits)), 32)


@pytest.fixture
def learning(tiny_sender_trie, tiny_receiver):
    builder = AdvanceMethod(tiny_sender_trie, tiny_receiver, "patricia")
    return ClueAssistedLookup(PatriciaLookup(tiny_receiver.entries), builder=builder)


class TestLearningClueLookup:
    """The clue lookup given a builder: an empty table, learned on misses."""

    def test_first_packet_misses_and_learns(self, learning):
        counter = MemoryCounter()
        result = learning.lookup(addr("10"), clue=p("1"), counter=counter)
        assert result.prefix == p("1")
        assert learning.misses == 1
        assert p("1") in learning.table

    def test_second_packet_hits(self, learning):
        learning.lookup(addr("10"), clue=p("1"))
        counter = MemoryCounter()
        result = learning.lookup(addr("10"), clue=p("1"), counter=counter)
        assert result.prefix == p("1")
        assert learning.hits == 1
        assert counter.accesses == 1  # steady state: one reference

    def test_learned_entry_matches_preprocessed(
        self, learning, tiny_sender_trie, tiny_receiver
    ):
        learning.lookup(addr("00101"), clue=p("00"))
        learned = learning.table.probe(p("00"))
        built = AdvanceMethod(tiny_sender_trie, tiny_receiver, "patricia").build_entry(
            p("00")
        )
        assert learned.final_decision() == built.final_decision()
        assert learned.pointer_empty() == built.pointer_empty()

    def test_clueless_packet_uses_base(self, learning):
        result = learning.lookup(addr("0010"))
        assert result.prefix == p("0010")
        assert learning.hits == 0 and learning.misses == 0

    def test_hit_rate(self, learning):
        assert learning.hit_rate() == 0.0
        learning.lookup(addr("10"), clue=p("1"))
        learning.lookup(addr("10"), clue=p("1"))
        assert learning.hit_rate() == pytest.approx(0.5)

    def test_correct_during_and_after_learning(self, learning, tiny_receiver, rng):
        for _ in range(200):
            destination = Address(rng.getrandbits(32), 32)
            clue = learning.builder.overlay.sender.best_prefix(destination)
            expected, _ = tiny_receiver.best_match(destination)
            result = learning.lookup(destination, clue)
            assert result.prefix == expected


class TestSenderIndexAssigner:
    def test_sequential_assignment(self):
        assigner = SenderIndexAssigner()
        assert assigner.index_of(p("1")) == 0
        assert assigner.index_of(p("0")) == 1
        assert assigner.index_of(p("1")) == 0  # stable
        assert assigner.assigned() == 2

    def test_wraps_at_capacity(self):
        assigner = SenderIndexAssigner(capacity=2)
        assert assigner.index_of(p("1")) == 0
        assert assigner.index_of(p("0")) == 1
        assert assigner.index_of(p("00")) == 0  # recycled


class TestIndexedClueLookup:
    def test_learning_via_index(self, tiny_sender_trie, tiny_receiver):
        builder = SimpleMethod(tiny_receiver, "patricia")
        lookup = IndexedClueLookup(
            PatriciaLookup(tiny_receiver.entries), builder, capacity=8
        )
        assigner = SenderIndexAssigner(capacity=8)
        clue = p("1")
        index = assigner.index_of(clue)
        first = lookup.lookup(addr("10"), clue=clue, index=index)
        second = lookup.lookup(addr("10"), clue=clue, index=index)
        assert first.prefix == second.prefix == p("1")
        assert lookup.misses == 1 and lookup.hits == 1

    def test_slot_collision_overwrites_and_stays_correct(
        self, tiny_sender_trie, tiny_receiver
    ):
        builder = SimpleMethod(tiny_receiver, "patricia")
        lookup = IndexedClueLookup(
            PatriciaLookup(tiny_receiver.entries), builder, capacity=1
        )
        # Two different clues forced into the same slot.
        r1 = lookup.lookup(addr("10"), clue=p("1"), index=0)
        r2 = lookup.lookup(addr("00101"), clue=p("00"), index=0)
        r3 = lookup.lookup(addr("10"), clue=p("1"), index=0)
        assert r1.prefix == r3.prefix == p("1")
        assert r2.prefix == p("0010")
        assert lookup.table.overwrites >= 1

    def test_without_index_falls_back(self, tiny_receiver):
        builder = SimpleMethod(tiny_receiver, "patricia")
        lookup = IndexedClueLookup(PatriciaLookup(tiny_receiver.entries), builder)
        result = lookup.lookup(addr("0010"), clue=p("00"), index=None)
        assert result.prefix == p("0010")
