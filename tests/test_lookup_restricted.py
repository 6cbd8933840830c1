"""Unit tests for the clue-restricted continuation searches (§4)."""

import pytest

from repro.addressing import Address, Prefix
from repro.lookup import (
    CACHE_LINE_PREFIXES,
    LengthContinuation,
    MemoryCounter,
    PatriciaContinuation,
    SetContinuation,
    TrieContinuation,
    locate_patricia_entry,
    subtree_candidates,
)
from repro.trie import BinaryTrie, PatriciaTrie
from tests.conftest import p


def addr(bits: str) -> Address:
    return Address(int(bits, 2) << (32 - len(bits)), 32)


@pytest.fixture
def receiver_trie():
    return BinaryTrie.from_prefixes(
        [(p("0"), "a"), (p("01"), "b"), (p("0110"), "c"), (p("0111"), "d")]
    )


@pytest.fixture
def receiver_patricia():
    return PatriciaTrie.from_prefixes(
        [(p("0"), "a"), (p("01"), "b"), (p("0110"), "c"), (p("0111"), "d")]
    )


class TestTrieContinuation:
    def test_finds_longer_match(self, receiver_trie):
        start = receiver_trie.find_node(p("0"))
        cont = TrieContinuation(start, 32)
        counter = MemoryCounter()
        match = cont.search(addr("01101"), counter)
        assert match == (p("0110"), "c")
        # Visits 01, 011, 0110 below the clue: three references.
        assert counter.accesses == 3

    def test_returns_none_when_nothing_longer(self, receiver_trie):
        start = receiver_trie.find_node(p("0110"))
        cont = TrieContinuation(start, 32)
        assert cont.search(addr("01101"), MemoryCounter()) is None

    def test_stop_booleans_halt_the_walk(self, receiver_trie):
        # Claim 1 fails at 0 only: the walk halts at 01, the first vertex
        # outside the set, with the match found so far.
        start = receiver_trie.find_node(p("0"))
        cont = TrieContinuation(start, 32, problematic={p("0")})
        counter = MemoryCounter()
        match = cont.search(addr("01101"), counter)
        assert match == (p("01"), "b")
        assert counter.accesses == 1
        # Where it fails at 01 and 011 too, the walk goes on to 0110.
        cont = TrieContinuation(start, 32, problematic={p("0"), p("01"), p("011")})
        counter = MemoryCounter()
        assert cont.search(addr("01101"), counter) == (p("0110"), "c")
        assert counter.accesses == 3

    def test_diverging_address_stops_early(self, receiver_trie):
        start = receiver_trie.find_node(p("0"))
        cont = TrieContinuation(start, 32)
        counter = MemoryCounter()
        # 00... diverges immediately below "0".
        assert cont.search(addr("001"), counter) is None
        assert counter.accesses == 0


class TestPatriciaContinuation:
    def test_exact_clue_vertex_not_charged(self, receiver_patricia):
        located = locate_patricia_entry(receiver_patricia, p("01"))
        entry, is_clue = located
        assert is_clue and entry.prefix == p("01")
        cont = PatriciaContinuation(entry, True, p("01"), 32)
        counter = MemoryCounter()
        match = cont.search(addr("01100"), counter)
        assert match == (p("0110"), "c")
        # Only the fork 011 and the leaf 0110 are visited.
        assert counter.accesses == 2

    def test_clue_on_compressed_edge_charges_entry(self):
        # Without the 0111 sibling, "011" sits mid-edge between 01 and 0110.
        trie = PatriciaTrie.from_prefixes(
            [(p("0"), "a"), (p("01"), "b"), (p("0110"), "c")]
        )
        located = locate_patricia_entry(trie, p("011"))
        entry, is_clue = located
        assert not is_clue and entry.prefix == p("0110")
        cont = PatriciaContinuation(entry, False, p("011"), 32)
        counter = MemoryCounter()
        match = cont.search(addr("01100"), counter)
        assert match == (p("0110"), "c")
        assert counter.accesses == 1

    def test_no_extension_returns_none(self, receiver_patricia):
        assert locate_patricia_entry(receiver_patricia, p("0110")) is None

    def test_absent_region_returns_none(self, receiver_patricia):
        assert locate_patricia_entry(receiver_patricia, p("10")) is None

    def test_mismatching_edge_entry_returns_none(self):
        trie = PatriciaTrie.from_prefixes(
            [(p("0"), "a"), (p("01"), "b"), (p("0110"), "c")]
        )
        entry, _ = locate_patricia_entry(trie, p("011"))
        cont = PatriciaContinuation(entry, False, p("011"), 32)
        counter = MemoryCounter()
        # The walk enters the edge vertex 0110 but the address (0111...)
        # does not match it: nothing longer than the clue exists.
        assert cont.search(addr("01111111"), counter) is None
        assert counter.accesses == 1


class TestSetContinuation:
    def test_small_set_is_inline_and_free(self):
        candidates = [(p("0110"), "c")]
        cont = SetContinuation(candidates, 32)
        counter = MemoryCounter()
        assert cont.search(addr("01101"), counter) == (p("0110"), "c")
        assert counter.accesses == 0

    def test_large_set_charges_probes(self):
        candidates = [
            (Prefix((1 << 9) | i, 10, 32), i) for i in range(CACHE_LINE_PREFIXES * 4)
        ]
        cont = SetContinuation(candidates, 32)
        counter = MemoryCounter()
        match = cont.search(Address(candidates[3][0].bits << 22, 32), counter)
        assert match[0] == candidates[3][0]
        assert counter.accesses >= 1

    def test_returns_longest_of_set(self):
        candidates = [(p("01"), "b"), (p("0110"), "c")]
        cont = SetContinuation(candidates, 32)
        assert cont.search(addr("01101"), MemoryCounter()) == (p("0110"), "c")

    def test_no_match_returns_none(self):
        cont = SetContinuation([(p("0110"), "c")], 32)
        assert cont.search(addr("111"), MemoryCounter()) is None

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            SetContinuation([], 32)

    def test_multiway_branching(self):
        candidates = [
            (Prefix((1 << 11) | i, 12, 32), i) for i in range(64)
        ]
        binary = SetContinuation(candidates, 32, branching=2)
        multiway = SetContinuation(candidates, 32, branching=6)
        address = Address(candidates[40][0].bits << 20, 32)
        b_counter, m_counter = MemoryCounter(), MemoryCounter()
        assert binary.search(address, b_counter) == multiway.search(address, m_counter)
        assert m_counter.accesses <= b_counter.accesses


class TestLengthContinuation:
    def test_finds_longest(self):
        candidates = [(p("01"), "b"), (p("0110"), "c"), (p("011000"), "e")]
        cont = LengthContinuation(candidates, 32)
        assert cont.search(addr("0110001"), MemoryCounter()) == (p("011000"), "e")

    def test_no_match_returns_none(self):
        cont = LengthContinuation([(p("0110"), "c")], 32)
        assert cont.search(addr("111"), MemoryCounter()) is None

    def test_probe_count_bounded_by_distinct_lengths(self):
        candidates = [(p("01"), "b"), (p("0110"), "c"), (p("011000"), "e")]
        cont = LengthContinuation(candidates, 32)
        counter = MemoryCounter()
        cont.search(addr("0110001"), counter)
        assert counter.accesses <= 2  # ceil(log2(3 lengths)) probes

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LengthContinuation([], 32)


class TestSubtreeCandidates:
    def test_collects_strict_descendants(self, receiver_trie):
        result = subtree_candidates(receiver_trie, p("01"))
        assert {prefix for prefix, _ in result} == {p("0110"), p("0111")}

    def test_absent_clue_gives_empty(self, receiver_trie):
        assert subtree_candidates(receiver_trie, p("1")) == []

    def test_leaf_clue_gives_empty(self, receiver_trie):
        assert subtree_candidates(receiver_trie, p("0110")) == []
