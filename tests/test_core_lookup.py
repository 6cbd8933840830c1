"""Unit tests for the clue-assisted data path (Figure 5 pseudo-code)."""

import pytest

from repro.addressing import Address, Prefix
from repro.core import (
    AdvanceMethod,
    ClueAssistedLookup,
    ReceiverState,
    SimpleMethod,
)
from repro.lookup import MemoryCounter, PatriciaLookup, RegularTrieLookup
from repro.lookup.counters import METHOD_FD_IMMEDIATE, METHOD_RESUMED
from tests.conftest import p


def addr(bits: str) -> Address:
    return Address(int(bits, 2) << (32 - len(bits)), 32)


@pytest.fixture
def assisted(tiny_sender_trie, tiny_receiver):
    method = AdvanceMethod(tiny_sender_trie, tiny_receiver, "patricia")
    base = PatriciaLookup(tiny_receiver.entries)
    return ClueAssistedLookup(base, method.build_table())


class TestDataPath:
    def test_no_clue_falls_back_to_base(self, assisted, tiny_receiver):
        result = assisted.lookup(addr("11001"))
        expected, _ = tiny_receiver.best_match(addr("11001"))
        assert result.prefix == expected

    def test_empty_ptr_uses_fd_in_one_reference(self, assisted):
        # Clue "1" is case 2: FD final; exactly one clue-table reference.
        counter = MemoryCounter()
        result = assisted.lookup(addr("10"), clue=p("1"), counter=counter)
        assert result.prefix == p("1")
        assert counter.accesses == 1
        assert counter.method == result.method == METHOD_FD_IMMEDIATE
        assert (assisted.hits, assisted.misses) == (1, 0)

    def test_pointer_followed_for_problematic_clue(self, assisted):
        counter = MemoryCounter()
        result = assisted.lookup(addr("00101"), clue=p("00"), counter=counter)
        assert result.prefix == p("0010")
        assert counter.accesses >= 2
        assert counter.method == result.method == METHOD_RESUMED
        assert assisted.hits == 1

    def test_failed_continuation_falls_back_to_fd(self, assisted):
        # Clue 00, address 0011...: the continuation finds nothing longer.
        counter = MemoryCounter()
        result = assisted.lookup(addr("0011"), clue=p("00"), counter=counter)
        assert result.prefix == p("00")
        # The FD answers, after the resumed search found nothing longer.
        assert counter.method == result.method == METHOD_RESUMED

    def test_unknown_clue_triggers_full_lookup(self, assisted):
        counter = MemoryCounter()
        result = assisted.lookup(addr("110011"), clue=p("110011"), counter=counter)
        assert result.prefix == p("1100")
        assert (assisted.hits, assisted.misses) == (0, 1)
        assert counter.accesses > 1
        # Without a builder, the unknown clue stays unknown.
        assert p("110011") not in assisted.table

    def test_unknown_clue_hook_invoked(self, tiny_sender_trie, tiny_receiver):
        # A builder learns the unknown clue: §3.3.1's new-clue(c).
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver)
        lookup = ClueAssistedLookup(
            PatriciaLookup(tiny_receiver.entries),
            method.build_table(),
            builder=method,
        )
        assert p("111111") not in lookup.table
        lookup.lookup(addr("111111"), clue=p("111111"))
        assert p("111111") in lookup.table
        assert lookup.misses == 1

    def test_counter_accumulates_across_lookups(self, assisted):
        counter = MemoryCounter()
        assisted.lookup(addr("10"), clue=p("1"), counter=counter)
        assisted.lookup(addr("10"), clue=p("1"), counter=counter)
        assert counter.accesses == 2


class TestAgainstOracle:
    @pytest.mark.parametrize("method_cls", [SimpleMethod, AdvanceMethod])
    def test_all_destinations_all_clues(
        self, method_cls, tiny_sender_trie, tiny_receiver
    ):
        """Exhaustive sweep: every 6-bit destination block, truthful clues."""
        if method_cls is SimpleMethod:
            method = SimpleMethod(tiny_receiver, "regular")
            table = method.build_table(tiny_sender_trie.prefixes())
        else:
            method = AdvanceMethod(tiny_sender_trie, tiny_receiver, "regular")
            table = method.build_table()
        lookup = ClueAssistedLookup(
            RegularTrieLookup(tiny_receiver.entries), table
        )
        for block in range(64):
            destination = Address(block << 26, 32)
            clue = tiny_sender_trie.best_prefix(destination)
            if clue is None:
                continue
            expected, _ = tiny_receiver.best_match(destination)
            result = lookup.lookup(destination, clue)
            assert result.prefix == expected, bin(block)
