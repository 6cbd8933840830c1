"""Property-based tests for clue encoding and for the clue lookups'
equivalence: learned, indexed, guarded and pre-processed."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing import Address, Prefix
from repro.core import (
    AdvanceMethod,
    ClueAssistedLookup,
    ClueHeader,
    IndexedClueLookup,
    ReceiverState,
    SenderIndexAssigner,
    SimpleMethod,
    decode_clue,
    encode_clue,
)
from repro.core.receiver import TECHNIQUES
from repro.faults.guard import GuardedLookup
from repro.lookup import BASELINES, MemoryCounter
from repro.trie import BinaryTrie
from tests.test_clue_build_properties import WIDTHS, pair_tables

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)
lengths = st.integers(min_value=0, max_value=32)


@given(addresses, lengths)
def test_encode_decode_roundtrip(value, length):
    address = Address(value, 32)
    field = encode_clue(length)
    prefix = decode_clue(address, field)
    assert prefix.length == length
    assert prefix.matches(address)


@given(addresses, lengths)
def test_decoded_clue_is_address_prefix(value, length):
    address = Address(value, 32)
    assert decode_clue(address, length) == address.prefix(length)


@given(lengths, st.one_of(st.none(), st.integers(min_value=0, max_value=65535)))
def test_header_truncation_idempotent(length, index):
    header = ClueHeader(length=length, index=index)
    header.truncate(16)
    first = (header.length, header.index)
    header.truncate(16)
    assert (header.length, header.index) == first
    assert header.length is None or header.length <= 16


@st.composite
def small_pairs(draw):
    size = draw(st.integers(min_value=2, max_value=15))
    prefixes = set()
    for _ in range(size):
        length = draw(st.integers(min_value=1, max_value=10))
        bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
        prefixes.add(Prefix(bits, length, 32))
    sender = [(prefix, "s") for prefix in sorted(prefixes)]
    keep = draw(st.sets(st.integers(min_value=0, max_value=len(sender) - 1)))
    receiver = [entry for index, entry in enumerate(sender) if index not in keep]
    if not receiver:
        receiver = sender[:1]
    return sender, receiver


@given(small_pairs(), st.lists(addresses, min_size=1, max_size=15))
@settings(max_examples=100, deadline=None)
def test_learning_converges_to_preprocessed_behavior(pair, values):
    """After seeing a clue once, the learned path equals the prebuilt one."""
    sender, receiver = pair
    sender_trie = BinaryTrie.from_prefixes(sender)
    receiver_state = ReceiverState(receiver)
    builder = AdvanceMethod(sender_trie, receiver_state, "binary")
    base = BASELINES["binary"](receiver)
    learning = ClueAssistedLookup(base, builder=builder)
    prebuilt_table = builder.build_table()

    for value in values:
        destination = Address(value, 32)
        clue = sender_trie.best_prefix(destination)
        if clue is None:
            continue
        learning.lookup(destination, clue)  # possibly a learning miss
        learned_result = learning.lookup(destination, clue)
        learned_entry = learning.table.probe(clue)
        prebuilt_entry = prebuilt_table.probe(clue)
        assert learned_entry.final_decision() == prebuilt_entry.final_decision()
        assert learned_entry.pointer_empty() == prebuilt_entry.pointer_empty()
        expected, _ = receiver_state.best_match(destination)
        assert learned_result.prefix == expected


@st.composite
def destinations(draw, tables, width):
    """Addresses below a prefix of either table, or anywhere."""
    anchors = [prefix for table in tables for prefix, _hop in table]
    anchor = draw(st.sampled_from(anchors or [Prefix.root(width)]))
    free = width - anchor.length
    return Address((anchor.bits << free) | draw(st.integers(0, (1 << free) - 1)), width)


@pytest.mark.parametrize("style", ("simple", "advance"))
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("width", WIDTHS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_clue_lookup_answers_honest_traffic_alike(width, technique, style, data):
    """Clue = sender BMP through four lookups over one builder: each
    returns the receiver's best match by the same method, and all but
    the guard (whose Advance premise walk adds references) charge the
    same accesses."""
    tables = data.draw(pair_tables(width))
    sender = BinaryTrie.from_prefixes(tables[0], width)
    receiver = ReceiverState(tables[1], width)
    if style == "advance":
        builder = AdvanceMethod(sender, receiver, technique)
        table = builder.build_table()
    else:
        builder = SimpleMethod(receiver, technique)
        table = builder.build_table(sender.prefixes())
    base = BASELINES[technique](receiver.entries, width)
    preprocessed = ClueAssistedLookup(base, table)
    learning = ClueAssistedLookup(base, builder=builder)
    indexed = IndexedClueLookup(base, builder)
    guarded = GuardedLookup(base, builder)
    assigner = SenderIndexAssigner()

    for destination in data.draw(st.lists(destinations(tables, width), min_size=1, max_size=12)):
        clue = sender.best_prefix(destination)
        if clue is None:
            continue
        index = assigner.index_of(clue)
        # A clue's first packet may miss and learn; the next one hits.
        learning.lookup(destination, clue)
        indexed.lookup(destination, clue, index)
        guarded.lookup(destination, clue)
        expected = receiver.best_match(destination)
        outcomes = []
        for lookup in (preprocessed, learning, indexed, guarded):
            counter = MemoryCounter()
            if lookup is indexed:
                result = indexed.lookup(destination, clue, index, counter)
            else:
                result = lookup.lookup(destination, clue, counter)
            assert (result.prefix, result.next_hop) == expected, str(destination)
            assert result.method == counter.method
            outcomes.append((result.method, counter.accesses))
        assert len({method for method, _accesses in outcomes}) == 1, outcomes
        assert len({accesses for _method, accesses in outcomes[:3]}) == 1, outcomes
    assert not guarded.rejections
