"""Property tests: the range table's sweep against a trie.

:class:`~repro.lookup.binary_range.RangeTable` cuts the address line
into constant-answer segments with one sort and a stack sweep, no trie,
because the serving audit uses it as an oracle that shares no code with
what it checks.  Here a :class:`~repro.trie.BinaryTrie` is the test's
own reference: at every segment start the table's answer must be the
trie's longest-prefix match, the segments must be exactly the ones a
trie-built table has (one per prefix low end and one past each high
end), the binary and 6-way searches must answer with the same
prefixes, next hops and memory references as over a trie-built table,
and the batch locate must pick, for a whole array of addresses, the
segment whose answer is the scalar binary search's and the trie's.
Tables nest prefixes around a few anchor addresses, the top of the
address space among them, with and without a default route, with /32s
and duplicate prefixes (the last entry wins), and may be empty.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.addressing import Address, Prefix
from repro.lookup import MemoryCounter
from repro.lookup.binary_range import BinaryRangeLookup, MultiwayRangeLookup, RangeTable
from repro.trie import BinaryTrie

TOP = (1 << 32) - 1
addresses = st.integers(min_value=0, max_value=TOP)


@st.composite
def entry_lists(draw):
    """Nested prefixes around a few anchors; duplicates keep list order."""
    anchors = draw(st.lists(addresses, min_size=1, max_size=3)) + [TOP]
    entries = []
    for index in range(draw(st.integers(min_value=0, max_value=30))):
        anchor = draw(st.sampled_from(anchors))
        length = draw(st.one_of(st.just(32), st.integers(min_value=1, max_value=32)))
        entries.append((Prefix(anchor >> (32 - length), length, 32), "h%d" % index))
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), (Prefix.root(32), "default"))
    if entries and draw(st.booleans()):
        prefix, _hop = draw(st.sampled_from(entries))
        entries.append((prefix, "again"))
    return entries


def trie_of(entries):
    trie = BinaryTrie(32)
    for prefix, next_hop in entries:
        trie.insert(prefix, next_hop)
    return trie


def trie_built(entries):
    """The table as a trie would build it: cut at every range boundary,
    then one longest-prefix match per segment start."""
    trie = trie_of(entries)
    boundaries = {0}
    for prefix, _hop in entries:
        low, high = prefix.address_range()
        boundaries.add(low)
        if high < TOP:
            boundaries.add(high + 1)
    table = RangeTable([], 32)
    table.starts = sorted(boundaries)
    table.answers = [lpm(trie, start) for start in table.starts]
    return table


def lpm(trie, value):
    node = trie.longest_match(Address(value, 32))
    return (None, None) if node is None else (node.prefix, node.next_hop)


@given(entry_lists())
@settings(max_examples=300, deadline=None)
def test_every_segment_answers_the_trie_lpm_at_its_start(entries):
    table = RangeTable(entries, 32)
    trie = trie_of(entries)
    assert table.starts[0] == 0
    assert table.starts == sorted(set(table.starts))
    for start, answer in zip(table.starts, table.answers):
        assert answer == lpm(trie, start)
    reference = trie_built(entries)
    assert table.starts == reference.starts
    assert table.answers == reference.answers


@given(entry_lists(), st.lists(addresses, max_size=8))
@settings(max_examples=200, deadline=None)
def test_range_searches_match_a_trie_built_table(entries, extra):
    reference = trie_built(entries)
    probes = set(extra) | {TOP}
    for start in reference.starts:
        probes.update((start, max(0, start - 1)))
    binary = BinaryRangeLookup(entries, 32)
    sixway = MultiwayRangeLookup(entries, 32)
    for value in sorted(probes):
        address = Address(value, 32)
        for lookup, locate in (
            (binary, reference.locate_binary),
            (sixway, reference.locate_multiway),
        ):
            counter = MemoryCounter()
            want = locate(address, counter)
            result = lookup.lookup(address)
            assert (result.prefix, result.next_hop) == want
            assert result.accesses == counter.accesses


@given(entry_lists(), st.lists(addresses, max_size=8))
@settings(max_examples=200, deadline=None)
def test_batch_locate_matches_locate_binary_and_the_trie(entries, extra):
    table = RangeTable(entries, 32)
    trie = trie_of(entries)
    probes = set(extra) | {0, TOP}
    for start in table.starts:
        probes.update((start, max(0, start - 1)))
    values = list(probes)
    segments = table.locate_batch(np.array(values, dtype=np.int64))
    assert segments.shape == (len(values),)
    for value, segment in zip(values, segments.tolist()):
        address = Address(value, 32)
        answer = table.answers[segment]
        assert answer == table.locate_binary(address, MemoryCounter())
        # Without a default route, an address outside every prefix is
        # in a (None, None) segment.
        assert answer == lpm(trie, value)


def test_a_duplicate_prefix_resolves_to_its_last_entry():
    prefix = Prefix(10, 8, 32)
    table = RangeTable([(prefix, "first"), (Prefix.root(32), "d"), (prefix, "last")], 32)
    assert table.answers == trie_built(
        [(prefix, "first"), (Prefix.root(32), "d"), (prefix, "last")]
    ).answers
    assert (prefix, "last") in table.answers
    assert (prefix, "first") not in table.answers


def test_an_empty_table_is_one_no_route_segment():
    table = RangeTable([], 32)
    assert table.starts == [0]
    assert table.answers == [(None, None)]
