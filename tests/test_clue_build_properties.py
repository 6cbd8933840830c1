"""Differential tests of the clue builders' walks (§3.1, §3.4).

``AdvanceMethod.build_table()`` is one pre-order pass over the sender
trie in lockstep with the receiver trie; ``build_entry`` and the
maintained table's rebuilds walk root→clue once down both tries.  Each
must give a clue the record a per-clue oracle builds straight from
``find_node`` and ``least_marked_ancestor``: FD prefix and next hop, Ptr
emptiness, where the continuation starts, the live ``problematic`` set
a trie walk holds, the style, and the sender vertex the guard reads.
``SimpleMethod.build_entry`` is held to the same oracle, with a Ptr
wherever the receiver has something below the clue.  Tables are random
at widths 32 and 128, with default routes on either side and subtrees
only one side has.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing import Prefix
from repro.core import AdvanceMethod, MaintainedClueTable, ReceiverState, SimpleMethod
from repro.core.receiver import TECHNIQUES
from repro.lookup import (
    LengthContinuation,
    PatriciaContinuation,
    SetContinuation,
    TrieContinuation,
)
from repro.lookup.multibit import MultibitContinuation
from repro.lookup.restricted import locate_patricia_entry
from repro.trie import BinaryTrie

HOPS = ("a", "b", "c")
WIDTHS = (32, 128)


@st.composite
def prefixes(draw, width, depth=6):
    # Mostly short, so tables nest; now and then one near full width.
    length = draw(st.one_of(st.integers(0, depth), st.integers(width - 2, width)))
    return Prefix(draw(st.integers(0, (1 << length) - 1)), length, width)


def entries(width):
    return st.tuples(prefixes(width), st.sampled_from(HOPS))


@st.composite
def subtree(draw, width):
    """A few entries below one branch, which the other side may lack."""
    top = draw(prefixes(width))
    found = []
    for _ in range(draw(st.integers(1, 4))):
        extra = draw(st.integers(0, min(width - top.length, 5)))
        bits = (top.bits << extra) | draw(st.integers(0, (1 << extra) - 1))
        found.append((Prefix(bits, top.length + extra, width), draw(st.sampled_from(HOPS))))
    return found


@st.composite
def pair_tables(draw, width):
    """Sender and receiver tables: shared entries, one-sided subtrees,
    and a default route on neither, either or both sides."""
    shared = draw(st.lists(entries(width), max_size=8))
    sides = []
    for _side in ("sender", "receiver"):
        table = list(shared)
        for tree in draw(st.lists(subtree(width), max_size=3)):
            table.extend(tree)
        if draw(st.booleans()):
            table.append((Prefix.root(width), draw(st.sampled_from(HOPS))))
        sides.append(table)
    return sides


def build(width, technique, sender_table, receiver_table):
    sender = BinaryTrie.from_prefixes(sender_table, width)
    return AdvanceMethod(sender, ReceiverState(receiver_table, width), technique)


def start_of(continuation):
    """Where a continuation resumes: a vertex, or its candidate set."""
    if continuation is None:
        return None
    if isinstance(continuation, TrieContinuation):
        return continuation.start
    if isinstance(continuation, PatriciaContinuation):
        return continuation.entry, continuation.entry_is_clue_vertex
    if isinstance(continuation, MultibitContinuation):
        return continuation.node, continuation.depth
    if isinstance(continuation, SetContinuation):
        return continuation.candidates
    assert isinstance(continuation, LengthContinuation)
    return sorted(
        (bucket.bmp_prefix, bucket.next_hop)
        for table in continuation.levels.tables.values()
        for bucket in table.values()
        if bucket.is_prefix
    )


def oracle_start(method, clue, stride_trie=None):
    """Where a clue's continuation must resume, found without the
    builder's walk: for a set technique, Advance's potential set or, for
    Simple, every receiver entry below the clue."""
    receiver = method.receiver
    technique = method.technique
    if technique == "regular":
        return receiver.trie.find_node(clue)
    if technique == "patricia":
        return locate_patricia_entry(receiver.patricia, clue)
    if technique == "multibit":
        return (stride_trie or receiver.multibit).node_at(clue)
    if isinstance(method, SimpleMethod):
        candidates = [
            (prefix, hop)
            for prefix, hop in receiver.entries
            if prefix.length > clue.length and clue.is_prefix_of(prefix)
        ]
    else:
        candidates = [
            (prefix, receiver.trie.next_hop_of(prefix))
            for prefix in method.overlay.potential_set(clue)
        ]
    return sorted(candidates, key=lambda item: (item[0].length, item[0].bits)) or None


def same_start(got, want):
    if isinstance(got, tuple):
        return len(got) == len(want) and all(a is b for a, b in zip(got, want))
    if isinstance(got, list):
        return got == want
    return got is want


def assert_record(entry, method, clue, stride_trie=None):
    """Every field of ``entry`` equals what root walks say it must be.

    An Advance record resumes only below a clue that fails Claim 1, a
    Simple one below any receiver vertex with children; either way, the
    Ptr is empty where the technique has nowhere to resume.
    ``stride_trie`` is the multibit trie the continuation resumes in,
    by default the receiver's current one.
    """
    receiver = method.receiver
    assert entry.clue == clue
    fd = receiver.trie.least_marked_ancestor(clue)
    assert entry.fd_prefix == (None if fd is None else fd.prefix), str(clue)
    assert entry.fd_next_hop == (None if fd is None else fd.next_hop), str(clue)
    assert entry.style == method.method_name
    if isinstance(method, SimpleMethod):
        node = receiver.trie.find_node(clue)
        resumes = node is not None and bool(node.children)
        stops = sender_node = None
    else:
        resumes = clue in method.overlay.problematic
        stops = method.overlay.problematic
        sender_node = method.overlay.sender.find_node(clue)
    assert entry.sender_node is sender_node, str(clue)
    want = oracle_start(method, clue, stride_trie) if resumes else None
    assert entry.pointer_empty() == (want is None), str(clue)
    if want is not None:
        assert same_start(start_of(entry.continuation), want), str(clue)
    if isinstance(entry.continuation, (TrieContinuation, PatriciaContinuation)):
        assert entry.continuation.problematic is stops


def clues_the_sender_lacks(sender, receiver_table):
    """Unmarked sender vertices, and clues off the sender trie: a child
    below every sender leaf, and every receiver prefix."""
    lacking = [node.prefix for node in sender.nodes() if not node.marked]
    for node in sender.nodes():
        if not node.children and node.prefix.length < sender.width:
            lacking.append(node.prefix.child(1))
    lacking.extend(prefix for prefix, _hop in receiver_table)
    return lacking


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("width", WIDTHS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lockstep_pass_equals_per_clue_walks_and_the_oracle(width, technique, data):
    sender_table, receiver_table = data.draw(pair_tables(width))
    method = build(width, technique, sender_table, receiver_table)
    clues = list(method.overlay.sender.prefixes())
    lockstep = method.build_table()
    per_clue = method.build_table(clues)
    # Records land in the order the sender trie yields its prefixes.
    assert [entry.clue for entry in lockstep.entries()] == clues
    assert [entry.clue for entry in per_clue.entries()] == clues
    for clue in clues:
        assert_record(lockstep.record(clue), method, clue)
        assert_record(per_clue.record(clue), method, clue)
    for clue in clues_the_sender_lacks(method.overlay.sender, receiver_table):
        assert_record(method.build_entry(clue), method, clue)


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("width", WIDTHS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_simple_records_equal_the_oracle(width, technique, data):
    sender_table, receiver_table = data.draw(pair_tables(width))
    sender = BinaryTrie.from_prefixes(sender_table, width)
    method = SimpleMethod(ReceiverState(receiver_table, width), technique)
    for clue in list(sender.prefixes()) + clues_the_sender_lacks(sender, receiver_table):
        assert_record(method.build_entry(clue), method, clue)


#: One update: (side, withdraw?, prefix, next hop if announced).
def updates(width):
    return st.tuples(
        st.sampled_from(("sender", "receiver")),
        st.booleans(),
        prefixes(width),
        st.sampled_from(HOPS),
    )


def side_delta(burst, side):
    add = [(prefix, hop) for s, withdraw, prefix, hop in burst if s == side and not withdraw]
    remove = [prefix for s, withdraw, prefix, _ in burst if s == side and withdraw]
    return add, remove


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("width", WIDTHS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_maintained_records_equal_fresh_entries_after_bursts(width, technique, data):
    sender_table, receiver_table = data.draw(pair_tables(width))
    maintained = MaintainedClueTable(sender_table, receiver_table, technique, width)
    method = maintained.method
    for burst in data.draw(st.lists(st.lists(updates(width), max_size=8), min_size=1, max_size=4)):
        s_add, s_remove = side_delta(burst, "sender")
        r_add, r_remove = side_delta(burst, "receiver")
        # Withdraw only what a side holds, as routers filter removals.
        s_remove = [prefix for prefix in s_remove if maintained.sender_trie.contains(prefix)]
        r_remove = [prefix for prefix in r_remove if maintained.receiver.trie.contains(prefix)]
        maintained.apply_batch(
            sender_add=s_add,
            sender_remove=s_remove,
            receiver_add=r_add,
            receiver_remove=r_remove,
            defer_rebuild=data.draw(st.booleans()),
        )
        maintained.flush()
        clues = set(maintained.sender_trie.prefixes())
        for record in maintained.table.entries():
            assert record.active == (record.clue in clues), str(record.clue)
            if record.active:
                assert_record(method.build_entry(record.clue), method, record.clue)
                # A multibit record keeps the stride trie it was built
                # over: the receiver rebuilds that trie on every change,
                # and a record is rebuilt only when the change dirties it.
                stride_trie = None
                if isinstance(record.continuation, MultibitContinuation):
                    stride_trie = record.continuation.trie
                assert_record(record, method, record.clue, stride_trie)
        assert clues <= {record.clue for record in maintained.table.entries()}
