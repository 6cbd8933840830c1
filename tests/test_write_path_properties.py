"""Property tests for the in-place write path.

A route update writes each structure once: the router patches its own
receiver state and base lookup, and a maintained pair that shares both
routers' tables (as :func:`repro.churn.feed.build_adjacency_pairs` wires
it) patches only its overlay's two Claim 1 sets and its clue records.
Random bursts — announces, withdrawals, next-hop changes and
withdrawals of absent prefixes, on both sides — must leave every patched
structure equal to a fresh build over the same tables.  The receiver's
Patricia trie is built only when first read: read before a burst or
first read after it, it must be the Patricia trie of the current
entries.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.addressing import Address, Prefix
from repro.core import AdvanceMethod, MaintainedClueTable, ReceiverState, SimpleMethod
from repro.lookup import (
    BASELINES,
    MemoryCounter,
    PatriciaContinuation,
    TrieContinuation,
)
from repro.netsim.router import ClueRouter
from repro.trie import PatriciaTrie, TrieOverlay

HOPS = ("a", "b", "c")


@st.composite
def prefixes(draw, depth=7):
    # A small universe, so bursts hit present prefixes, nest and repeat.
    length = draw(st.integers(min_value=0, max_value=depth))
    bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    return Prefix(bits, length, 32)


tables = st.lists(st.tuples(prefixes(), st.sampled_from(HOPS)), max_size=20)
#: One update: (side, withdraw?, prefix, next hop if announced).
updates = st.tuples(
    st.sampled_from(("sender", "receiver")),
    st.booleans(),
    prefixes(),
    st.sampled_from(HOPS),
)
bursts = st.lists(st.lists(updates, max_size=8), min_size=1, max_size=5)


def side_delta(burst, side):
    add = [(prefix, hop) for s, withdraw, prefix, hop in burst if s == side and not withdraw]
    remove = [prefix for s, withdraw, prefix, _ in burst if s == side and withdraw]
    return add, remove


def probes(routers, burst, rng):
    """Both ends of every prefix in play, plus random addresses."""
    values = {rng.getrandbits(32) for _ in range(8)}
    in_play = [prefix for router in routers for prefix, _ in router.receiver.entries]
    in_play += [prefix for _side, _withdraw, prefix, _hop in burst]
    for prefix in in_play:
        values.update(prefix.address_range())
    return [Address(value, 32) for value in sorted(values)]


def answer(base, address):
    result = base.lookup(address, MemoryCounter())
    return result.prefix, result.next_hop, result.accesses


def shape(trie):
    """Vertices (with marks and next hops) and edges of a trie."""
    vertices = {
        (node.prefix, node.marked, node.next_hop if node.marked else None)
        for node in trie.nodes()
    }
    edges = {
        (node.prefix, child.prefix)
        for node in trie.nodes()
        for child in node.children.values()
    }
    return vertices, edges


def assert_base_like_fresh(router, addresses):
    # The base adopts the receiver's merged list; the receiver's trie is
    # patched on its own, so it is the independent check of that merge.
    assert router.receiver.entries == sorted(router.receiver.trie.entries())
    fresh = BASELINES[router.technique](router.receiver.entries)
    assert router.base.table() == fresh.table()
    for address in addresses:
        assert answer(router.base, address) == answer(fresh, address), str(address)
    if router.technique in ("regular", "patricia"):
        assert shape(router.base.trie) == shape(fresh.trie)


DEFAULT = Prefix(0, 0, 32)


@pytest.mark.parametrize("technique", sorted(BASELINES))
@given(sender_table=tables, receiver_table=tables, bursts=bursts, seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
# A table that repeats a prefix keeps one entry for it, as its trie
# does, so a patched merge can neither leave a withdrawn copy behind
# nor keep a stale duplicate beside an announce.
@example(
    sender_table=[(DEFAULT, "a"), (DEFAULT, "b")],
    receiver_table=[],
    bursts=[[("sender", True, DEFAULT, "a")]],
    seed=0,
)
@example(
    sender_table=[
        (DEFAULT, "a"),
        (DEFAULT, "a"),
        (Prefix(0, 1, 32), "a"),
        (Prefix(1, 1, 32), "a"),
    ],
    receiver_table=[],
    bursts=[[("sender", False, DEFAULT, "b")]],
    seed=0,
)
def test_shared_pair_matches_fresh_builds(technique, sender_table, receiver_table, bursts, seed):
    rng = random.Random(seed)
    sender = ClueRouter("s", sender_table, technique=technique)
    receiver = ClueRouter("r", receiver_table, technique=technique)
    maintained = MaintainedClueTable(
        sender.receiver.trie, receiver.receiver, technique=technique
    )
    live = maintained.overlay
    problematic = live.problematic
    for burst in bursts:
        # Phase 1: each router patches its own tables; phase 2 folds
        # what was applied into the pair, as TableDeltaFeed.apply does.
        s_add, s_remove = sender.apply_update(*side_delta(burst, "sender"))
        r_add, r_remove = receiver.apply_update(*side_delta(burst, "receiver"))
        maintained.apply_batch(
            sender_add=s_add,
            sender_remove=s_remove,
            receiver_add=r_add,
            receiver_remove=r_remove,
            defer_rebuild=True,
        )
        maintained.flush()

        fresh = TrieOverlay(sender.receiver.trie, receiver.receiver.trie)
        assert live.unclaimed == fresh.unclaimed
        assert live.problematic == fresh.problematic

        reference = maintained.reference_table()
        for clue in sender.receiver.trie.prefixes():
            got, want = maintained.table.probe(clue), reference.probe(clue)
            assert got is not None, str(clue)
            assert got.final_decision() == want.final_decision(), str(clue)
            assert got.pointer_empty() == want.pointer_empty(), str(clue)

        addresses = probes((sender, receiver), burst, rng)
        assert_base_like_fresh(sender, addresses)
        assert_base_like_fresh(receiver, addresses)
    # Mutated in place, never rebound: every walk continuation holds it.
    assert live.problematic is problematic
    for entry in maintained.table.entries():
        if isinstance(entry.continuation, (TrieContinuation, PatriciaContinuation)):
            assert entry.continuation.problematic is problematic


@pytest.mark.parametrize("technique", sorted(BASELINES))
def test_apply_update_rejects_another_width(technique):
    base = BASELINES[technique]([(Prefix(0b1, 1, 32), "a")])
    foreign = [(Prefix(0, 8, 128), "x")]
    with pytest.raises(ValueError):
        base.apply_update(foreign, [], foreign)
    with pytest.raises(ValueError):
        base.apply_update([], [Prefix(0, 8, 128)], base.table())
    assert base.table() == [(Prefix(0b1, 1, 32), "a")]


def patricia_records(state, sender_trie):
    """Every Patricia-technique clue record, Simple and Advance, over
    the sender's clues: clue, final decision and where the Ptr resumes."""
    clues = list(sender_trie.prefixes())
    records = []
    for method in (SimpleMethod(state, "patricia"), AdvanceMethod(sender_trie, state, "patricia")):
        table = method.build_table(clues)
        for clue in clues:
            entry = table.probe(clue)
            ptr = entry.continuation
            records.append(
                (
                    method.method_name,
                    clue,
                    entry.final_decision(),
                    None if ptr is None else (ptr.entry.prefix, ptr.entry_is_clue_vertex),
                )
            )
    return records


@given(
    sender_table=tables,
    receiver_table=tables,
    burst=st.lists(updates, min_size=1, max_size=16),
)
@settings(max_examples=60, deadline=None)
def test_lazy_patricia_is_the_trie_of_the_current_entries(sender_table, receiver_table, burst):
    sender = ClueRouter("s", sender_table, technique="patricia")
    read_before = ClueRouter("b", receiver_table, technique="patricia")
    read_after = ClueRouter("a", receiver_table, technique="patricia")
    read_before.receiver.patricia  # built now, so the burst patches it
    sender.apply_update(*side_delta(burst, "sender"))
    for router in (read_before, read_after):
        router.apply_update(*side_delta(burst, "receiver"))
    eager = ReceiverState(read_after.receiver.entries, 32)
    eager.patricia  # built before anything else reads the state
    fresh = shape(PatriciaTrie.from_prefixes(eager.entries, 32))
    for state in (read_before.receiver, read_after.receiver, eager):
        assert state.entries == eager.entries
        assert shape(state.patricia) == fresh
    want = patricia_records(eager, sender.receiver.trie)
    assert patricia_records(read_before.receiver, sender.receiver.trie) == want
    assert patricia_records(read_after.receiver, sender.receiver.trie) == want
