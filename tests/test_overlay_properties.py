"""Property-based tests for the overlay: Claim 1 semantics and the
incremental update path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing import Prefix
from repro.trie import BinaryTrie, TrieOverlay


@st.composite
def prefix_lists(draw, max_size=20, depth=10):
    size = draw(st.integers(min_value=1, max_value=max_size))
    prefixes = set()
    for _ in range(size):
        length = draw(st.integers(min_value=1, max_value=depth))
        bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
        prefixes.add(Prefix(bits, length, 32))
    return sorted(prefixes)


def build_overlay(sender_prefixes, receiver_prefixes):
    sender = BinaryTrie.from_prefixes((p, "s") for p in sender_prefixes)
    receiver = BinaryTrie.from_prefixes((p, "r") for p in receiver_prefixes)
    return sender, receiver, TrieOverlay(sender, receiver)


def brute_force_problematic(sender, receiver, clue):
    """Claim 1's inverse, straight from Figure 6's condition."""
    for node in receiver.marked_in_subtree(clue):
        candidate = node.prefix
        if candidate.length <= clue.length:
            continue
        probe = candidate
        blocked = False
        while probe.length > clue.length:
            if sender.contains(probe):
                blocked = True
                break
            probe = probe.parent()
        if not blocked:
            return True
    return False


@given(prefix_lists(), prefix_lists())
@settings(max_examples=120, deadline=None)
def test_claim1_matches_brute_force(sender_prefixes, receiver_prefixes):
    sender, receiver, overlay = build_overlay(sender_prefixes, receiver_prefixes)
    for clue in sender_prefixes:
        assert overlay.is_problematic(clue) == brute_force_problematic(
            sender, receiver, clue
        ), str(clue)


@given(prefix_lists(), prefix_lists())
@settings(max_examples=100, deadline=None)
def test_potential_set_members_satisfy_condition_c1(
    sender_prefixes, receiver_prefixes
):
    sender, receiver, overlay = build_overlay(sender_prefixes, receiver_prefixes)
    for clue in sender_prefixes[:6]:
        for candidate in overlay.potential_set(clue):
            assert clue.is_prefix_of(candidate)
            assert candidate.length > clue.length
            assert receiver.contains(candidate)
            probe = candidate
            while probe.length > clue.length:
                assert not sender.contains(probe)
                probe = probe.parent()


@given(prefix_lists(), prefix_lists(), prefix_lists())
@settings(max_examples=80, deadline=None)
def test_incremental_receiver_updates_match_fresh_overlay(
    sender_prefixes, receiver_prefixes, updates
):
    """set_receiver_mark must agree with rebuilding the overlay."""
    sender, receiver, overlay = build_overlay(sender_prefixes, receiver_prefixes)
    live = set(receiver_prefixes)
    for prefix in updates:
        if prefix in live:
            live.discard(prefix)
            receiver.remove(prefix)
            overlay.set_receiver_mark(prefix, False)
        else:
            live.add(prefix)
            receiver.insert(prefix, "r")
            overlay.set_receiver_mark(prefix, True)
    fresh = TrieOverlay(sender, receiver)
    for clue in sender_prefixes:
        assert overlay.is_problematic(clue) == fresh.is_problematic(clue), str(clue)
        assert overlay.potential_set(clue) == fresh.potential_set(clue), str(clue)


@given(prefix_lists(), prefix_lists(), prefix_lists())
@settings(max_examples=80, deadline=None)
def test_incremental_sender_updates_match_fresh_overlay(
    sender_prefixes, receiver_prefixes, updates
):
    sender, receiver, overlay = build_overlay(sender_prefixes, receiver_prefixes)
    live = set(sender_prefixes)
    for prefix in updates:
        if prefix in live:
            live.discard(prefix)
            sender.remove(prefix)
            overlay.set_sender_mark(prefix, False)
        else:
            live.add(prefix)
            sender.insert(prefix, "s")
            overlay.set_sender_mark(prefix, True)
    fresh = TrieOverlay(sender, receiver)
    for clue in sorted(live):
        assert overlay.is_problematic(clue) == fresh.is_problematic(clue), str(clue)
        assert overlay.potential_set(clue) == fresh.potential_set(clue), str(clue)


@given(prefix_lists(), prefix_lists())
@settings(max_examples=60, deadline=None)
def test_stop_booleans_consistent_with_claim1(sender_prefixes, receiver_prefixes):
    _sender, _receiver, overlay = build_overlay(sender_prefixes, receiver_prefixes)
    stops = overlay.stop_booleans()
    for prefix, stop in stops.items():
        assert stop == overlay.claim1_holds(prefix)


@given(
    prefix_lists(max_size=30, depth=8),
    prefix_lists(max_size=30, depth=8),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["range", "hash"]),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_a_shard_clue_slice_decides_like_the_whole_sender_trie(
    sender_prefixes, receiver_prefixes, shards, mode, default_route
):
    """A shard's Advance entries built over a trie of its clue slice equal
    those built over the whole sender trie: FD, problematic flag and
    continuation start, and the stop booleans on every vertex of the
    shard's receiver trie.  Claim 1 only looks below a clue, and every
    sender prefix met there on a way to one of the shard's receiver
    prefixes overlaps the shard's range."""
    from repro.core import AdvanceMethod, ReceiverState
    from repro.serve import ShardPlan
    from repro.serve.shard import partition_slices

    if default_route:
        receiver_prefixes = [Prefix(0, 0, 32)] + receiver_prefixes
    sender = BinaryTrie.from_prefixes((p, "s") for p in sender_prefixes)
    receiver_entries = [(p, "r%d" % i) for i, p in enumerate(receiver_prefixes)]
    entry_slices, clue_slices = partition_slices(
        ShardPlan(shards, mode), receiver_entries, sender
    )
    for entries, clues in zip(entry_slices, clue_slices):
        state = ReceiverState(entries, 32)
        whole = AdvanceMethod(sender, state, "regular")
        sliced = AdvanceMethod(
            BinaryTrie.from_prefixes((clue, None) for clue in clues),
            state,
            "regular",
        )
        for clue in clues:
            expected, got = whole.build_entry(clue), sliced.build_entry(clue)
            assert (got.fd_prefix, got.fd_next_hop) == (
                expected.fd_prefix,
                expected.fd_next_hop,
            ), str(clue)
            assert sliced.overlay.is_problematic(clue) == (
                whole.overlay.is_problematic(clue)
            ), str(clue)
            starts = [
                entry.continuation.start.prefix
                if entry.continuation is not None
                else None
                for entry in (expected, got)
            ]
            assert starts[0] == starts[1], str(clue)
        for node in state.trie.nodes():
            assert sliced.stops[node.prefix] == whole.stops[node.prefix], str(
                node.prefix
            )


def wide_prefixes(data, width, max_size=12):
    """Prefixes of any length up to ``width``, the root included."""
    found = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=max_size))):
        length = data.draw(st.integers(min_value=0, max_value=width))
        bits = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
        found.append(Prefix(bits, length, width))
    return found


def churned_trie(data, width, tag):
    """A trie over a random table after a burst of inserts and removes,
    with the set of prefixes it should hold."""
    trie = BinaryTrie(width)
    live = set()
    for prefix in wide_prefixes(data, width):
        trie.insert(prefix, tag)
        live.add(prefix)
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        if live and data.draw(st.booleans()):
            prefix = data.draw(st.sampled_from(sorted(live)))
            assert trie.remove(prefix)
            live.discard(prefix)
        else:
            for prefix in wide_prefixes(data, width, max_size=1):
                trie.insert(prefix, tag)
                live.add(prefix)
    return trie, live


def assert_vertices_spell_their_paths(root, width):
    """Each child's prefix is its parent's extended by the edge bit,
    built through the checked constructor."""
    assert root.prefix == Prefix(0, 0, width)
    for vertex in root.subtree():
        parent = vertex.prefix
        for bit, child in vertex.children.items():
            spelled = Prefix((parent.bits << 1) | bit, parent.length + 1, width)
            assert child.prefix == spelled, str(child.prefix)


def closure(live, width):
    """Every vertex a pruned trie over ``live`` has: the root and every
    prefix of a live prefix."""
    vertices = {Prefix(0, 0, width)}
    for prefix in live:
        for length in range(prefix.length + 1):
            vertices.add(
                Prefix(prefix.bits >> (prefix.length - length), length, width)
            )
    return vertices


def brute_force_unclaimed(sender_live, receiver_live):
    """Vertices with a receiver prefix at or below them and no sender
    prefix on the way down to it, the vertex itself included."""
    unclaimed = set()
    for prefix in receiver_live:
        probe = prefix
        while probe not in sender_live:
            unclaimed.add(probe)
            if not probe.length:
                break
            probe = Prefix(probe.bits >> 1, probe.length - 1, probe.width)
    return unclaimed


@pytest.mark.parametrize("width", [32, 128])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fresh_overlay_vertices_spell_their_paths(width, data):
    """Trie and overlay vertices carry the prefix their own path spells.

    The incremental-vs-fresh tests compare two overlays built by the
    same walk; this one checks a fresh overlay against the tries it
    merges and against the definitions, so a wrong shift shows."""
    sender, sender_live = churned_trie(data, width, "s")
    receiver, receiver_live = churned_trie(data, width, "r")
    for trie, live in ((sender, sender_live), (receiver, receiver_live)):
        assert_vertices_spell_their_paths(trie.root, width)
        assert {node.prefix for node in trie.nodes()} == closure(live, width)
        assert {node.prefix for node in trie.nodes() if node.marked} == live

    overlay = TrieOverlay(sender, receiver)
    assert_vertices_spell_their_paths(overlay.root, width)
    vertices = list(overlay.root.subtree())
    assert {v.prefix for v in vertices} == closure(sender_live, width) | closure(
        receiver_live, width
    )
    unclaimed = brute_force_unclaimed(sender_live, receiver_live)
    for vertex in vertices:
        assert vertex.marked1 == (vertex.prefix in sender_live), str(vertex.prefix)
        assert vertex.marked2 == (vertex.prefix in receiver_live), str(vertex.prefix)
        assert vertex.unclaimed == (vertex.prefix in unclaimed), str(vertex.prefix)
    assert list(overlay.stop_booleans()) == [v.prefix for v in vertices]
