"""Property-based tests for the overlay: Claim 1 semantics and the
incremental update path (:meth:`TrieOverlay.refresh`)."""

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


def assert_same_sets(overlay, fresh):
    assert overlay.unclaimed == fresh.unclaimed
    assert overlay.problematic == fresh.problematic


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
    """Refreshing after each receiver change must agree with rebuilding
    the overlay."""
    sender, receiver, overlay = build_overlay(sender_prefixes, receiver_prefixes)
    live = set(receiver_prefixes)
    for prefix in updates:
        if prefix in live:
            live.discard(prefix)
            receiver.remove(prefix)
        else:
            live.add(prefix)
            receiver.insert(prefix, "r")
        overlay.refresh(prefix)
    fresh = TrieOverlay(sender, receiver)
    assert_same_sets(overlay, fresh)
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
        else:
            live.add(prefix)
            sender.insert(prefix, "s")
        overlay.refresh(prefix)
    fresh = TrieOverlay(sender, receiver)
    assert_same_sets(overlay, fresh)
    for clue in sorted(live):
        assert overlay.is_problematic(clue) == fresh.is_problematic(clue), str(clue)
        assert overlay.potential_set(clue) == fresh.potential_set(clue), str(clue)


@given(prefix_lists(), prefix_lists())
@settings(max_examples=60, deadline=None)
def test_stop_booleans_consistent_with_claim1(sender_prefixes, receiver_prefixes):
    """``problematic`` (a walk's "go on" set, §4) is exactly the set of
    vertices, of either trie, where Claim 1 fails."""
    sender, receiver, overlay = build_overlay(sender_prefixes, receiver_prefixes)
    vertices = {node.prefix for trie in (sender, receiver) for node in trie.nodes()}
    fails = {
        vertex
        for vertex in vertices
        if brute_force_problematic(sender, receiver, vertex)
    }
    assert overlay.problematic == fails
    for vertex in vertices:
        assert overlay.claim1_holds(vertex) == (vertex not in fails), str(vertex)


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
    continuation start, and both Claim 1 sets (which hold only vertices
    of the shard's receiver trie), so every stop boolean.  Claim 1 only
    looks below a clue, and every sender prefix met there on a way to
    one of the shard's receiver prefixes overlaps the shard's range."""
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
        assert_same_sets(sliced.overlay, whole.overlay)


def wide_prefix(data, width):
    """A prefix of any length up to ``width``, the root included."""
    length = data.draw(st.integers(min_value=0, max_value=width))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    return Prefix(bits, length, width)


def nearby_prefix(data, width, known):
    """A fresh prefix, or one of ``known`` cut short or extended by a
    few bits, so that bursts nest, share paths and hit live prefixes."""
    if not known or data.draw(st.booleans()):
        return wide_prefix(data, width)
    base = data.draw(st.sampled_from(known))
    length = data.draw(
        st.integers(min_value=0, max_value=min(width, base.length + 3))
    )
    if length <= base.length:
        return Prefix(base.bits >> (base.length - length), length, width)
    extra = length - base.length
    low = data.draw(st.integers(min_value=0, max_value=(1 << extra) - 1))
    return Prefix((base.bits << extra) | low, length, width)


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


def brute_force_sets(sender_live, receiver_live):
    """``unclaimed`` and ``problematic`` from their definitions: a vertex
    is problematic when one of its children is unclaimed."""
    unclaimed = brute_force_unclaimed(sender_live, receiver_live)
    problematic = {
        Prefix(vertex.bits >> 1, vertex.length - 1, vertex.width)
        for vertex in unclaimed
        if vertex.length
    }
    return unclaimed, problematic


def assert_matches_definitions(overlay, tries, live, width):
    """Both tries hold exactly their live prefixes, and both sets equal
    their definitions over those prefixes, inside the receiver trie."""
    for side in ("s", "r"):
        assert_vertices_spell_their_paths(tries[side].root, width)
        assert {node.prefix for node in tries[side].nodes()} == closure(
            live[side], width
        )
        assert {
            node.prefix for node in tries[side].nodes() if node.marked
        } == live[side]
    unclaimed, problematic = brute_force_sets(live["s"], live["r"])
    assert overlay.unclaimed == unclaimed
    assert overlay.problematic == problematic
    assert unclaimed | problematic <= closure(live["r"], width)


@pytest.mark.parametrize("width", [32, 128])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sets_match_their_definitions_through_bursts(width, data):
    """Both sets equal their brute-force definitions and hold receiver
    vertices only, fresh and after every burst of inserts and removes
    on both sides refreshed as :meth:`MaintainedClueTable.apply_batch`
    does: every trie patched first, then one refresh per change.

    The definitions are computed from the live prefix sets alone, so a
    wrong shift in a trie walk or in the refresh shows; the tries are
    checked against the same sets."""
    tries = {side: BinaryTrie(width) for side in ("s", "r")}
    live = {side: set() for side in ("s", "r")}
    for side in ("s", "r"):
        for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
            prefix = wide_prefix(data, width)
            tries[side].insert(prefix, side)
            live[side].add(prefix)
    overlay = TrieOverlay(tries["s"], tries["r"])
    problematic = overlay.problematic
    assert_matches_definitions(overlay, tries, live, width)
    for _burst in range(data.draw(st.integers(min_value=0, max_value=5))):
        changed = []
        for _update in range(data.draw(st.integers(min_value=1, max_value=6))):
            side = data.draw(st.sampled_from(("s", "r")))
            prefix = nearby_prefix(data, width, sorted(live["s"] | live["r"]))
            if prefix in live[side]:
                assert tries[side].remove(prefix)
                live[side].discard(prefix)
            else:
                tries[side].insert(prefix, side)
                live[side].add(prefix)
            changed.append(prefix)
        for prefix in changed:
            overlay.refresh(prefix)
        assert_matches_definitions(overlay, tries, live, width)
    assert overlay.problematic is problematic
    assert_same_sets(overlay, TrieOverlay(tries["s"], tries["r"]))
