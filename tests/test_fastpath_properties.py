"""Hypothesis differential tests: batch kernels vs the scalar path.

Random sender/receiver pairs — including empty receivers, default-route-
only tables, and nested prefixes of any length up to the full width —
are compiled and swept with random destinations under clueless (−1),
clue=0, the sender's true BMP, arbitrary prefix-of-destination clue
lengths, and the out-of-range lengths −2 and width + 1.  Every lane
must agree with the object-graph lookup on (prefix, next hop, method,
memrefs, new clue) — `certify_clue` raises on the first disagreement —
and the numpy kernels must agree with the pure-Python fallback.
"""

from hypothesis import given, settings, strategies as st

from repro.addressing import Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath import (
    HAVE_NUMPY,
    as_destination_array,
    as_length_array,
    certify_clue,
    certify_full,
    compile_clue_table,
    compile_trie,
    lookup_batch,
)
from repro.lookup.regular import RegularTrieLookup
from repro.trie.binary_trie import BinaryTrie

WIDTH = 32

addresses = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


@st.composite
def random_pairs(draw):
    """(sender entries, receiver entries): possibly empty, possibly just
    a default route, usually overlapping so clues resolve both ways."""
    size = draw(st.integers(min_value=1, max_value=12))
    prefixes = set()
    for _ in range(size):
        length = draw(st.integers(min_value=0, max_value=WIDTH))
        bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
        prefixes.add(Prefix(bits, length, WIDTH))
    sender = [(prefix, "s%d" % i) for i, prefix in enumerate(sorted(prefixes))]
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        receiver = []
    elif shape == 1:
        receiver = [(Prefix(0, 0, WIDTH), "default")]
    else:
        keep = draw(
            st.sets(st.integers(min_value=0, max_value=len(sender) - 1))
        )
        receiver = [
            (prefix, "r%d" % i)
            for i, (prefix, _hop) in enumerate(sender)
            if i not in keep
        ]
    return sender, receiver


def build(sender, receiver, method):
    sender_trie = BinaryTrie(WIDTH)
    for prefix, hop in sender:
        sender_trie.insert(prefix, hop)
    state = ReceiverState(receiver, WIDTH)
    if method == "simple":
        builder = SimpleMethod(state, "regular")
    else:
        builder = AdvanceMethod(sender_trie, state, "regular")
    table = builder.build_table(list(sender_trie.prefixes()))
    base = RegularTrieLookup(receiver, WIDTH)
    scalar = ClueAssistedLookup(RegularTrieLookup(receiver, WIDTH), table)
    ctrie = compile_trie(state.trie)
    return sender_trie, base, scalar, ctrie, compile_clue_table(table, ctrie)


def sweep(sender_trie, values, extra_lens):
    """Destinations × clue lengths: clueless, clue=0, true BMP, arbitrary,
    and the out-of-range lengths −2 and width + 1 on either side of the
    merged probe key's length field."""
    destinations, lens = [], []
    for i, value in enumerate(values):
        bmp = sender_trie.best_prefix(Address(value, WIDTH))
        bmp_length = bmp.length if bmp else 0
        for length in (-1, 0, bmp_length, extra_lens[i], -2, WIDTH + 1):
            destinations.append(value)
            lens.append(length)
    return destinations, lens


@given(
    random_pairs(),
    st.lists(addresses, min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_regular_batch_matches_scalar(pair, values):
    sender, receiver = pair
    sender_trie, base, _scalar, ctrie, _ctable = build(sender, receiver, "simple")
    assert certify_full(ctrie, base, values) == len(values)
    if HAVE_NUMPY:
        certify_full(ctrie, base, values, force_python=True)


@given(
    random_pairs(),
    st.lists(addresses, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=WIDTH), min_size=6, max_size=6),
    st.sampled_from(["simple", "advance"]),
)
@settings(max_examples=120, deadline=None)
def test_clue_batch_matches_scalar(pair, values, extra_lens, method):
    sender, receiver = pair
    sender_trie, _base, scalar, _ctrie, ctable = build(sender, receiver, method)
    destinations, lens = sweep(sender_trie, values, extra_lens)
    assert certify_clue(ctable, scalar, destinations, lens) == len(destinations)


@given(
    random_pairs(),
    st.lists(addresses, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=WIDTH), min_size=6, max_size=6),
    st.sampled_from(["simple", "advance"]),
)
@settings(max_examples=60, deadline=None)
def test_numpy_and_fallback_lanes_agree(pair, values, extra_lens, method):
    if not HAVE_NUMPY:
        return
    sender, receiver = pair
    sender_trie, _base, _scalar, _ctrie, ctable = build(sender, receiver, method)
    destinations, lens = sweep(sender_trie, values, extra_lens)
    dsts = as_destination_array(destinations, WIDTH)
    clue_lens = as_length_array(lens, WIDTH)
    fast = lookup_batch(ctable, dsts, clue_lens)
    slow = lookup_batch(ctable, dsts, clue_lens, force_python=True)
    for fast_column, slow_column in zip(fast, slow):
        assert [int(v) for v in fast_column] == [int(v) for v in slow_column]
