"""Differential and structural tests for the compiled layout family.

Random sender/receiver pairs at width 32 or 128 — including empty
receivers, default-route-only tables, and clue=0 edges — are compiled
into every layout (dense, multibit4, multibit8) and certified against
the scalar object-graph path: prefix, next hop, method and new clue must
be bit-identical; memrefs are compared only for the dense layout, whose
cost model matches the scalar walk step for step.

The leaf-pushing property is pinned structurally: a stride descent must
terminate within ``ceil(width / stride)`` probes on *every* input.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.addressing import Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath import (
    LAYOUTS,
    STRIDES,
    CompiledMultibitTrie,
    as_destination_array,
    certify_clue,
    certify_full,
    compile_clue_table,
    compile_layout,
    compile_trie,
    full_lookup_batch,
    layout_stride,
)
from repro.lookup.regular import RegularTrieLookup
from repro.trie.binary_trie import BinaryTrie

WIDTH = 32

layout_names = st.sampled_from(LAYOUTS)


def addresses(width):
    return st.integers(min_value=0, max_value=(1 << width) - 1)


@st.composite
def random_pairs(draw):
    """(width, sender entries, receiver entries): IPv4 or IPv6, possibly
    empty, possibly just a default route, usually overlapping so clues
    resolve both ways."""
    width = draw(st.sampled_from([32, 128]))
    size = draw(st.integers(min_value=1, max_value=12))
    prefixes = set()
    for _ in range(size):
        length = draw(st.integers(min_value=0, max_value=12))
        bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
        prefixes.add(Prefix(bits, length, width))
    sender = [(prefix, "s%d" % i) for i, prefix in enumerate(sorted(prefixes))]
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        receiver = []
    elif shape == 1:
        receiver = [(Prefix(0, 0, width), "default")]
    else:
        keep = draw(
            st.sets(st.integers(min_value=0, max_value=len(sender) - 1))
        )
        receiver = [
            (prefix, "r%d" % i)
            for i, (prefix, _hop) in enumerate(sender)
            if i not in keep
        ]
    return width, sender, receiver


def build(width, sender, receiver, method, layout):
    sender_trie = BinaryTrie(width)
    for prefix, hop in sender:
        sender_trie.insert(prefix, hop)
    state = ReceiverState(receiver, width)
    if method == "simple":
        builder = SimpleMethod(state, "regular")
    else:
        builder = AdvanceMethod(sender_trie, state, "regular")
    table = builder.build_table(list(sender_trie.prefixes()))
    base = RegularTrieLookup(receiver, width)
    scalar = ClueAssistedLookup(RegularTrieLookup(receiver, width), table)
    lay = compile_layout(state.trie, layout)
    return sender_trie, base, scalar, lay, compile_clue_table(table, lay)


def sweep(sender_trie, values, extra_lens):
    destinations, lens = [], []
    for i, value in enumerate(values):
        bmp = sender_trie.best_prefix(Address(value, sender_trie.width))
        for length in (-1, 0, bmp.length if bmp else 0, extra_lens[i]):
            destinations.append(value)
            lens.append(length)
    return destinations, lens


# ----------------------------------------------------------------------
# differential: every layout certifies against the scalar path
# ----------------------------------------------------------------------
@given(random_pairs(), st.data(), layout_names)
@settings(max_examples=60, deadline=None)
def test_full_lookup_certifies_on_every_layout(pair, data, layout):
    width, sender, receiver = pair
    values = data.draw(st.lists(addresses(width), min_size=1, max_size=8))
    _trie, base, _scalar, lay, _ctable = build(
        width, sender, receiver, "simple", layout
    )
    # A stride layout certifies together with the dense base it carries.
    layouts_certified = 2 if layout in STRIDES else 1
    assert certify_full(lay, base, values) == len(values) * layouts_certified


@given(
    random_pairs(),
    st.data(),
    st.sampled_from(["simple", "advance"]),
    st.sampled_from(sorted(STRIDES)),
)
@settings(max_examples=80, deadline=None)
def test_clue_lookup_certifies_on_multibit_layouts(pair, data, method, layout):
    width, sender, receiver = pair
    values = data.draw(st.lists(addresses(width), min_size=1, max_size=6))
    extra_lens = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=width), min_size=6, max_size=6
        )
    )
    sender_trie, _base, scalar, _lay, ctable = build(
        width, sender, receiver, method, layout
    )
    destinations, lens = sweep(sender_trie, values, extra_lens)
    # The stride layout, the dense base it carries, then the clue kernel.
    assert certify_clue(ctable, scalar, destinations, lens) == 3 * len(destinations)


# ----------------------------------------------------------------------
# leaf pushing: descent terminates within ceil(width / stride) probes
# ----------------------------------------------------------------------
@given(random_pairs(), st.data(), st.sampled_from(sorted(STRIDES)))
@settings(max_examples=60, deadline=None)
def test_stride_descent_is_probe_bounded(pair, data, layout):
    width, _sender, receiver = pair
    values = data.draw(st.lists(addresses(width), min_size=1, max_size=12))
    state = ReceiverState(receiver, width)
    lay = compile_layout(state.trie, layout)
    bound = math.ceil(width / lay.stride)
    assert len(lay.level_shifts) == bound
    dsts = as_destination_array(values, width)
    _codes, refs = full_lookup_batch(lay, dsts)
    assert all(1 <= int(r) <= bound for r in refs)


# ----------------------------------------------------------------------
# construction, packing, and accounting
# ----------------------------------------------------------------------
def small_state():
    entries = [
        (Prefix(0, 0, WIDTH), "default"),
        (Prefix(0b1010, 4, WIDTH), "a"),
        (Prefix(0b10100000, 8, WIDTH), "b"),
        (Prefix(0b0001, 4, WIDTH), "a"),
    ]
    return ReceiverState(entries, WIDTH)


def test_compile_layout_reuses_the_dense_base():
    state = small_state()
    ctrie = compile_trie(state.trie)
    assert compile_layout(ctrie, "dense") is ctrie
    mtrie = compile_layout(ctrie, "multibit8")
    assert type(mtrie) is CompiledMultibitTrie
    assert mtrie.base is ctrie
    assert mtrie.pool is ctrie.pool
    assert layout_stride(ctrie) == 0
    assert layout_stride(mtrie) == 8


def test_compile_layout_rejects_unknown_names_and_inputs():
    state = small_state()
    try:
        compile_layout(state.trie, "multibit16")
    except ValueError as error:
        assert "multibit16" in str(error)
    else:
        raise AssertionError("unknown layout accepted")
    try:
        compile_layout(object(), "dense")
    except TypeError:
        pass
    else:
        raise AssertionError("non-trie input accepted")


def test_leaf_pool_is_frequency_ranked():
    state = small_state()
    mtrie = compile_layout(state.trie, "multibit4")
    counts = {}
    for value in mtrie.slots.tolist():
        if value < 0:
            packed = -(value + 1)
            counts[packed] = counts.get(packed, 0) + 1
    ranked = sorted(counts, key=lambda packed: (-counts[packed], packed))
    # Index 0 must be (one of) the most frequent leaf outcomes.
    assert counts[0] == counts[ranked[0]]
    assert len(mtrie.leaf_codes) == len(counts)


def test_nbytes_accounting_is_consistent():
    state = small_state()
    ctrie = compile_trie(state.trie)
    assert ctrie.nbytes() == (len(ctrie.child) + len(ctrie.node_result)) * 8
    assert ctrie.pool.nbytes() == len(ctrie.pool.lengths) * 8
    for layout in sorted(STRIDES):
        mtrie = compile_layout(ctrie, layout)
        expected = (
            len(mtrie.slots) * mtrie.slot_bytes + len(mtrie.leaf_codes) * 8
        )
        assert mtrie.nbytes() == expected
        assert mtrie.slot_bytes in (1, 2, 4, 8)
        assert mtrie.leaf_bits >= 1
        assert 0.0 <= mtrie.leaf_entropy_bits() <= mtrie.leaf_bits


def test_empty_and_default_only_tables_compile_everywhere():
    for width in (32, 128):
        for entries in ([], [(Prefix(0, 0, width), "default")]):
            state = ReceiverState(entries, width)
            base = RegularTrieLookup(entries, width)
            for layout in LAYOUTS:
                lay = compile_layout(state.trie, layout)
                certify_full(lay, base, [0, 1, (1 << width) - 1, 0xDEADBEEF])
