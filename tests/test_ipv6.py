"""IPv6 coverage: the clue scheme at width 128 with a 7-bit field.

The paper argues the scheme "is expected to give similar performances in
IPv6 while the Log W technique does not scale as good"; these tests
exercise every layer at width 128.
"""

import math
import random
import sys

import pytest

from repro.addressing import Prefix, clue_field_width
from repro.core import (
    AdvanceMethod,
    ClueAssistedLookup,
    ReceiverState,
    SimpleMethod,
    encode_clue,
)
from repro.fastpath import (
    CODE_RESUMED,
    LAYOUTS,
    STRIDES,
    as_destination_array,
    as_length_array,
    certify_clue,
    certify_full,
    compile_clue_table,
    compile_layout,
    compile_trie,
    full_lookup_batch,
    lookup_batch,
)
from repro.fastpath.kernels import SCALAR_RESUME_LANES
from repro.lookup import BASELINES, MemoryCounter, reference_lookup
from repro.tablegen import DEFAULT_IPV6_HISTOGRAM, generate_table
from repro.trie import BinaryTrie, TrieOverlay


@pytest.fixture(scope="module")
def v6_pair():
    sender = generate_table(
        400, seed=61, histogram=DEFAULT_IPV6_HISTOGRAM, width=128
    )
    # Derive the receiver by dropping/adding a few entries manually (the
    # generic derive helper is IPv4-oriented in its extras).
    rng = random.Random(62)
    receiver = [entry for entry in sender if rng.random() > 0.02]
    for prefix, hop in sender[:50]:
        if prefix.length + 8 <= 128 and rng.random() < 0.05:
            bits = (prefix.bits << 8) | rng.getrandbits(8)
            receiver.append((Prefix(bits, prefix.length + 8, 128), "v6-extra"))
    receiver = sorted(
        dict(receiver).items(), key=lambda item: (item[0].length, item[0].bits)
    )
    return sender, receiver


class TestIPv6Basics:
    def test_clue_field_is_seven_bits(self):
        assert clue_field_width(128) == 7
        assert encode_clue(128, width=128) == 128

    def test_generated_prefixes_are_v6(self, v6_pair):
        sender, _ = v6_pair
        assert all(prefix.width == 128 for prefix, _ in sender)

    def test_overlay_works_at_width_128(self, v6_pair):
        sender, receiver = v6_pair
        overlay = TrieOverlay(
            BinaryTrie.from_prefixes(sender, 128),
            BinaryTrie.from_prefixes(receiver, 128),
        )
        stats = overlay.statistics()
        assert stats["sender_prefixes"] == len(sender)


class TestIPv6Lookups:
    @pytest.mark.parametrize("technique", sorted(BASELINES))
    def test_baselines_correct(self, v6_pair, technique, rng):
        sender, _ = v6_pair
        lookup = BASELINES[technique](sender, width=128)
        for _ in range(60):
            prefix, _hop = sender[rng.randrange(len(sender))]
            address = prefix.random_address(rng)
            expected, _ = reference_lookup(sender, address)
            assert lookup.lookup(address).prefix == expected

    @pytest.mark.parametrize("technique", ("patricia", "binary", "logw"))
    def test_clue_methods_correct_and_cheap(self, v6_pair, technique, rng):
        sender, receiver_entries = v6_pair
        sender_trie = BinaryTrie.from_prefixes(sender, 128)
        receiver = ReceiverState(receiver_entries, 128)
        advance = AdvanceMethod(sender_trie, receiver, technique)
        lookup = ClueAssistedLookup(
            BASELINES[technique](receiver_entries, width=128),
            advance.build_table(),
        )
        total = 0
        measured = 0
        for _ in range(150):
            prefix, _hop = sender[rng.randrange(len(sender))]
            address = prefix.random_address(rng)
            clue = sender_trie.best_prefix(address)
            if clue is None:
                continue
            expected, _ = receiver.best_match(address)
            counter = MemoryCounter()
            result = lookup.lookup(address, clue, counter)
            assert result.prefix == expected
            total += counter.accesses
            measured += 1
        assert total / measured < 1.6  # near-one references, like IPv4

    def test_regular_trie_cost_grows_with_width(self, v6_pair, rng):
        """The motivation: O(W) baselines hurt at W=128; clues do not."""
        sender, receiver_entries = v6_pair
        regular = BASELINES["regular"](receiver_entries, width=128)
        sender_trie = BinaryTrie.from_prefixes(sender, 128)
        receiver = ReceiverState(receiver_entries, 128)
        advance = AdvanceMethod(sender_trie, receiver, "regular")
        assisted = ClueAssistedLookup(regular, advance.build_table())
        common_total, clue_total, measured = 0, 0, 0
        for _ in range(100):
            prefix, _hop = sender[rng.randrange(len(sender))]
            address = prefix.random_address(rng)
            clue = sender_trie.best_prefix(address)
            if clue is None:
                continue
            common_total += regular.lookup(address).accesses
            counter = MemoryCounter()
            assisted.lookup(address, clue, counter)
            clue_total += counter.accesses
            measured += 1
        assert common_total / measured > 20  # deep V6 walks
        assert clue_total / measured < 2


def stamped_destinations(sender, count=600, seed=63):
    """Destinations under the sender's prefixes, each with the clue
    length a well-formed upstream stamps: its sender-BMP length."""
    sender_trie = BinaryTrie.from_prefixes(sender, 128)
    rng = random.Random(seed)
    values, lens = [], []
    for _ in range(count):
        prefix, _hop = sender[rng.randrange(len(sender))]
        address = prefix.random_address(rng)
        values.append(address.value)
        lens.append(sender_trie.best_prefix(address).length)
    return values, lens


class TestIPv6Batches:
    """Width-128 tables compile on every layout, and the numpy kernels,
    run on object lanes, certify against the scalar lookups."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("method", ["simple", "advance"])
    def test_clue_tables_certify_on_every_layout(self, v6_pair, method, layout):
        sender, receiver = v6_pair
        sender_trie = BinaryTrie.from_prefixes(sender, 128)
        state = ReceiverState(receiver, 128)
        clues = list(sender_trie.prefixes())
        if method == "simple":
            table = SimpleMethod(state, "regular").build_table(clues)
        else:
            table = AdvanceMethod(sender_trie, state, "regular").build_table(clues)
        ctable = compile_clue_table(table, compile_layout(state.trie, layout))
        scalar = ClueAssistedLookup(BASELINES["regular"](receiver, width=128), table)
        values, lens = stamped_destinations(sender)
        # The full-lookup layout (and a stride layout's dense base), then
        # the clue kernel.
        kernels = 3 if layout in STRIDES else 2
        assert certify_clue(ctable, scalar, values, lens) == kernels * len(values)
        methods = lookup_batch(
            ctable, as_destination_array(values, 128), as_length_array(lens)
        )[0]
        resumed = int((methods == CODE_RESUMED).sum())
        # Simple resumes enough lanes that the walk below the clue
        # vectorizes; Advance resumes a few, walked one by one.
        if method == "simple":
            assert resumed > SCALAR_RESUME_LANES
        else:
            assert 0 < resumed <= SCALAR_RESUME_LANES

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_full_lookups_certify_on_every_layout(self, v6_pair, layout):
        sender, receiver = v6_pair
        rng = random.Random(64)
        values = stamped_destinations(sender, 300)[0]
        values += [rng.getrandbits(128) for _ in range(100)]  # mostly no match
        lay = compile_layout(ReceiverState(receiver, 128).trie, layout)
        base = BASELINES["regular"](receiver, width=128)
        layouts = 2 if layout in STRIDES else 1
        assert certify_full(lay, base, values) == layouts * len(values)
        if layout in STRIDES:  # stride descent changes the count; that is the point
            memrefs = full_lookup_batch(lay, as_destination_array(values, 128))[1]
            bound = math.ceil(128 / STRIDES[layout])
            assert 1 <= int(memrefs.min()) and int(memrefs.max()) <= bound


class TestIPv6Footprint:
    def test_clue_table_nbytes_counts_each_key_object(self, v6_pair):
        # Width-128 probe keys live in an object array: an 8-byte pointer
        # per key plus the Python int it points to.
        sender, receiver = v6_pair
        sender_trie = BinaryTrie.from_prefixes(sender, 128)
        state = ReceiverState(receiver, 128)
        table = AdvanceMethod(sender_trie, state, "regular").build_table(
            list(sender_trie.prefixes())
        )
        ctable = compile_clue_table(table, compile_trie(state.trie))
        keys = ctable.probe_keys
        assert keys.dtype == object and len(keys) > 0
        assert ctable.nbytes() == (
            8 * len(keys)
            + sum(sys.getsizeof(key) for key in keys)
            + 8 * len(ctable.probe_recs)
            + 4 * 8 * ctable.records
            + ctable.stop_masks.nbytes
        )
