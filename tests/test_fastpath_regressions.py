"""Pinning regressions from the fastpath work.

* The batched samplers must be *stream-identical* to the historical
  per-packet RNG loops — same samples AND same RNG state afterwards, so
  any code drawing from the same `random.Random` downstream sees the
  exact numbers it always did.
* `generate_table` used to truncate silently at large counts: a single
  saturated prefix length (only 48 /8 top blocks exist) burned the whole
  global attempt budget, so a 20 000-entry request returned 48 entries.
* The batch packers convert plain-int lists in one call but must still
  unwrap ``Address`` objects, at both widths, and the merged clue-probe
  key must keep records that share ``bits`` across clue lengths apart.
* Resumed walks step from each lane's own continuation depth, and a
  Claim-1 stop bit still ends a walk where the receiver trie goes on.
* ``certify_full`` walks the scalar reference once per destination but
  still compares every lane, and a stride layout certifies together
  with the dense base it carries: a fault in either fails the call.
* A shard build walks its scalar base once per sweep destination, plus
  once per clue miss: ``certify_clue`` compares the full-lookup kernel
  and every clueless lane against the same walk.
"""

import random

import numpy as np
import pytest

from repro.addressing import Address
from repro.experiments import (
    uniform_destination_sample,
    zipf_destination_sample,
)
from repro.tablegen import generate_table
from repro.tablegen.synthetic import DEFAULT_TOP_BLOCKS
from repro.trie.binary_trie import BinaryTrie


def small_trie(width=32):
    entries = generate_table(60, seed=9, width=width)
    trie = BinaryTrie(width)
    for prefix, hop in entries:
        trie.insert(prefix, hop)
    return entries, trie


# ----------------------------------------------------------------------
# uniform sampler: one getrandbits(width * n) == n x getrandbits(width)
# ----------------------------------------------------------------------
def reference_uniform(trie, count, seed, width):
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        destination = Address(rng.getrandbits(width), width)
        samples.append((destination, trie.best_prefix(destination)))
    return samples, rng


def test_uniform_sampler_is_stream_identical():
    for width in (32, 128):
        _entries, trie = small_trie(width)
        for count in (0, 1, 7, 64):
            expected, reference_rng = reference_uniform(trie, count, 5, width)
            got = uniform_destination_sample(trie, count, seed=5, width=width)
            assert [
                (address.value, prefix) for address, prefix in got
            ] == [(address.value, prefix) for address, prefix in expected]
            # The RNG state continues identically after the batch draw.
            continued = random.Random(5)
            continued.getrandbits(width * count) if count else None
            assert continued.random() == reference_rng.random()


# ----------------------------------------------------------------------
# zipf sampler: hoisted cumulative weights == random.choices per packet
# ----------------------------------------------------------------------
def reference_zipf(entries, trie, count, seed, exponent):
    rng = random.Random(seed)
    ranked = list(entries)
    rng.shuffle(ranked)
    weights = [1.0 / ((rank + 1) ** exponent) for rank in range(len(ranked))]
    samples = []
    while len(samples) < count:
        prefix, _hop = rng.choices(ranked, weights=weights, k=1)[0]
        destination = prefix.random_address(rng)
        clue = trie.best_prefix(destination)
        if clue is not None:
            samples.append((destination, clue))
    return samples


def test_zipf_sampler_is_stream_identical():
    entries, trie = small_trie()
    for exponent in (0.0, 0.8, 1.4):
        expected = reference_zipf(entries, trie, 40, 7, exponent)
        got = zipf_destination_sample(
            entries, trie, 40, seed=7, exponent=exponent
        )
        assert [
            (address.value, prefix) for address, prefix in got
        ] == [(address.value, prefix) for address, prefix in expected]


# ----------------------------------------------------------------------
# tablegen: large counts no longer truncate
# ----------------------------------------------------------------------
def test_generate_table_survives_saturated_lengths():
    count = 6000
    entries = generate_table(count, seed=42)
    # The old failure mode returned DEFAULT_TOP_BLOCKS (48) entries: the
    # first impossible /8 draw consumed the entire global budget.
    assert len(entries) > DEFAULT_TOP_BLOCKS * 10
    assert len(entries) >= int(count * 0.97)
    assert len({prefix for prefix, _hop in entries}) == len(entries)


def test_generate_table_small_streams_unchanged():
    # The per-entry attempt cap must not perturb draws that never hit it.
    assert generate_table(300, seed=1) == generate_table(300, seed=1)
    lengths = {prefix.length for prefix, _hop in generate_table(300, seed=1)}
    assert len(lengths) > 3


# ----------------------------------------------------------------------
# kernels: packing an already-packed batch must be the identity
# ----------------------------------------------------------------------
def test_packed_arrays_pass_through_untouched():
    from repro.fastpath.kernels import as_destination_array, as_length_array

    dsts = np.asarray([1, 2, 3], dtype=np.int64)
    lens = np.asarray([-1, 0, 24], dtype=np.int64)
    # The serve batcher re-packs every coalesced batch; re-boxing an
    # int64 array element by element was pure hot-path overhead, so the
    # pass-through must be the *same object*, not an equal copy.
    assert as_destination_array(dsts) is dsts
    assert as_length_array(lens) is lens
    # Other dtypes still convert (and plain sequences still box).
    narrow = np.asarray([1, 2], dtype=np.int32)
    assert as_destination_array(narrow).dtype == np.int64
    assert list(as_destination_array([7, 8])) == [7, 8]


def reference_pack(values, dtype=np.int64):
    """The element-by-element packer every list used to go through."""
    return np.asarray(
        [int(getattr(value, "value", value)) for value in values],
        dtype=dtype,
    )


def test_packers_unwrap_address_and_mixed_lists():
    from repro.fastpath.kernels import as_destination_array, as_length_array

    for width, dtype in ((32, np.int64), (128, object)):
        values = [0, 5, (1 << width) - 1, Address.parse("10.0.0.1").value]
        addresses = [Address(value, width) for value in values]
        mixed = [addresses[0], values[1], addresses[2], values[3]]
        for batch in (values, addresses, mixed, []):
            packed = as_destination_array(batch, width)
            assert packed.dtype == dtype
            assert np.array_equal(packed, reference_pack(batch, dtype))
            # Object lanes hold Python ints, which shift past 64 bits.
            assert all(type(value) is int for value in packed.tolist())
    lens = as_length_array([-1, 0, 8, 32])
    assert lens.dtype == np.int64
    assert np.array_equal(lens, reference_pack([-1, 0, 8, 32]))


# ----------------------------------------------------------------------
# kernels: one merged probe keeps records of different lengths apart
# ----------------------------------------------------------------------
def test_merged_probe_hits_each_lanes_own_length():
    """Records sharing ``bits`` across clue lengths — 0/0, 0/1 and 0/8
    (bits 0), 10/8 and 5/9 (bits 10) — plus the top key 255.255.255.255/32
    each answer the lane whose clue has their length."""
    from repro.addressing import Prefix
    from repro.core import (
        AdvanceMethod,
        ClueAssistedLookup,
        ReceiverState,
        SimpleMethod,
    )
    from repro.fastpath import (
        CODE_FD_IMMEDIATE,
        CODE_RESUMED,
        as_destination_array,
        as_length_array,
        certify_clue,
        compile_clue_table,
        compile_trie,
        lookup_batch,
    )
    from repro.lookup import RegularTrieLookup

    clues = [
        Prefix.parse(text)
        for text in (
            "0.0.0.0/0",
            "0.0.0.0/1",
            "0.0.0.0/8",
            "10.0.0.0/8",
            "5.0.0.0/9",
            "255.255.255.255/32",
        )
    ]
    assert {clue.bits for clue in clues[:3]} == {0}
    assert clues[3].bits == clues[4].bits == 10
    # One destination per clue whose longest match is that clue itself.
    destinations = [
        Address.parse(text).value
        for text in (
            "128.0.0.1",
            "64.0.0.1",
            "0.1.2.3",
            "10.1.2.3",
            "5.1.2.3",
            "255.255.255.255",
        )
    ]
    lengths = [clue.length for clue in clues]
    entries = [(clue, "hop %s" % clue) for clue in clues]
    sender_trie = BinaryTrie.from_prefixes(entries)
    for method in ("simple", "advance"):
        state = ReceiverState(entries, 32)
        if method == "advance":
            builder = AdvanceMethod(sender_trie, state, "regular")
        else:
            builder = SimpleMethod(state, "regular")
        table = builder.build_table(list(sender_trie.prefixes()))
        ctrie = compile_trie(state.trie)
        ctable = compile_clue_table(table, ctrie)
        scalar = ClueAssistedLookup(RegularTrieLookup(entries, 32), table)
        # Six clue lanes, after six lanes of the dense full-lookup kernel.
        assert certify_clue(ctable, scalar, destinations, lengths) == 12
        dsts = as_destination_array(destinations)
        lens = as_length_array(lengths)
        fast = lookup_batch(ctable, dsts, lens)
        methods, codes, new_clues, _memrefs = fast
        for lane, clue in enumerate(clues):
            assert int(methods[lane]) in (CODE_FD_IMMEDIATE, CODE_RESUMED)
            code = int(codes[lane])
            assert ctrie.pool.prefixes[code] == clue, (method, clue)
            assert int(new_clues[lane]) == clue.length


def test_resumed_walks_start_at_their_own_depths():
    """Advance lanes whose resumed walks start twelve levels apart share
    one batch, and five of them end on a Claim-1 stop bit with the
    receiver trie going on below: memrefs must match the object graph
    lane for lane, whether the batch resumes few enough lanes to walk
    them one by one or enough to vectorize."""
    from repro.core import AdvanceMethod, ClueAssistedLookup, ReceiverState
    from repro.fastpath import (
        CODE_RESUMED,
        as_destination_array,
        as_length_array,
        certification_batch,
        certify_clue,
        compile_clue_table,
        compile_trie,
        lookup_batch,
    )
    from repro.fastpath.kernels import SCALAR_RESUME_LANES
    from repro.lookup import RegularTrieLookup
    from repro.tablegen import NeighborProfile, derive_neighbor

    sender = generate_table(600, seed=42)
    receiver = derive_neighbor(sender, NeighborProfile(), seed=43)
    sender_trie = BinaryTrie.from_prefixes(sender)
    state = ReceiverState(receiver, 32)
    table = AdvanceMethod(sender_trie, state, "regular").build_table(
        list(sender_trie.prefixes())
    )
    ctable = compile_clue_table(table, compile_trie(state.trie))
    scalar = ClueAssistedLookup(RegularTrieLookup(receiver, 32), table)
    destinations, lengths = certification_batch(
        sender_trie, receiver + sender, seed=42
    )
    methods = lookup_batch(
        ctable, as_destination_array(destinations), as_length_array(lengths)
    )[0]
    starts = []
    for lane, method in enumerate(methods):
        if method == CODE_RESUMED:
            clue = Address(destinations[lane], 32).prefix(lengths[lane])
            starts.append(table.record(clue).continuation.start.prefix.length)
    assert max(starts) - min(starts) >= 12
    assert len(starts) <= SCALAR_RESUME_LANES
    for copies in (1, SCALAR_RESUME_LANES // len(starts) + 1):
        batch, batch_lengths = destinations * copies, lengths * copies
        lanes = certify_clue(ctable, scalar, batch, batch_lengths)
        assert lanes == 2 * len(batch)  # full-lookup lanes, then clue lanes


# ----------------------------------------------------------------------
# certify_full: one reference walk per destination, every lane compared
# ----------------------------------------------------------------------
def full_certification_fixture(layout):
    """``(compiled layout, scalar base, sweep destinations)`` of a pair."""
    from repro.core import ReceiverState
    from repro.fastpath import certification_batch, compile_layout
    from repro.lookup import RegularTrieLookup
    from repro.tablegen import NeighborProfile, derive_neighbor

    sender = generate_table(200, seed=11)
    receiver = derive_neighbor(sender, NeighborProfile(), seed=12)
    sender_trie = BinaryTrie.from_prefixes(sender)
    lay = compile_layout(ReceiverState(receiver, 32).trie, layout)
    destinations, _lengths = certification_batch(
        sender_trie, receiver + sender, seed=11
    )
    return lay, RegularTrieLookup(receiver, 32), destinations


def failing_lane(error) -> int:
    return int(str(error.value).split()[1])


@pytest.mark.parametrize("layout", ["dense", "multibit8"])
def test_certify_full_compares_the_third_lane_of_a_triple(monkeypatch, layout):
    """The sweep visits each destination three times and the reference is
    walked once per destination; a kernel wrong only on the third visit
    of one destination must still fail certification."""
    from repro.fastpath import certify

    lay, base, destinations = full_certification_fixture(layout)
    lane = 3 * (len(destinations) // 6) + 2
    assert len(set(destinations[lane - 2:lane + 1])) == 1
    layouts = 2 if layout != "dense" else 1
    assert certify.certify_full(lay, base, destinations) == len(destinations) * layouts
    kernel = certify.full_lookup_batch

    def wrong_on_one_lane(ctrie, dsts):
        codes, memrefs = kernel(ctrie, dsts)
        codes = codes.copy()
        codes[lane] = -1 if codes[lane] >= 0 else 0
        return codes, memrefs

    monkeypatch.setattr(certify, "full_lookup_batch", wrong_on_one_lane)
    with pytest.raises(certify.CertificationError) as error:
        certify.certify_full(lay, base, destinations)
    assert failing_lane(error) == lane


def test_a_stride_layout_and_its_base_certify_together():
    """One call certifies a stride layout and the dense base its resume
    walks descend: corrupting either one, the other intact, fails it."""
    from repro.fastpath import CertificationError, certify_full

    lay, base, destinations = full_certification_fixture("multibit8")
    # Compiled arrays are read-only: rebind corrupted copies instead.
    leaf_codes = lay.leaf_codes
    lay.leaf_codes = np.full_like(leaf_codes, -1)
    with pytest.raises(CertificationError) as error:
        certify_full(lay, base, destinations)
    assert failing_lane(error) < len(destinations)  # a stride lane
    lay.leaf_codes = leaf_codes
    assert certify_full(lay, base, destinations) == 2 * len(destinations)
    lay.base.node_result = np.full_like(lay.base.node_result, -1)
    with pytest.raises(CertificationError) as error:
        certify_full(lay, base, destinations)
    assert failing_lane(error) >= len(destinations)  # a base lane


# ----------------------------------------------------------------------
# a shard build: one scalar base walk per sweep destination
# ----------------------------------------------------------------------
def test_a_shard_build_walks_the_scalar_base_once_per_destination(monkeypatch):
    """Certifying a shard walks its scalar base once per distinct sweep
    destination, for the full-lookup kernel and every clueless lane
    alike, plus once per clue lane whose scalar lookup misses the clue
    table and falls back to a full walk."""
    from repro.fastpath import (
        CODE_CLUE_MISS,
        as_destination_array,
        as_length_array,
        certification_batch,
        lookup_batch,
    )
    from repro.lookup import RegularTrieLookup
    from repro.serve import Shard, ShardPlan
    from repro.serve.shard import partition_slices
    from repro.tablegen import NeighborProfile, derive_neighbor

    sender = generate_table(300, seed=5)
    receiver = derive_neighbor(sender, NeighborProfile(), seed=6)
    sender_trie = BinaryTrie.from_prefixes(sender)
    entry_slices, clue_slices = partition_slices(
        ShardPlan(2, "range"), receiver, sender_trie
    )
    walks = []
    lookup = RegularTrieLookup.lookup

    def counted(self, address, counter=None):
        walks.append(address.value)
        return lookup(self, address, counter)

    monkeypatch.setattr(RegularTrieLookup, "lookup", counted)
    shard = Shard(0, entry_slices[0], clue_slices[0], sender_trie, seed=5)
    monkeypatch.undo()
    sweep = list(shard.entries)
    sweep.extend((clue, None) for clue in shard.clue_universe)
    destinations, lengths = certification_batch(sender_trie, sweep, seed=5)
    methods = lookup_batch(
        shard.ctable,
        as_destination_array(destinations),
        as_length_array(lengths),
    )[0]
    misses = int((methods == CODE_CLUE_MISS).sum())
    distinct = len(set(destinations))
    assert len(walks) == distinct + misses
    # 312 destinations, six visited twice; every clue-0 lane misses.
    assert (len(destinations), distinct, misses) == (936, 306, 312)
    assert len(walks) == 618
