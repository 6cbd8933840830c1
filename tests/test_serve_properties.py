"""Property tests: the sharded, batched path never changes routing.

The serving plane's whole correctness claim is that partitioning the
receiver table and the clue universe across shards is invisible — for
ANY destination and ANY truthful-or-absent clue, routing the request to
``plan.shard_of(destination)`` and serving it with that shard's batched
kernel returns exactly the ``(prefix, next_hop)`` the full-table scalar
clue lookup would, which in turn equals the receiver's own longest
prefix match (never-wrong forwarding).  Hypothesis drives destinations
and clue lengths; the fixture pair is the same §6 synthetic neighbour
construction the engine uses.
"""

from hypothesis import given, settings, strategies as st

from repro.addressing import Address, Prefix
from repro.core import ClueAssistedLookup
from repro.fastpath.kernels import as_destination_array, as_length_array, lookup_batch
from repro.lookup import RegularTrieLookup
from repro.resilience.replica import ReplicaPlan, build_replica_shards
from repro.serve.dispatch import ShardPlan
from repro.tablegen import NeighborProfile, derive_neighbor, generate_table
from repro.trie import BinaryTrie


def _fixture(shards, mode, method="advance", table_size=220, seed=5):
    sender_entries = generate_table(table_size, seed=seed)
    receiver_entries = derive_neighbor(
        sender_entries, NeighborProfile(), seed=seed + 1
    )
    sender_trie = BinaryTrie.from_prefixes(sender_entries)
    plan = ShardPlan(shards, mode)
    grid, _entry_slices, _clue_slices = build_replica_shards(
        ReplicaPlan(plan, 1), receiver_entries, sender_trie, method=method, seed=seed
    )
    worker_shards = [row[0] for row in grid]
    scalar = ClueAssistedLookup(
        RegularTrieLookup(receiver_entries, 32),
        _global_table(sender_trie, receiver_entries, method),
    )
    oracle = RegularTrieLookup(receiver_entries, 32)
    return sender_trie, plan, worker_shards, scalar, oracle


def _global_table(sender_trie, receiver_entries, method):
    from repro.core import AdvanceMethod, ReceiverState, SimpleMethod

    state = ReceiverState(receiver_entries, 32)
    if method == "advance":
        builder = AdvanceMethod(sender_trie, state, "regular")
    else:
        builder = SimpleMethod(state, "regular")
    return builder.build_table(list(sender_trie.prefixes()))


FIXTURES = {
    (shards, mode): _fixture(shards, mode)
    for shards in (1, 3, 4)
    for mode in ("range", "hash")
}
SIMPLE_FIXTURE = _fixture(4, "range", method="simple")

destinations = st.integers(min_value=0, max_value=(1 << 32) - 1)
shard_counts = st.sampled_from((1, 3, 4))
modes = st.sampled_from(("range", "hash"))


def _serve_one(plan, worker_shards, value, clue_len):
    shard = worker_shards[plan.shard_of(value)]
    dsts = as_destination_array([value], 32)
    lens = as_length_array([clue_len])
    _methods, codes, _new, _refs = lookup_batch(shard.ctable, dsts, lens)
    return shard.decode(int(codes[0]))


def _check_never_wrong(fixture, value, truthful):
    sender_trie, plan, worker_shards, scalar, oracle = fixture
    address = Address(value, 32)
    if truthful:
        bmp = sender_trie.best_prefix(address)
        clue_len = bmp.length if bmp is not None else -1
    else:
        clue_len = -1
    clue = address.prefix(clue_len) if clue_len >= 0 else None
    got = _serve_one(plan, worker_shards, value, clue_len)
    ref = scalar.lookup(address, clue)
    assert got == (ref.prefix, ref.next_hop)
    lpm = oracle.lookup(address)
    assert got[1] == lpm.next_hop


@given(shard_counts, modes, destinations, st.booleans())
@settings(max_examples=250, deadline=None)
def test_sharded_batched_lookup_matches_scalar(shards, mode, value, truthful):
    _check_never_wrong(FIXTURES[(shards, mode)], value, truthful)


@given(destinations, st.booleans())
@settings(max_examples=120, deadline=None)
def test_simple_method_shards_match_scalar(value, truthful):
    _check_never_wrong(SIMPLE_FIXTURE, value, truthful)


@given(destinations, shard_counts, modes)
@settings(max_examples=200, deadline=None)
def test_shard_of_is_a_total_function_onto_the_plan(value, shards, mode):
    plan = FIXTURES[(shards, mode)][1]
    shard = plan.shard_of(value)
    assert 0 <= shard < shards
    if mode == "range":
        lo, hi = plan.shard_range(shard)
        assert lo <= value < hi


@given(st.integers(min_value=0, max_value=(1 << 12) - 1),
       st.integers(min_value=1, max_value=12),
       shard_counts)
@settings(max_examples=200, deadline=None)
def test_prefix_replication_covers_every_owned_destination(bits, length, shards):
    prefix = Prefix(bits % (1 << length), length, 32)
    plan = ShardPlan(shards, "range")
    owners = set(plan.prefix_shards(prefix))
    lo, hi = prefix.address_range()  # inclusive [lo, hi]
    # Both corners of the prefix's range (and a midpoint) must route to
    # shards that replicate the prefix.
    for value in {lo, hi, (lo + hi) // 2}:
        assert plan.shard_of(value) in owners
