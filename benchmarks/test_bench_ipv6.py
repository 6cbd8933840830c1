"""Extension — IPv6 scaling (§6's closing claim).

"The presented scheme is expected to give similar performances in IPv6
while the Log W technique does not scale as good."  We measure both: at
width 128 the clue-assisted lookup stays at ≈1 reference while every
clue-less baseline pays substantially more than at width 32.  The
regular technique's Advance table also runs batched through the
fastpath kernels on width-128 lanes: same memrefs as the scalar clue
path, and its µs/lookup against the scalar loop is printed (not
asserted — the CI host is noisy).
"""

import random
import time

from repro.core import AdvanceMethod, ClueAssistedLookup, ReceiverState
from repro.experiments import format_table
from repro.fastpath import (
    as_destination_array,
    as_length_array,
    compile_clue_table,
    lookup_batch,
)
from repro.lookup import BASELINES, MemoryCounter
from repro.tablegen import DEFAULT_IPV6_HISTOGRAM, generate_table
from repro.trie import BinaryTrie


def _derive_v6_neighbor(sender, seed):
    rng = random.Random(seed)
    receiver = [entry for entry in sender if rng.random() > 0.01]
    for prefix, _hop in sender:
        if prefix.length + 8 <= 128 and rng.random() < 0.01:
            bits = (prefix.bits << 8) | rng.getrandbits(8)
            from repro.addressing import Prefix

            receiver.append((Prefix(bits, prefix.length + 8, 128), "v6-x"))
    return sorted(
        dict(receiver).items(), key=lambda item: (item[0].length, item[0].bits)
    )


def test_ipv6_scaling(benchmark, scale, packets):
    size = max(int(20000 * scale), 400)
    sender = generate_table(size, seed=71, histogram=DEFAULT_IPV6_HISTOGRAM, width=128)
    receiver_entries = _derive_v6_neighbor(sender, seed=72)
    sender_trie = BinaryTrie.from_prefixes(sender, 128)
    receiver = ReceiverState(receiver_entries, 128)

    rng = random.Random(73)
    samples = []
    while len(samples) < min(packets, 1500):
        prefix, _hop = sender[rng.randrange(len(sender))]
        destination = prefix.random_address(rng)
        clue = sender_trie.best_prefix(destination)
        if clue is not None and receiver.trie.find_node(clue) is not None:
            samples.append((destination, clue))

    rows = []
    results = {}
    tables = {}
    for technique in ("regular", "patricia", "logw"):
        base = BASELINES[technique](receiver_entries, width=128)
        tables[technique] = AdvanceMethod(
            sender_trie, receiver, technique
        ).build_table()
        assisted = ClueAssistedLookup(base, tables[technique])

        def run(assisted=assisted, base=base):
            common = MemoryCounter()
            clued = MemoryCounter()
            for destination, clue in samples:
                base.lookup(destination, common)
                assisted.lookup(destination, clue, clued)
            return common.accesses / len(samples), clued.accesses / len(samples)

        if technique == "patricia":
            common_avg, clued_avg = benchmark.pedantic(run, rounds=1, iterations=1)
        else:
            common_avg, clued_avg = run()
        results[technique] = (common_avg, clued_avg)
        rows.append([technique, round(common_avg, 3), round(clued_avg, 3)])

    print()
    print(
        format_table(
            ["baseline (width 128)", "common", "+advance"],
            rows,
            title="IPv6: clue-less vs clue-assisted memory references",
        )
    )

    # The regular Advance table, scalar clue loop vs one batched call.
    scalar = ClueAssistedLookup(
        BASELINES["regular"](receiver_entries, width=128), tables["regular"]
    )
    counter = MemoryCounter()
    start = time.perf_counter()
    for destination, clue in samples:
        scalar.lookup(destination, clue, counter)
    scalar_s = time.perf_counter() - start
    ctable = compile_clue_table(tables["regular"], receiver.trie)
    dsts = as_destination_array([d.value for d, _ in samples], 128)
    lens = as_length_array([clue.length for _, clue in samples])
    start = time.perf_counter()
    memrefs = lookup_batch(ctable, dsts, lens)[3]
    batched_s = time.perf_counter() - start
    us = 1e6 / len(samples)
    print(
        format_table(
            ["regular + advance (width 128)", "memrefs", "us/lookup"],
            [
                ["scalar", counter.accesses, round(scalar_s * us, 3)],
                ["batched", int(memrefs.sum()), round(batched_s * us, 3)],
            ],
            title="IPv6: scalar vs batched clue lookups",
        )
    )
    assert int(memrefs.sum()) == counter.accesses

    # The clue scheme is width-independent: ~1 reference at W=128 too.
    for technique, (common_avg, clued_avg) in results.items():
        assert clued_avg < 1.5, technique
    # The O(W) baseline hurts at 128 bits; the clue advantage widens.
    assert results["regular"][0] > 20
    assert results["regular"][0] / results["regular"][1] > 15
