"""Ablation (§3.3) — how the clue table is built: learning the hash table
on the fly, the 16-bit indexing technique, and full pre-processing.

Prints the hit rate and average references as traffic accumulates.
Shape: all three converge to the same ≈1-reference steady state; learning
pays one full lookup per *new* clue, pre-processing pays nothing at
run time, and indexing matches learning without needing a hash function.
"""

import random

from repro.core import (
    AdvanceMethod,
    ClueAssistedLookup,
    IndexedClueLookup,
    ReceiverState,
    SenderIndexAssigner,
)
from repro.experiments import format_table, paper_destination_sample
from repro.lookup import MemoryCounter, PatriciaLookup
from repro.trie import BinaryTrie


def test_ablation_table_construction(router_tables, packets, benchmark):
    sender_entries = router_tables["AT&T-1"]
    receiver_entries = router_tables["AT&T-2"]
    sender_trie = BinaryTrie.from_prefixes(sender_entries)
    receiver = ReceiverState(receiver_entries)
    builder = AdvanceMethod(sender_trie, receiver, "patricia")
    base = PatriciaLookup(receiver_entries)
    samples = paper_destination_sample(
        sender_entries, sender_trie, receiver.trie, min(packets, 3000), seed=23
    )

    learning = ClueAssistedLookup(base, builder=builder)
    indexed = IndexedClueLookup(base, builder)
    assigner = SenderIndexAssigner()
    preprocessed = ClueAssistedLookup(base, builder.build_table())

    def run(variant):
        checkpoints = []
        counter = MemoryCounter()
        for number, (destination, clue) in enumerate(samples, start=1):
            if variant is indexed:
                variant.lookup(destination, clue, assigner.index_of(clue), counter)
            else:
                variant.lookup(destination, clue, counter)
            if number in (len(samples) // 10, len(samples) // 2, len(samples)):
                checkpoints.append((number, counter.accesses / number))
        return checkpoints

    learning_curve = benchmark.pedantic(run, args=(learning,), rounds=1, iterations=1)
    indexed_curve = run(indexed)
    preprocessed_curve = run(preprocessed)

    rows = []
    for (n1, a1), (n2, a2), (n3, a3) in zip(
        learning_curve, indexed_curve, preprocessed_curve
    ):
        rows.append([n1, round(a1, 3), round(a2, 3), round(a3, 3)])
    print()
    print(
        format_table(
            ["packets", "learning", "indexing", "pre-processed"],
            rows,
            title="§3.3 ablation: avg refs/packet as traffic accumulates",
        )
    )
    print(
        "learning hit rate: %.3f; indexed hit rate: %.3f; clues learned: %d"
        % (learning.hit_rate(), indexed.hit_rate(), len(learning.table))
    )

    # Pre-processing is flat at ~1 from the first packet.
    assert preprocessed_curve[0][1] < 1.4
    # Learning converges towards it as the table warms.
    assert learning_curve[-1][1] < learning_curve[0][1]
    # Indexing matches hash learning's steady state.
    assert abs(indexed_curve[-1][1] - learning_curve[-1][1]) < 0.25
