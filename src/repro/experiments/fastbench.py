"""The fastpath benchmark: scalar vs batched lookup throughput.

Builds the §6 sender/receiver pair at benchmark scale, certifies every
compiled structure against the object-graph lookups (the bench refuses
to time an uncertified table), then measures packets/sec and
memrefs/packet for the clueless Regular baseline, Simple, and Advance —
scalar loop vs one batched kernel call — and returns the
``BENCH_fastpath.json`` payload.  A ``layouts`` matrix additionally
certifies and measures each requested compiled layout (dense,
multibit4, multibit8): bytes-per-prefix against the empirical next-hop
entropy bound, memrefs/packet against the dense layout, and pps.

Timing uses an *injected* clock (``repro-clue bench-fastpath`` passes
``time.perf_counter``); the engine itself stays wall-clock-free so
seeded runs remain deterministic (RC103).  Without a clock only the
deterministic columns (memrefs/packet, certification) are filled in.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.addressing import IPV4_WIDTH, Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath.certify import (
    CertificationError,
    certification_batch,
    certify_clue,
)
from repro.fastpath.compile import compile_clue_table, compile_trie
from repro.fastpath.kernels import (
    as_destination_array,
    as_length_array,
    full_lookup_batch,
    lookup_batch,
)
from repro.fastpath.layouts import LAYOUTS, compile_layout, layout_stride
from repro.lookup.counters import MemoryCounter
from repro.lookup.regular import RegularTrieLookup
from repro.tablegen import NeighborProfile, derive_neighbor, generate_table
from repro.trie.binary_trie import BinaryTrie

Clock = Optional[Callable[[], float]]

ALGORITHMS = ("regular", "simple", "advance")


def sample_destination_values(entries, count: int, seed: int = 0) -> List[int]:
    """Numpy-native round-batched IPv4 destinations under the sender's
    prefixes.

    One RNG round draws every prefix index and every host-bit block at
    once (no per-packet Python RNG calls).
    """
    entries = list(entries)
    if not entries:
        raise ValueError("the sender table is empty")
    rng = np.random.default_rng(seed)
    bits = np.asarray([p.bits for p, _ in entries], dtype=np.int64)
    lengths = np.asarray([p.length for p, _ in entries], dtype=np.int64)
    picks = rng.integers(0, len(entries), size=count)
    hosts = rng.integers(0, 1 << 32, size=count, dtype=np.uint32).astype(
        np.int64
    )
    host_bits = IPV4_WIDTH - lengths[picks]
    values = (bits[picks] << host_bits) | (
        hosts & ((np.int64(1) << host_bits) - 1)
    )
    return [int(value) for value in values]


def _build_fixture(table_size: int, seed: int):
    sender_entries = generate_table(table_size, seed=seed)
    receiver_entries = derive_neighbor(
        sender_entries, NeighborProfile(), seed=seed + 1
    )
    sender_trie = BinaryTrie(IPV4_WIDTH)
    for prefix, next_hop in sender_entries:
        sender_trie.insert(prefix, next_hop)
    state = ReceiverState(receiver_entries, IPV4_WIDTH)
    clue_universe = list(sender_trie.prefixes())
    tables = {
        "simple": SimpleMethod(state, "regular").build_table(clue_universe),
        "advance": AdvanceMethod(sender_trie, state, "regular").build_table(
            clue_universe
        ),
    }
    return sender_entries, receiver_entries, sender_trie, state, tables


def _timed(
    clock: Clock, run: Callable[[], object], repeats: int = 1
) -> Tuple[object, Optional[float]]:
    """Best-of-``repeats`` timing: the minimum filters scheduler noise."""
    if clock is None:
        return run(), None
    start = clock()
    result = run()
    best = clock() - start
    for _ in range(repeats - 1):
        start = clock()
        run()
        best = min(best, clock() - start)
    return result, best


def _rates(
    packets: int, elapsed: Optional[float], total_refs: int
) -> Dict[str, object]:
    return {
        "elapsed_s": elapsed,
        "packets_per_sec": (
            packets / elapsed if elapsed else None
        ),
        "memrefs_per_packet": total_refs / packets if packets else 0.0,
    }


def next_hop_entropy_bits(entries) -> float:
    """Empirical next-hop entropy (bits/prefix) of a table's entries.

    The information-theoretic floor for the result side of any compiled
    layout: storing one next-hop label per prefix cannot take fewer than
    H bits/prefix on average (Rétvári et al., arXiv:1402.1194 §III), so
    the bench reports ``H / 8`` as ``entropy_bound_bytes_per_prefix``
    next to each layout's actual bytes-per-prefix.
    """
    counts: Dict[object, int] = {}
    for _prefix, next_hop in entries:
        key = repr(next_hop)
        counts[key] = counts.get(key, 0) + 1
    total = sum(counts.values())
    if total <= 1:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        share = count / total
        entropy -= share * math.log2(share)
    return entropy


def run_fastpath_bench(
    table_size: int = 20000,
    packets: int = 50000,
    seed: int = 42,
    clock: Clock = None,
    repeats: int = 3,
    layouts: Sequence[str] = ("dense",),
) -> Dict[str, object]:
    """Run the full scalar-vs-batched comparison; returns the JSON payload.

    ``layouts`` selects which compiled layouts get their own certified
    space/throughput section (the ``"layouts"`` key of the payload); the
    scalar-vs-batched ``"algorithms"`` section always runs on the dense
    layout, whose memref accounting is bit-identical to the scalar path.
    The fixture is an IPv4 pair.
    """
    for layout in layouts:
        if layout not in LAYOUTS:
            raise ValueError(
                "unknown layout %r; expected one of %s"
                % (layout, ", ".join(LAYOUTS))
            )
    (
        sender_entries,
        receiver_entries,
        sender_trie,
        state,
        tables,
    ) = _build_fixture(table_size, seed)
    ctrie = compile_trie(state.trie)
    compiled = {
        name: compile_clue_table(table, ctrie)
        for name, table in tables.items()
    }
    base = RegularTrieLookup(receiver_entries, IPV4_WIDTH)
    scalars = {
        name: ClueAssistedLookup(
            RegularTrieLookup(receiver_entries, IPV4_WIDTH), table
        )
        for name, table in tables.items()
    }

    # Certification first: no numbers for tables the kernels disagree on.
    cert_dsts, cert_lens = certification_batch(
        sender_trie,
        list(receiver_entries) + list(sender_entries),
        seed=seed,
    )
    # Each call certifies the dense full-lookup kernel with the table.
    checked = 0
    for name in ("simple", "advance"):
        checked += certify_clue(
            compiled[name], scalars[name], cert_dsts, cert_lens
        )

    values = sample_destination_values(sender_entries, packets, seed=seed + 2)
    addresses = [Address(value, IPV4_WIDTH) for value in values]
    sender_bmps = [sender_trie.best_prefix(address) for address in addresses]
    clues: List[Optional[Prefix]] = [
        address.prefix(bmp.length) if bmp is not None else None
        for address, bmp in zip(addresses, sender_bmps)
    ]
    lens = [bmp.length if bmp is not None else -1 for bmp in sender_bmps]
    dsts = as_destination_array(values, IPV4_WIDTH)
    clue_lens = as_length_array(lens)

    algorithms: Dict[str, Dict[str, object]] = {}
    counter = MemoryCounter()

    def scalar_regular() -> int:
        total = 0
        for address in addresses:
            counter.reset()
            base.lookup(address, counter)
            total += counter.accesses
        return total

    scalar_refs, scalar_elapsed = _timed(clock, scalar_regular, repeats)
    batched, batched_elapsed = _timed(
        clock, lambda: full_lookup_batch(ctrie, dsts), repeats
    )
    batched_refs = int(sum(batched[1]))
    if batched_refs != scalar_refs:
        raise CertificationError(
            "memref totals diverged on the regular baseline"
        )
    algorithms["regular"] = _summary(
        packets, scalar_refs, scalar_elapsed, batched_refs, batched_elapsed
    )

    for name in ("simple", "advance"):
        scalar = scalars[name]
        ctable = compiled[name]

        def scalar_clue() -> int:
            total = 0
            lookup = scalar.lookup
            for address, clue in zip(addresses, clues):
                counter.reset()
                lookup(address, clue, counter)
                total += counter.accesses
            return total

        scalar_refs, scalar_elapsed = _timed(clock, scalar_clue, repeats)
        batched, batched_elapsed = _timed(
            clock, lambda: lookup_batch(ctable, dsts, clue_lens), repeats
        )
        batched_refs = int(sum(batched[3]))
        if batched_refs != scalar_refs:
            raise CertificationError(
                "memref totals diverged on %s" % name
            )
        algorithms[name] = _summary(
            packets, scalar_refs, scalar_elapsed, batched_refs, batched_elapsed
        )

    # ------------------------------------------------------------------
    # Layout matrix: per-layout certified space and throughput numbers.
    # The dense full-lookup memref total anchors the memrefs_vs_dense
    # ratio whether or not "dense" was requested.
    dense_full, _ = _timed(clock, lambda: full_lookup_batch(ctrie, dsts), 1)
    dense_full_refs = int(sum(dense_full[1]))
    prefix_count = max(1, len(receiver_entries))
    entropy_bits = next_hop_entropy_bits(receiver_entries)
    layout_sections: Dict[str, Dict[str, object]] = {}
    for layout in layouts:
        lay = compile_layout(ctrie, layout)
        ltable = (
            compiled["advance"] if lay is ctrie
            else compile_clue_table(tables["advance"], lay)
        )
        lanes = certify_clue(ltable, scalars["advance"], cert_dsts, cert_lens)
        checked += lanes
        full_result, full_elapsed = _timed(
            clock,
            lambda lay=lay: full_lookup_batch(lay, dsts),
            repeats,
        )
        full_refs = int(sum(full_result[1]))
        clue_result, clue_elapsed = _timed(
            clock,
            lambda ltable=ltable: lookup_batch(ltable, dsts, clue_lens),
            repeats,
        )
        clue_refs = int(sum(clue_result[3]))
        stride = layout_stride(lay)
        trie_nbytes = lay.nbytes()
        section: Dict[str, object] = {
            "stride": stride,
            "certified_lanes": lanes,
            "trie_nbytes": trie_nbytes,
            "table_nbytes": ltable.nbytes(),
            "pool_nbytes": lay.pool.nbytes(),
            "bytes_per_prefix": trie_nbytes / prefix_count,
            "entropy_bound_bytes_per_prefix": entropy_bits / 8.0,
            "full": _rates(packets, full_elapsed, full_refs),
            "clue": _rates(packets, clue_elapsed, clue_refs),
            "memrefs_vs_dense": (
                full_refs / dense_full_refs if dense_full_refs else None
            ),
        }
        if stride:
            # Stride layouts carry their dense base for resume walks.
            section["base_nbytes"] = lay.base.nbytes()
            section["leaf_entropy_bits"] = lay.leaf_entropy_bits()
            section["leaf_bits"] = lay.leaf_bits
            section["slot_bytes"] = lay.slot_bytes
            section["probe_bound"] = len(lay.level_shifts)
        layout_sections[layout] = section

    return {
        "bench": "fastpath",
        "table_size": table_size,
        "packets": packets,
        "seed": seed,
        "width": IPV4_WIDTH,
        "backend": "numpy",
        "certification": {"checked": checked, "disagreements": 0},
        "algorithms": algorithms,
        "layouts": layout_sections,
    }


def _summary(
    packets: int,
    scalar_refs: int,
    scalar_elapsed: Optional[float],
    batched_refs: int,
    batched_elapsed: Optional[float],
) -> Dict[str, object]:
    summary: Dict[str, object] = {
        "scalar": _rates(packets, scalar_elapsed, scalar_refs),
        "batched": _rates(packets, batched_elapsed, batched_refs),
    }
    if scalar_elapsed and batched_elapsed:
        summary["speedup"] = scalar_elapsed / batched_elapsed
    else:
        summary["speedup"] = None
    return summary
