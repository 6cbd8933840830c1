"""Seeded, replayable traffic: Zipf destination popularity, bursty arrivals.

Production lookup traffic is nothing like the §6 uniform destination
sample: a few destinations dominate (heavy-tail popularity) and packets
arrive in bursts, not a smooth stream.  The generator models both with
two seeded knobs:

* **Popularity** — a universe of ``profile.universe`` concrete
  destination addresses is sampled under the sender's prefixes, then
  rank *r* receives weight ``(r + 1) ** -zipf_alpha``; draws invert the
  cumulative distribution, so ``zipf_alpha = 0`` degenerates to the
  paper's uniform sampling and ``~1.1`` gives classic Zipf skew.
* **Burstiness** — a two-state (calm/burst) arrival process: each tick
  draws a Poisson arrival count around ``rate`` (times ``burst_boost``
  while bursting); bursts start with probability ``burst_prob`` per calm
  tick and end with probability ``1 / burst_mean`` per burst tick.

Every request carries the clue a well-formed upstream would stamp: the
sender's BMP length for its destination.  The stamps come from the
sender table's range segments (:class:`~repro.lookup.binary_range.RangeTable`,
built with a sort and a sweep, no trie): one ``searchsorted`` locates
every universe entry's segment, the segment's answer gives its length,
and each request gathers its entry's stamp.

The whole workload — destination values, clue lengths, per-tick arrival
offsets — is materialized up front as flat int64 numpy arrays, so
generating millions of requests costs a handful of vectorized draws,
and two generators with the same seed and profile produce bit-identical
workloads.  Destinations are IPv4 addresses.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.addressing import IPV4_WIDTH
from repro.experiments.fastbench import sample_destination_values
from repro.lookup.binary_range import RangeTable


class LoadProfile:
    """Traffic-shape knobs (all deterministic given the seed)."""

    __slots__ = (
        "zipf_alpha",
        "universe",
        "rate",
        "burst_prob",
        "burst_mean",
        "burst_boost",
    )

    def __init__(
        self,
        zipf_alpha: float = 1.1,
        universe: int = 4096,
        rate: float = 512.0,
        burst_prob: float = 0.05,
        burst_mean: float = 8.0,
        burst_boost: float = 4.0,
    ):
        if zipf_alpha < 0:
            raise ValueError("zipf_alpha must be >= 0")
        if universe < 1:
            raise ValueError("universe must be >= 1")
        if rate <= 0:
            raise ValueError("rate must be > 0 arrivals/tick")
        if not 0.0 <= burst_prob <= 1.0:
            raise ValueError("burst_prob must be within [0, 1]")
        if burst_mean < 1.0:
            raise ValueError("burst_mean must be >= 1 tick")
        if burst_boost < 1.0:
            raise ValueError("burst_boost must be >= 1")
        self.zipf_alpha = zipf_alpha
        self.universe = universe
        self.rate = rate
        self.burst_prob = burst_prob
        self.burst_mean = burst_mean
        self.burst_boost = burst_boost

    def __repr__(self) -> str:
        return (
            "LoadProfile(zipf_alpha=%g, universe=%d, rate=%g, "
            "burst_prob=%g, burst_mean=%g, burst_boost=%g)"
            % (
                self.zipf_alpha,
                self.universe,
                self.rate,
                self.burst_prob,
                self.burst_mean,
                self.burst_boost,
            )
        )


class Workload:
    """A materialized run: flat request arrays plus per-tick offsets.

    Requests ``offsets[t]:offsets[t + 1]`` arrive on tick ``t``; all
    three are int64 numpy arrays (the ``as_destination_array`` layout).
    """

    __slots__ = ("values", "clue_lens", "offsets", "burst_ticks")

    def __init__(self, values, clue_lens, offsets, burst_ticks: int):
        self.values = values
        self.clue_lens = clue_lens
        self.offsets = offsets
        #: Ticks spent in the burst state (workload-shape diagnostics).
        self.burst_ticks = burst_ticks

    def __len__(self) -> int:
        return len(self.values)

    @property
    def ticks(self) -> int:
        """Number of arrival ticks in the run."""
        return len(self.offsets) - 1

    def __repr__(self) -> str:
        return "Workload(requests=%d, ticks=%d, burst_ticks=%d)" % (
            len(self.values),
            self.ticks,
            self.burst_ticks,
        )


class ZipfLoadGenerator:
    """Seeded heavy-tail request stream over a sender-derived universe."""

    def __init__(
        self,
        sender_entries,
        profile: Optional[LoadProfile] = None,
        seed: int = 0,
    ):
        self.profile = profile if profile is not None else LoadProfile()
        self.seed = seed
        self.universe_values = np.array(
            sample_destination_values(
                sender_entries, self.profile.universe, seed=seed
            ),
            dtype=np.int64,
        )
        #: The clue a well-formed upstream stamps per universe entry:
        #: its sender-BMP length (−1 if the sender has no match), read
        #: off the answer of the sender segment holding it.
        ranges = RangeTable(sender_entries, IPV4_WIDTH)
        segment_lens = np.array(
            [-1 if prefix is None else prefix.length for prefix, _ in ranges.answers],
            dtype=np.int64,
        )
        self.universe_lens = segment_lens[ranges.locate_batch(self.universe_values)]
        # Zipf CDF over popularity ranks (rank = universe position; the
        # universe sample is already seed-shuffled across the space).
        alpha = self.profile.zipf_alpha
        weights = [
            (rank + 1) ** -alpha for rank in range(self.profile.universe)
        ]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight
            cumulative.append(running / total)
        cumulative[-1] = 1.0
        self._cdf = np.array(cumulative)

    # ------------------------------------------------------------------
    def _arrival_counts(self, total: int, rng) -> "tuple[list, int]":
        """Per-tick arrival counts summing to exactly ``total``, drawn from
        the numpy generator ``rng`` before the destination picks."""
        profile = self.profile
        counts: List[int] = []
        produced = 0
        bursting = False
        burst_ticks = 0
        end_prob = 1.0 / profile.burst_mean
        while produced < total:
            if bursting:
                burst_ticks += 1
                if rng.random() < end_prob:
                    bursting = False
            elif rng.random() < profile.burst_prob:
                bursting = True
            rate = profile.rate * (profile.burst_boost if bursting else 1.0)
            count = int(rng.poisson(rate))
            if produced + count > total:
                count = total - produced
            produced += count
            counts.append(count)
        return counts, burst_ticks

    def generate(self, total: int) -> Workload:
        """Materialize ``total`` requests; same seed ⇒ identical workload."""
        if total < 1:
            raise ValueError("total must be >= 1, got %d" % total)
        rng = np.random.default_rng(self.seed + 1)
        counts, burst_ticks = self._arrival_counts(total, rng)
        draws = rng.random(total)
        picks = np.minimum(
            np.searchsorted(self._cdf, draws, side="right"), len(self._cdf) - 1
        )
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
        return Workload(
            self.universe_values[picks],
            self.universe_lens[picks],
            offsets,
            burst_ticks,
        )
