"""Shard routing: which worker shard owns a destination?

Two partitioning modes, both deterministic and both vectorized:

``range`` — the address space is cut into contiguous bucket runs on an
aligned ``2**shard_bits`` grid; shard *s* owns buckets
``[ceil(s * B / N), ceil((s + 1) * B / N))`` with ``B = 2**shard_bits``.
The mapping ``bucket -> bucket * N >> shard_bits`` is monotone, so every
shard owns one contiguous destination range and a table prefix overlaps
a shard iff their address ranges intersect — the replication rule
:func:`prefix_shards` implements.  Locality-friendly: Zipf-hot prefixes
land whole on one shard.

``hash`` — a splitmix64-style integer mix of the destination picks the
shard.  No locality, but uniform load even when the popular prefixes
all sit in one corner of the address space; every shard then serves the
*full* table (``prefix_shards`` returns all of them).

:func:`route_batch` routes a whole destination batch with a handful of
numpy array ops; :meth:`ShardPlan.shard_of` is the scalar definition it
vectorizes.  Destinations are IPv4 addresses (``IPV4_WIDTH`` bits).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.addressing import IPV4_WIDTH, Prefix
from repro.lookup.hotpath import hot_path

PARTITION_MODES = ("range", "hash")

#: splitmix64 multipliers (Steele et al.); the mix is its own spec —
#: any fixed avalanche permutation of the destination works, it only
#: has to be deterministic and identical in its scalar and array forms.
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """The scalar splitmix64 finalizer (pure Python, 64-bit wrapping)."""
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX_1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX_2) & _MASK64
    return value ^ (value >> 31)


class ShardPlan:
    """The partitioning contract: destination value -> shard id.

    ``shard_bits`` is the smallest *b* with ``2**b >= shards``; range
    mode reads the top *b* destination bits as a bucket and folds the
    ``2**b`` buckets onto ``shards`` contiguous runs, hash mode mixes
    the whole value and reduces modulo ``shards``.
    """

    __slots__ = ("shards", "mode", "shard_bits", "shift", "_bounds")

    def __init__(self, shards: int, mode: str = "range"):
        if shards < 1:
            raise ValueError("need at least one shard, got %d" % shards)
        if mode not in PARTITION_MODES:
            raise ValueError(
                "unknown partition mode %r (choose from %s)"
                % (mode, "/".join(PARTITION_MODES))
            )
        self.shards = shards
        self.mode = mode
        bits = 0
        while (1 << bits) < shards:
            bits += 1
        self.shard_bits = bits
        self.shift = IPV4_WIDTH - bits
        buckets = 1 << bits
        # Bucket boundaries per shard: shard s owns [bounds[s], bounds[s+1]).
        self._bounds = [
            -(-s * buckets // shards) for s in range(shards + 1)
        ]
        self._bounds[-1] = buckets

    # -- scalar --------------------------------------------------------
    def shard_of(self, value: int) -> int:
        """The shard owning destination ``value`` (scalar reference path)."""
        if self.mode == "hash":
            return _mix64(value) % self.shards
        bucket = value >> self.shift
        return (bucket * self.shards) >> self.shard_bits

    # -- per-shard address ranges (range mode) -------------------------
    def shard_range(self, shard: int) -> Tuple[int, int]:
        """Inclusive-exclusive address range ``[lo, hi)`` of ``shard``.

        Only meaningful in range mode; hash mode owns the whole space.
        """
        if self.mode == "hash":
            return 0, 1 << IPV4_WIDTH
        lo = self._bounds[shard] << self.shift
        hi = self._bounds[shard + 1] << self.shift
        return lo, hi

    def prefix_shards(self, prefix: Prefix) -> List[int]:
        """Every shard whose destination range ``prefix`` overlaps.

        This is the replication rule: a table prefix must live on every
        shard that can receive a destination it matches, so prefixes
        shorter than the shard grid (the default route above all) are
        replicated while /shard_bits-and-longer prefixes land on exactly
        one shard.  Hash mode replicates everything everywhere.
        """
        if self.mode == "hash":
            return list(range(self.shards))
        lo, hi = prefix.address_range()
        owners = []
        for shard in range(self.shards):
            shard_lo, shard_hi = self.shard_range(shard)
            if lo < shard_hi and hi >= shard_lo:
                owners.append(shard)
        return owners

    def __repr__(self) -> str:
        return "ShardPlan(shards=%d, mode=%r)" % (self.shards, self.mode)


@hot_path
def route_batch(plan: ShardPlan, dsts):
    """Shard id per lane of ``dsts`` (an int64 destination array)."""
    if plan.mode == "hash":
        h = (dsts.astype(np.uint64) + np.uint64(_GOLDEN)) & np.uint64(_MASK64)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(_MIX_1)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(_MIX_2)
        h = h ^ (h >> np.uint64(31))
        return (h % np.uint64(plan.shards)).astype(np.int64)
    buckets = dsts >> plan.shift
    return (buckets * plan.shards) >> plan.shard_bits
