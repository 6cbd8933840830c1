"""R-way replicated shard placement over the PR 6 ``ShardPlan``.

The serving plane's :class:`~repro.serve.dispatch.ShardPlan` maps every
destination to exactly one *slice* of the table.  A single crash then
destroys coverage for the slice's whole key range — so the resilience
layer replicates: each slice is built, compiled, and certified **R**
times (identical content, independent workers), and every destination
resolves to an *ordered* candidate list of the R replica workers of its
slice.

The order rotates deterministically per destination — replica
``(rotation + k) % R`` is the k-th choice, with the rotation drawn from
the high bits of the same splitmix64 mix the hash partition mode uses
(the low bits pick the slice in hash mode, so slice and rotation stay
independent).  Rotation spreads primary load evenly across replicas in
both partition modes while keeping per-destination affinity: the same
destination always prefers the same replica, so failover and hedging
semantics are replayable from the seed alone.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.lookup.hotpath import hot_path
from repro.serve.dispatch import (
    _GOLDEN,
    _MASK64,
    _MIX_1,
    _MIX_2,
    _mix64,
    ShardPlan,
)
from repro.serve.shard import Shard, partition_slices

#: Replication ceiling: candidate lists are tiny ordered scans and the
#: engine stores replica ids in byte arrays.
MAX_REPLICATION = 8


class ReplicaPlan:
    """A :class:`ShardPlan` plus an R-way replica candidate order."""

    __slots__ = ("plan", "replication")

    def __init__(self, plan: ShardPlan, replication: int = 2):
        if not 1 <= replication <= MAX_REPLICATION:
            raise ValueError(
                "replication must be in [1, %d], got %d"
                % (MAX_REPLICATION, replication)
            )
        self.plan = plan
        self.replication = replication

    @property
    def slices(self) -> int:
        """Distinct table slices (the underlying plan's shard count)."""
        return self.plan.shards

    @property
    def workers(self) -> int:
        """Total replica workers: slices x replication."""
        return self.plan.shards * self.replication

    # -- scalar --------------------------------------------------------
    def rotation_of(self, value: int) -> int:
        """The preferred replica of destination ``value`` (scalar path)."""
        return (_mix64(value) >> 32) % self.replication

    def candidates(self, value: int) -> List[int]:
        """Replica ids of ``value``'s slice, in preference order."""
        rotation = self.rotation_of(value)
        return [
            (rotation + k) % self.replication
            for k in range(self.replication)
        ]

    def __repr__(self) -> str:
        return "ReplicaPlan(slices=%d, replication=%d, mode=%r)" % (
            self.plan.shards,
            self.replication,
            self.plan.mode,
        )


@hot_path
def replica_rotation(rplan: ReplicaPlan, dsts):
    """Preferred replica id per lane of ``dsts`` (one array op chain)."""
    h = (dsts.astype(np.uint64) + np.uint64(_GOLDEN)) & np.uint64(_MASK64)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(_MIX_1)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(_MIX_2)
    h = h ^ (h >> np.uint64(31))
    return ((h >> np.uint64(32)) % np.uint64(rplan.replication)).astype(
        np.int64
    )


def build_replica_shard(
    slice_id: int,
    replica: int,
    entry_slice,
    clue_slice,
    sender_trie,
    method: str = "advance",
    seed: int = 0,
    instruments=None,
) -> Shard:
    """Build (and certify) one replica worker's table slice.

    Every replica goes through the full PR 6 pipeline — ReceiverState,
    Simple/Advance builder, fastpath compile, ``certify_full`` +
    ``certify_clue`` — exactly like a singleton shard; the chaos engine
    calls this again, off the hot path, to rebuild a crashed worker.
    """
    metrics = (
        instruments.bind_shard("%d.%d" % (slice_id, replica))
        if instruments is not None
        else None
    )
    return Shard(
        slice_id,
        entry_slice,
        clue_slice,
        sender_trie,
        method=method,
        seed=seed,
        metrics=metrics,
    )


def build_replica_shards(
    rplan: ReplicaPlan,
    receiver_entries,
    sender_trie,
    method: str = "advance",
    seed: int = 0,
    instruments=None,
) -> Tuple[List[List[Shard]], List[List[Tuple[object, object]]], List[List[object]]]:
    """Partition once, then build R certified workers per slice.

    Returns ``(grid, entry_slices, clue_slices)`` where ``grid[s][r]``
    is replica *r* of slice *s* and the slices are retained for
    off-hot-path rebuilds after crashes.
    """
    entry_slices, clue_slices = partition_slices(
        rplan.plan, receiver_entries, sender_trie
    )
    grid: List[List[Shard]] = []
    for slice_id in range(rplan.plan.shards):
        replicas: List[Shard] = []
        for replica in range(rplan.replication):
            replicas.append(
                build_replica_shard(
                    slice_id,
                    replica,
                    entry_slices[slice_id],
                    clue_slices[slice_id],
                    sender_trie,
                    method=method,
                    seed=seed,
                    instruments=instruments,
                )
            )
        grid.append(replicas)
    return grid, entry_slices, clue_slices
