"""R-way replicated shard placement over the serving plane's ``ShardPlan``.

The serving plane's :class:`~repro.serve.dispatch.ShardPlan` maps every
destination to exactly one *slice* of the table.  A single crash then
destroys coverage for the slice's whole key range — so the resilience
layer replicates: each slice is built, compiled, and certified once,
and served by **R** independent workers that share its compiled
arrays (nothing writes them after they are built), and every
destination resolves to an *ordered* candidate list of the R replica
workers of its slice.  A crashed worker is rebuilt from scratch, and
re-certified.  Plain serving builds its plane here too, at R = 1:
:func:`build_replica_shards` is the one shard builder of both front
ends, and :meth:`ReplicaPlan.label` the one worker-label rule.

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

    def label(self, slice_id: int, replica: int) -> str:
        """Worker ``replica`` of slice ``slice_id``'s telemetry label:
        ``"s"`` when a slice has one replica, ``"s.r"`` otherwise."""
        if self.replication == 1:
            return str(slice_id)
        return "%d.%d" % (slice_id, replica)

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


def _shard_view(instruments, rplan: ReplicaPlan, slice_id: int, replica: int):
    """Replica ``replica`` of slice ``slice_id``'s own shard metrics view."""
    if instruments is None:
        return None
    return instruments.bind_shard(rplan.label(slice_id, replica))


def build_replica_shard(
    rplan: ReplicaPlan,
    slice_id: int,
    replica: int,
    entry_slice,
    clue_slice,
    sender_trie,
    method: str = "advance",
    seed: int = 0,
    instruments=None,
    layout: str = "dense",
) -> Shard:
    """Build (and certify) one replica worker's table slice.

    It goes through the full shard pipeline — ReceiverState,
    Simple/Advance builder, fastpath compile in ``layout``, one
    ``certify_clue`` call.  Set-up builds replica 0 of each slice here,
    once; the serving loop calls it again, off the hot path, to rebuild
    a crashed worker.
    """
    return Shard(
        slice_id,
        entry_slice,
        clue_slice,
        sender_trie,
        method=method,
        seed=seed,
        metrics=_shard_view(instruments, rplan, slice_id, replica),
        layout=layout,
    )


def build_replica_shards(
    rplan: ReplicaPlan,
    receiver_entries,
    sender_trie,
    method: str = "advance",
    seed: int = 0,
    instruments=None,
    layout: str = "dense",
) -> Tuple[List[List[Shard]], List[List[Tuple[object, object]]], List[List[object]]]:
    """Partition once, then build one certified slice per R workers.

    Replica 0 of each slice is built and certified; replicas 1 to R−1
    share its compiled arrays (:meth:`Shard.replica`), each under its
    own metrics view, and report 0 certified lanes.  Returns
    ``(grid, entry_slices, clue_slices)`` where ``grid[s][r]`` is
    replica *r* of slice *s* and the slices are retained for
    off-hot-path rebuilds after crashes.
    """
    entry_slices, clue_slices = partition_slices(
        rplan.plan, receiver_entries, sender_trie
    )
    grid: List[List[Shard]] = []
    for slice_id in range(rplan.slices):
        built = build_replica_shard(
            rplan,
            slice_id,
            0,
            entry_slices[slice_id],
            clue_slices[slice_id],
            sender_trie,
            method=method,
            seed=seed,
            instruments=instruments,
            layout=layout,
        )
        grid.append([built] + [
            built.replica(_shard_view(instruments, rplan, slice_id, replica))
            for replica in range(1, rplan.replication)
        ])
    return grid, entry_slices, clue_slices
