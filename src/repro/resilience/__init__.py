"""repro.resilience — fault-tolerant serving over the replicated plane.

The serving plane of :mod:`repro.serve` assumes every shard stays up;
this subsystem drops that assumption and keeps the paper's never-wrong
forwarding invariant anyway.  Four modules, one story:

* :mod:`repro.resilience.replica` — every table slice built, compiled,
  and certified once and shared by its R replica workers, with a
  deterministic per-destination replica preference order; plain
  serving builds its plane here too, at R = 1.
* :mod:`repro.resilience.health` — a per-worker health FSM (healthy →
  suspect → quarantined → probation, doubling cooldowns) that steers
  dispatch away from sick replicas.
* :mod:`repro.resilience.engine` — what both serving front ends share
  (the config core, the set-up and the one tick loop) and the chaos
  engine on it: deadlines, bounded retries with backoff, hedging,
  failover, a full-table degraded path, crash rebuild +
  re-certification — and a full-population audit proving every served
  answer right.
* :mod:`repro.resilience.report` — the ``BENCH_resilience.json``
  payload comparing the same seeded workload with and without faults.

Fault schedules come from :func:`repro.faults.shard_chaos_plan`; time
is an integer tick throughout (RC103), so every chaos run replays
bit-identically from its seed.
"""

# repro.serve's engine extends this package's serving loop, so
# repro.serve is imported first: the loop's module then loads whole,
# whichever of the two packages a program imports first.
import repro.serve as _serve  # noqa: F401

from repro.resilience.engine import (
    ChaosEngine,
    EXPIRED,
    PENDING,
    ResilienceConfig,
    SERVED,
    SHED,
)
from repro.resilience.health import (
    HEALTH_STATE_CODES,
    SHARD_HEALTH_STATES,
    SHARD_HEALTHY,
    SHARD_PROBATION,
    SHARD_QUARANTINED,
    SHARD_SUSPECT,
    ShardHealth,
    ShardHealthPolicy,
)
from repro.resilience.replica import (
    MAX_REPLICATION,
    ReplicaPlan,
    build_replica_shard,
    build_replica_shards,
    partition_slices,
    replica_rotation,
)
from repro.resilience.report import ResilienceReport

__all__ = [
    "ChaosEngine",
    "EXPIRED",
    "HEALTH_STATE_CODES",
    "MAX_REPLICATION",
    "PENDING",
    "ReplicaPlan",
    "ResilienceConfig",
    "ResilienceReport",
    "SERVED",
    "SHARD_HEALTHY",
    "SHARD_HEALTH_STATES",
    "SHARD_PROBATION",
    "SHARD_QUARANTINED",
    "SHARD_SUSPECT",
    "SHED",
    "ShardHealth",
    "ShardHealthPolicy",
    "build_replica_shard",
    "build_replica_shards",
    "partition_slices",
    "replica_rotation",
]
