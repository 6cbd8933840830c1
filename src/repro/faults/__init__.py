"""repro.faults — adversarial fault injection and the guarded data path.

Three modules, one story:

* :mod:`repro.faults.inject` breaks things — seeded, composable
  injectors for in-flight clue corruption, Byzantine neighbours,
  clue-table record corruption, and crash/link-down schedules;
* :mod:`repro.faults.guard` survives them — a validated, self-healing
  lookup wrapper with per-neighbour health scores and quarantine;
* :mod:`repro.faults.engine` runs the fight and keeps score against
  the never-wrong-forwarding invariant and the clueless baseline.
"""

from repro.faults.engine import (
    FaultEngine,
    FaultReport,
    RoundReport,
    build_fault_scenario,
)
from repro.faults.guard import (
    GuardedLookup,
    GuardPolicy,
    NeighborHealth,
    PROBATION,
    QUARANTINED,
    REJECT_REASONS,
    TRUSTED,
)
from repro.faults.inject import (
    BatchDropEvent,
    CrashEvent,
    FaultPlan,
    LIE_MODES,
    LinkDownEvent,
    ReplicaCrashEvent,
    ShardFaultPlan,
    SlowReplicaEvent,
    flap_crash_plan,
    random_topology_events,
    shard_chaos_plan,
)

__all__ = [
    "FaultEngine",
    "FaultReport",
    "RoundReport",
    "build_fault_scenario",
    "GuardedLookup",
    "GuardPolicy",
    "NeighborHealth",
    "TRUSTED",
    "PROBATION",
    "QUARANTINED",
    "REJECT_REASONS",
    "BatchDropEvent",
    "CrashEvent",
    "FaultPlan",
    "LinkDownEvent",
    "LIE_MODES",
    "ReplicaCrashEvent",
    "ShardFaultPlan",
    "SlowReplicaEvent",
    "flap_crash_plan",
    "random_topology_events",
    "shard_chaos_plan",
]
