"""repro.control — a link-state IGP feeding the clue data path.

Seven modules, one story:

* :mod:`repro.control.lsa` — sequence-numbered router LSAs and the
  hello / LsUpdate / LsAck message vocabulary;
* :mod:`repro.control.neighbor` — per-neighbour adjacency state
  machines (hello/dead-interval bring-up and teardown);
* :mod:`repro.control.lsdb` — the synchronised link-state database,
  with max-age purge and bidirectionally-agreed topology derivation;
* :mod:`repro.control.flooding` — reliable flooding (ack/retransmit);
* :mod:`repro.control.spf` — Dijkstra SPF plus the brute-force
  all-pairs certifier, sharing one canonical tie-break rule;
* :mod:`repro.control.process` — the per-router protocol engine;
* :mod:`repro.control.plane` — tick-synchronous message delivery over
  a netsim topology, with fault-driven link/router outages;
* :mod:`repro.control.engine` — convergence-under-load: SPF deltas
  drive :class:`~repro.core.maintenance.MaintainedClueTable` updates
  through :mod:`repro.churn` while traffic flows and every hop is
  audited against the never-wrong-forwarding oracle.

The point of the package: the paper's clue economics were only ever
measured against *static* or *synthetically churned* tables.  Here the
routing tables are computed, withdrawn, and re-announced by an actual
protocol reacting to flaps, cost changes, and crashes — so the
95–99.5 % non-problematic claim is tested while the network is
genuinely mid-convergence.
"""

from repro.control.engine import (
    ControlEngine,
    ControlReport,
    ControlScenario,
    TickReport,
    build_control_scenario,
)
from repro.control.flooding import FloodingState
from repro.control.lsa import (
    DEFAULT_MAX_AGE,
    Hello,
    LsAck,
    LsUpdate,
    RouterLSA,
)
from repro.control.lsdb import LinkStateDatabase
from repro.control.neighbor import (
    Adjacency,
    STATE_DOWN,
    STATE_FULL,
    STATE_INIT,
)
from repro.control.plane import ControlConvergenceError, ControlPlane
from repro.control.process import ControlProcess
from repro.control.spf import (
    brute_force_distances,
    certify_next_hops,
    next_hop_table,
    oracle_next_hops,
    shortest_path_first,
)

__all__ = [
    "Adjacency",
    "ControlConvergenceError",
    "ControlEngine",
    "ControlPlane",
    "ControlProcess",
    "ControlReport",
    "ControlScenario",
    "DEFAULT_MAX_AGE",
    "FloodingState",
    "Hello",
    "LinkStateDatabase",
    "LsAck",
    "LsUpdate",
    "RouterLSA",
    "STATE_DOWN",
    "STATE_FULL",
    "STATE_INIT",
    "TickReport",
    "brute_force_distances",
    "build_control_scenario",
    "certify_next_hops",
    "next_hop_table",
    "oracle_next_hops",
    "shortest_path_first",
]
