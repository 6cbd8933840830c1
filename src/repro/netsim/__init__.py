"""Network simulation: clue-aware forwarding, MPLS, deployment studies."""

from repro.netsim.flows import FlowExperiment, SchemeCost, pareto_flow_sizes
from repro.netsim.heterogeneous import (
    DeploymentPoint,
    build_neighbor_chain,
    deployment_sweep,
    rehop,
)
from repro.netsim.loadbalance import (
    ShapingReport,
    shape_sender_table,
    shaping_report,
)
from repro.netsim.mpls import AggregationScenario, LabelEntry, MplsRouter
from repro.netsim.multicast import (
    MULTICAST_BLOCK,
    MulticastForwarder,
    derive_neighbor_groups,
    generate_group_table,
)
from repro.netsim.invariant import InvariantError, wrong_hop_details
from repro.netsim.network import DeliveryReport, Network
from repro.netsim.packet import HopRecord, Packet
from repro.netsim.path_profile import (
    DEFAULT_LENGTH_PROFILE,
    ChainScenario,
    PathProfile,
)
from repro.netsim.robustness import (
    RobustnessPoint,
    stale_table_experiment,
    truncated_clue_experiment,
    withheld_clue_experiment,
    withheld_mask,
)
from repro.netsim.router import ClueRouter, LegacyRouter, Router
from repro.netsim.transit import TransitHopReport, TransitScenario

__all__ = [
    "AggregationScenario",
    "ChainScenario",
    "ClueRouter",
    "DEFAULT_LENGTH_PROFILE",
    "DeliveryReport",
    "DeploymentPoint",
    "FlowExperiment",
    "HopRecord",
    "InvariantError",
    "SchemeCost",
    "pareto_flow_sizes",
    "LabelEntry",
    "LegacyRouter",
    "MULTICAST_BLOCK",
    "MplsRouter",
    "MulticastForwarder",
    "Network",
    "TransitHopReport",
    "TransitScenario",
    "derive_neighbor_groups",
    "generate_group_table",
    "Packet",
    "PathProfile",
    "RobustnessPoint",
    "Router",
    "ShapingReport",
    "build_neighbor_chain",
    "deployment_sweep",
    "rehop",
    "shape_sender_table",
    "shaping_report",
    "stale_table_experiment",
    "truncated_clue_experiment",
    "withheld_clue_experiment",
    "withheld_mask",
    "wrong_hop_details",
]
