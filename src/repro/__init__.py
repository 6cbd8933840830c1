"""Routing with a Clue — a full reproduction of the SIGCOMM 1999 paper.

Distributed IP lookup: each router stamps a 5-bit *clue* (the length of
the best matching prefix it found) onto every packet; the next router
uses the clue to resolve the packet in about one memory reference instead
of repeating the longest-prefix match from scratch.

Public API tour:

>>> from repro import (
...     Prefix, Address,
...     ReceiverState, SimpleMethod, AdvanceMethod, ClueAssistedLookup,
... )
>>> table2 = [(Prefix.parse("10.0.0.0/8"), "a"),
...           (Prefix.parse("10.1.0.0/16"), "b")]
>>> table1 = [(Prefix.parse("10.0.0.0/8"), "x")]
>>> from repro.trie import BinaryTrie
>>> from repro.lookup import PatriciaLookup, MemoryCounter
>>> receiver = ReceiverState(table2)
>>> method = AdvanceMethod(BinaryTrie.from_prefixes(table1), receiver)
>>> lookup = ClueAssistedLookup(PatriciaLookup(table2), method.build_table())
>>> dest = Address.parse("10.1.2.3")
>>> result = lookup.lookup(dest, clue=dest.prefix(8))
>>> str(result.prefix)
'10.1.0.0/16'

Sub-packages: :mod:`repro.addressing` (prefixes), :mod:`repro.trie`
(binary/Patricia tries + Claim 1 overlays), :mod:`repro.lookup` (the five
LPM baselines), :mod:`repro.core` (the clue scheme itself),
:mod:`repro.tablegen` (synthetic neighbouring tables),
:mod:`repro.routing` (path-vector / link-state substrates),
:mod:`repro.netsim` (multi-hop simulation, MPLS, deployment studies),
:mod:`repro.experiments` (the paper's evaluation harness),
:mod:`repro.serve` (the sharded serving plane over the compiled
fast path), :mod:`repro.resilience` (fault-tolerant serving:
replicated certified slices, failover, deadlines/retries/hedging,
and the chaos benchmark) and :mod:`repro.control` (the link-state
IGP whose SPF routes feed the clue data path live).
"""

from repro.addressing import Address, Prefix
from repro.control import (
    ControlEngine,
    ControlPlane,
    ControlProcess,
    ControlReport,
    build_control_scenario,
)
from repro.core import (
    AdvanceMethod,
    ClueAssistedLookup,
    ClueEntry,
    ClueHeader,
    ClueTable,
    IndexedClueLookup,
    ReceiverState,
    SimpleMethod,
)
from repro.lookup import (
    BASELINES,
    BinaryRangeLookup,
    LogWLookup,
    LookupResult,
    MemoryCounter,
    MultiwayRangeLookup,
    PatriciaLookup,
    RegularTrieLookup,
)
from repro.resilience import (
    ChaosEngine,
    ReplicaPlan,
    ResilienceConfig,
    ResilienceReport,
    ShardHealth,
    ShardHealthPolicy,
)
from repro.serve import (
    ServeConfig,
    ServeEngine,
    ServeReport,
    ShardPlan,
    ZipfLoadGenerator,
)
from repro.trie import BinaryTrie, PatriciaTrie, TrieOverlay

__version__ = "1.0.0"

__all__ = [
    "Address",
    "AdvanceMethod",
    "BASELINES",
    "BinaryRangeLookup",
    "BinaryTrie",
    "ChaosEngine",
    "ClueAssistedLookup",
    "ClueEntry",
    "ClueHeader",
    "ClueTable",
    "ControlEngine",
    "ControlPlane",
    "ControlProcess",
    "ControlReport",
    "IndexedClueLookup",
    "LogWLookup",
    "LookupResult",
    "MemoryCounter",
    "MultiwayRangeLookup",
    "PatriciaLookup",
    "PatriciaTrie",
    "Prefix",
    "ReceiverState",
    "RegularTrieLookup",
    "ReplicaPlan",
    "ResilienceConfig",
    "ResilienceReport",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "ShardHealth",
    "ShardHealthPolicy",
    "ShardPlan",
    "SimpleMethod",
    "TrieOverlay",
    "ZipfLoadGenerator",
    "__version__",
    "build_control_scenario",
]
