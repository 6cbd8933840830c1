"""repro.analyzer.graph — whole-program call-graph construction.

Hot-path purity (RC101) and seeded-RNG discipline (RC102) are
*whole-program* properties: a violation three calls below a
``@hot_path`` entry or an engine's round loop breaks the contract as
surely as one written inline.  This subpackage supplies the layer
those rules walk:

* :mod:`summary` — a per-file digest (functions, classes, imports,
  call sites, rule-local facts) built from one AST walk;
* :mod:`facts` — the rule-local fact extractors (purity violations,
  seed forks) embedded into summaries at parse time, and the RNG-call
  classifier RC102 shares with them;
* :mod:`callgraph` — name resolution over a set of summaries into a
  module-qualified call graph with reachability and call-path
  reconstruction.

See DESIGN.md §9 for the resolution rules and known imprecisions.
"""

from repro.analyzer.graph.callgraph import (
    CallEdge,
    CallGraph,
    FunctionNode,
    build_call_graph,
)
from repro.analyzer.graph.summary import (
    CallRef,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    module_name_for_path,
    summarize_source,
)

__all__ = [
    "CallEdge",
    "CallGraph",
    "CallRef",
    "ClassSummary",
    "FunctionNode",
    "FunctionSummary",
    "ModuleSummary",
    "build_call_graph",
    "module_name_for_path",
    "summarize_source",
]
