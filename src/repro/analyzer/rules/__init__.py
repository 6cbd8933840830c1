"""The domain rules enforced by ``repro-clue lint``.

Importing this package registers every rule with the engine registry
(:func:`repro.analyzer.engine.register`); ``default_rules()`` then
instantiates them in code order.  Each module documents the invariant
its rule protects and the paper claim or past regression motivating it
(see also DESIGN.md "Static analysis").
"""

from repro.analyzer.rules.api import PublicApiRule
from repro.analyzer.rules.batchkernel import BatchKernelLoopRule
from repro.analyzer.rules.determinism import WallClockRule
from repro.analyzer.rules.hotpath import HotPathPurityRule
from repro.analyzer.rules.loops import UnboundedLoopRule
from repro.analyzer.rules.retry import BoundedRetryRule
from repro.analyzer.rules.rng import SeededRngRule
from repro.analyzer.rules.todo import StrayTodoRule

__all__ = [
    "BatchKernelLoopRule",
    "BoundedRetryRule",
    "HotPathPurityRule",
    "PublicApiRule",
    "SeededRngRule",
    "StrayTodoRule",
    "UnboundedLoopRule",
    "WallClockRule",
]
