"""Where the cyclic garbage collector's passes land around a build.

A build that leaves tens of thousands of long-lived objects behind
(tries, tables, routers, compiled shards) triggers young-generation
passes that free nothing, and the full pass those promotions
eventually trigger lands wherever the allocation count happens to
cross its threshold: in the build, or in the serving window or churn
run after it, at some seeds and not at others.  Building under
:func:`settled_heap` pays for the build's collections inside the build.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def settled_heap(generation: int = 2) -> Iterator[None]:
    """Run a build with the cyclic collector paused, then collect once.

    ``generation`` is the oldest generation the closing pass examines.
    2, the default, is one full pass.  1 passes over the young
    generations only and moves everything the build left alive into
    the oldest one at once, for a build repeated often enough that a
    full pass per build would cost more than the passes it replaces.
    A build nested in another (the collector already paused) collects
    nothing; the outer one does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
            gc.collect(generation)
