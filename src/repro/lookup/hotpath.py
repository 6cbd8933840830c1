"""The hot-path marker: declares a function part of the per-packet path.

The paper's headline claim is that a clue hit resolves a packet in *one*
memory reference; every Python-level inefficiency on that path dilutes
the claim's measurement.  Functions decorated with :func:`hot_path` are
the per-packet data path — the clue-table probe, the clue-assisted
lookup, the router ``process`` methods — and the static analyzer
(:mod:`repro.analyzer`, rule ``RC101``) holds them, and every function
they reach through the call graph, to a purity contract:

* no container allocations (literals, comprehensions, ``list()``/
  ``dict()``/``set()``/``sorted()`` calls) — per-packet allocation is the
  regression class fixed by the per-router ``MemoryCounter`` reuse;
* no string formatting (f-strings, ``%``, ``str.format``) outside
  ``raise`` statements — error paths may format, the happy path may not;
* no unsampled telemetry — label binding (``.labels(...)``) must happen
  at setup time (see :class:`repro.telemetry.instruments
  .RouterInstruments`), and tracer calls must sit behind a
  ``tracer.active`` sampling guard.

Its counterpart :func:`cold_path` marks the *sanctioned exits*: a
function a hot path may call whose cost is amortized off the per-packet
budget — lazy lookup-structure construction on a clue miss (the Advance
method allocates an entry precisely once per destination), or the
fastpath's lane-by-lane resume walk for a batch that resumes only a
few lanes, whose per-batch result lists are amortized over the batch.  RC101's call-graph walk stops descending at a
``@cold_path`` boundary, so the decoration is the
reviewable, greppable record of every place the per-packet path is
allowed to step off the fast path.

Both decorators are zero-cost markers: they stamp an attribute and
return the function unchanged, so there is no wrapper frame on the very
path they protect.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

#: Attribute stamped on hot-path functions (used by tooling, not runtime).
HOT_PATH_ATTR = "__repro_hot_path__"

#: Attribute stamped on sanctioned hot→cold boundary functions.
COLD_PATH_ATTR = "__repro_cold_path__"


def hot_path(func: F) -> F:
    """Mark ``func`` as per-packet hot path (see module docstring)."""
    setattr(func, HOT_PATH_ATTR, True)
    return func


def is_hot_path(func: object) -> bool:
    """True if ``func`` was decorated with :func:`hot_path`."""
    return bool(getattr(func, HOT_PATH_ATTR, False))


def cold_path(func: F) -> F:
    """Mark ``func`` as a sanctioned exit from the hot path: callable
    from ``@hot_path`` code, but amortized off the per-packet budget
    (build-on-miss construction, per-batch buffers).  RC101 treats it
    as a closure barrier instead of flagging its allocations."""
    setattr(func, COLD_PATH_ATTR, True)
    return func


def is_cold_path(func: object) -> bool:
    """True if ``func`` was decorated with :func:`cold_path`."""
    return bool(getattr(func, COLD_PATH_ATTR, False))
