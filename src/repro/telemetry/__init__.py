"""Metrics, tracing, and export for the distributed-IP-lookup repro.

Three layers, smallest surface first:

* :mod:`repro.telemetry.registry` — ``Counter`` / ``Gauge`` /
  ``Histogram`` primitives behind a resettable :class:`MetricsRegistry`;
* :mod:`repro.telemetry.trace` — per-packet :class:`TraceSpan` records
  behind a deterministically sampling :class:`Tracer`;
* :mod:`repro.telemetry.instruments` — the canonical metric catalogue
  (``CATALOGUE``, one row per series, registered and bound by
  :class:`LookupInstruments`) the lookup hot path and the netsim
  fabric report through;
* :mod:`repro.telemetry.export` — JSON and Prometheus text renderings.

The synthetic end-to-end harness (``repro telemetry --synthetic``) lives
in :mod:`repro.telemetry.synthetic`, imported lazily to keep this
package free of any dependency on the simulation layers above it.
"""

from repro.telemetry.export import (
    registry_to_dict,
    render_json,
    render_prometheus,
)
from repro.telemetry.instruments import (
    ADJACENCY_STATES,
    CONVERGENCE_BUCKETS,
    ControlInstruments,
    DEPTH_BUCKETS,
    DIRECT_UPSTREAM,
    LookupInstruments,
    RouterInstruments,
    default_instruments,
    set_default_instruments,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.telemetry.trace import (
    DEFAULT_TRACE_CAPACITY,
    METHOD_CLUE_MISS,
    METHOD_FD_IMMEDIATE,
    METHOD_FULL,
    METHOD_RESUMED,
    METHODS,
    NULL_TRACER,
    TraceSpan,
    Tracer,
)

__all__ = [
    "ADJACENCY_STATES",
    "CONVERGENCE_BUCKETS",
    "ControlInstruments",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_TRACE_CAPACITY",
    "DEPTH_BUCKETS",
    "DIRECT_UPSTREAM",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LookupInstruments",
    "METHOD_CLUE_MISS",
    "METHOD_FD_IMMEDIATE",
    "METHOD_FULL",
    "METHOD_RESUMED",
    "METHODS",
    "MetricsRegistry",
    "NULL_TRACER",
    "RouterInstruments",
    "TraceSpan",
    "Tracer",
    "default_instruments",
    "get_registry",
    "registry_to_dict",
    "render_json",
    "render_prometheus",
    "set_default_instruments",
    "set_registry",
]
