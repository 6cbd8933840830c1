"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is the repo's single source of observable truth.  Every
metric lives in a :class:`MetricsRegistry`; a process-wide default
registry (:func:`get_registry`) backs the instruments that the lookup
hot path and the netsim fabric increment.

Design constraints, in order:

* **Zero allocation on the increment path.**  A metric's ``labels(...)``
  method returns a *bound* child that caches the frozen label-key tuple
  and the parent's value dict; ``inc()`` on the child is one dict store.
* **Resettable.**  Experiments reuse the process registry between runs;
  ``registry.reset()`` zeroes every series without invalidating bound
  children (they keep writing into the same dicts).
* **Deterministic exports.**  Iteration orders are insertion order for
  metrics and sorted order for label series, so rendered output is
  stable and golden-testable.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[str, ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for per-lookup memory-reference
#: counts (§6 reports averages in the 1–30 range; the tail covers cold
#: full lookups on large tries).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError("invalid metric name %r" % name)
    return name


def _check_labels(label_names: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(label_names)
    for label in names:
        if not _LABEL_RE.match(label):
            raise ValueError("invalid label name %r" % label)
    if len(set(names)) != len(names):
        raise ValueError("duplicate label names %r" % (names,))
    return names


class _BoundCounter:
    """A counter pre-bound to one label key; ``inc`` is one dict store."""

    __slots__ = ("_values", "_key")

    def __init__(self, values: Dict[LabelKey, float], key: LabelKey):
        self._values = values
        self._key = key

    def inc(self, amount: float = 1) -> None:
        values = self._values
        values[self._key] = values.get(self._key, 0) + amount

    def value(self) -> float:
        return self._values.get(self._key, 0)


class Counter:
    """A monotonically increasing count, optionally partitioned by labels."""

    __slots__ = ("name", "help", "label_names", "_values")

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(labels)
        self._values: Dict[LabelKey, float] = {}

    def _key(self, labels: Sequence[str]) -> LabelKey:
        key = tuple(labels)
        if len(key) != len(self.label_names):
            raise ValueError(
                "%s expects %d label values, got %r"
                % (self.name, len(self.label_names), key)
            )
        return key

    def inc(self, amount: float = 1, labels: Sequence[str] = ()) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def labels(self, *values: str) -> _BoundCounter:
        """A bound child caching the label key (the hot-path handle)."""
        return _BoundCounter(self._values, self._key(values))

    def value(self, labels: Sequence[str] = ()) -> float:
        return self._values.get(tuple(labels), 0)

    def total(self) -> float:
        """Sum across every label series."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())

    def reset(self) -> None:
        self._values.clear()

    def __repr__(self) -> str:
        return "Counter(%s, %d series)" % (self.name, len(self._values))


class _BoundGauge:
    """A gauge pre-bound to one label key."""

    __slots__ = ("_values", "_key")

    def __init__(self, values: Dict[LabelKey, float], key: LabelKey):
        self._values = values
        self._key = key

    def set(self, value: float) -> None:
        self._values[self._key] = value

    def inc(self, amount: float = 1) -> None:
        values = self._values
        values[self._key] = values.get(self._key, 0) + amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def value(self) -> float:
        return self._values.get(self._key, 0)


class Gauge:
    """A value that can go up and down (sizes, rates, occupancy)."""

    __slots__ = ("name", "help", "label_names", "_values")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(labels)
        self._values: Dict[LabelKey, float] = {}

    _key = Counter._key

    def set(self, value: float, labels: Sequence[str] = ()) -> None:
        self._values[self._key(labels)] = value

    def inc(self, amount: float = 1, labels: Sequence[str] = ()) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, labels: Sequence[str] = ()) -> None:
        self.inc(-amount, labels)

    def labels(self, *values: str) -> _BoundGauge:
        return _BoundGauge(self._values, self._key(values))

    def value(self, labels: Sequence[str] = ()) -> float:
        return self._values.get(tuple(labels), 0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())

    def reset(self) -> None:
        self._values.clear()

    def __repr__(self) -> str:
        return "Gauge(%s, %d series)" % (self.name, len(self._values))


class _BoundHistogram:
    """A histogram series pre-bound to one label key."""

    __slots__ = ("_buckets", "_state")

    def __init__(self, buckets: Tuple[float, ...], state: list):
        self._buckets = buckets
        self._state = state

    def observe(self, value: float) -> None:
        state = self._state
        state[0][bisect_left(self._buckets, value)] += 1
        state[1] += value
        state[2] += 1


class HistogramSnapshot:
    """One histogram series frozen for reading/export."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(
        self,
        buckets: Tuple[float, ...],
        counts: Tuple[int, ...],
        sum_: float,
        count: int,
    ):
        self.buckets = buckets
        #: Per-bucket (non-cumulative) counts; the final slot is +Inf.
        self.counts = counts
        self.sum = sum_
        self.count = count

    def cumulative(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (ending at count)."""
        out: List[int] = []
        running = 0
        for value in self.counts:
            running += value
            out.append(running)
        return out

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram:
    """Fixed-bucket distribution: per-bucket counts plus sum and count.

    Buckets are upper bounds with ``value <= bound`` semantics; a final
    implicit +Inf bucket catches the tail, so ``observe`` never fails.
    """

    __slots__ = ("name", "help", "label_names", "buckets", "_series")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(labels)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram %s needs at least one bucket" % name)
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram %s has duplicate buckets" % name)
        self.buckets = bounds
        #: label key → [bucket counts, sum, count] (mutable in place so
        #: bound children survive concurrent inserts).
        self._series: Dict[LabelKey, list] = {}

    _key = Counter._key

    def _state(self, key: LabelKey) -> list:
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
        return state

    def observe(self, value: float, labels: Sequence[str] = ()) -> None:
        state = self._state(self._key(labels))
        state[0][bisect_left(self.buckets, value)] += 1
        state[1] += value
        state[2] += 1

    def labels(self, *values: str) -> _BoundHistogram:
        return _BoundHistogram(self.buckets, self._state(self._key(values)))

    def snapshot(self, labels: Sequence[str] = ()) -> HistogramSnapshot:
        state = self._series.get(tuple(labels))
        if state is None:
            return HistogramSnapshot(
                self.buckets, (0,) * (len(self.buckets) + 1), 0.0, 0
            )
        return HistogramSnapshot(
            self.buckets, tuple(state[0]), state[1], state[2]
        )

    def samples(self) -> List[Tuple[LabelKey, HistogramSnapshot]]:
        return [(key, self.snapshot(key)) for key in sorted(self._series)]

    def count(self, labels: Sequence[str] = ()) -> int:
        state = self._series.get(tuple(labels))
        return state[2] if state is not None else 0

    def total_count(self) -> int:
        """Observations across every label series."""
        return sum(state[2] for state in self._series.values())

    def reset(self) -> None:
        # Zero in place: bound children hold references to the state lists.
        for state in self._series.values():
            state[0] = [0] * (len(self.buckets) + 1)
            state[1] = 0.0
            state[2] = 0

    def __repr__(self) -> str:
        return "Histogram(%s, %d buckets, %d series)" % (
            self.name,
            len(self.buckets),
            len(self._series),
        )


class MetricsRegistry:
    """A named, ordered collection of metrics.

    ``counter`` / ``gauge`` / ``histogram`` are *get-or-create*: asking
    twice for the same name returns the same object (so independent
    modules can share canonical instruments), but re-registering a name
    as a different kind or with different labels is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # -- registration ---------------------------------------------------
    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    "metric %r already registered as %s"
                    % (name, type(existing).kind)
                )
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    "metric %r already registered with labels %r"
                    % (name, existing.label_names)
                )
            return existing
        metric = cls(name, help, label_names, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    # -- access ---------------------------------------------------------
    def get(self, name: str):
        """The metric registered under ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def names(self) -> List[str]:
        return list(self._metrics)

    def collect(self) -> Iterator[object]:
        """Metrics in registration order (the export order)."""
        return iter(self._metrics.values())

    def reset(self) -> None:
        """Zero every metric; registrations and bound children survive."""
        for metric in self._metrics.values():
            metric.reset()

    def unregister(self, name: str) -> bool:
        """Drop a metric entirely.  True if it existed."""
        return self._metrics.pop(name, None) is not None

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[object]:
        return self.collect()

    def __repr__(self) -> str:
        return "MetricsRegistry(%d metrics)" % len(self._metrics)


#: The process-wide default registry backing the default instruments.
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
