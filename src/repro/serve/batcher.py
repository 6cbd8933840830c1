"""Request coalescing: kernel-sized batches under a max-size/max-wait policy.

A :class:`RequestBatcher` fronts one shard.  Incoming lookups join a
bounded FIFO; a batch is released as soon as ``max_batch`` requests are
queued (an oversize burst releases several full batches in one tick),
and a partial batch is released once the *oldest* queued request has
waited ``max_wait`` ticks — the classic latency/throughput coalescing
trade-off, made explicit and testable.

Backpressure is a first-class outcome, not an exception: a full queue
refuses the overflow, and :meth:`offer` returns how many requests were
accepted so the caller always knows which tail was refused.  The
serving loop then applies the configured policy to that tail: ``shed``
drops it (counted per shard — the report and the ``serve_shed_total``
series account every drop), ``block`` holds it upstream in an ingress
backlog, trading drops for latency.

The queue lives in int64 numpy buffers and hands batches out as
arrays, the one form the serving loop and the kernels use.

Time is a caller-supplied integer tick, never a wall clock (RC103):
the whole serving plane replays bit-identically from a seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.lookup.hotpath import hot_path

#: Backpressure policies for a refused tail: drop it vs. hold it upstream.
BACKPRESSURE_POLICIES = ("shed", "block")


class BatchPolicy:
    """The coalescing knobs shared by every shard's batcher."""

    __slots__ = ("max_batch", "max_wait", "capacity")

    def __init__(
        self,
        max_batch: int = 256,
        max_wait: int = 4,
        capacity: int = 4096,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1, got %d" % max_batch)
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0, got %d" % max_wait)
        if capacity < max_batch:
            raise ValueError(
                "capacity %d cannot be smaller than max_batch %d"
                % (capacity, max_batch)
            )
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.capacity = capacity

    def __repr__(self) -> str:
        return "BatchPolicy(max_batch=%d, max_wait=%d, capacity=%d)" % (
            self.max_batch,
            self.max_wait,
            self.capacity,
        )


class RequestBatcher:
    """A bounded coalescing queue in front of one shard.

    Three parallel ``capacity``-slot int64 buffers (destination value,
    clue length, arrival tick), read at a head and written at a tail
    that moves the queue to the front when it would run off the end.
    Requests go in and batches come out as array slice copies, so the
    serving loop's request indices never box into Python ints.
    """

    __slots__ = (
        "policy",
        "accepted",
        "released",
        "_values",
        "_lens",
        "_ticks",
        "_head",
        "_tail",
    )

    def __init__(self, policy: Optional[BatchPolicy] = None):
        self.policy = policy if policy is not None else BatchPolicy()
        #: Requests admitted to the queue since construction.
        self.accepted = 0
        #: Requests handed out in released batches since construction.
        #: Conservation holds at every instant:
        #: ``accepted = released + depth`` and every offered request is
        #: accepted or refused.
        self.released = 0
        capacity = self.policy.capacity
        self._values = np.zeros(capacity, dtype=np.int64)
        self._lens = np.zeros(capacity, dtype=np.int64)
        self._ticks = np.zeros(capacity, dtype=np.int64)
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    @property
    def depth(self) -> int:
        """Current queue depth (the ``serve_queue_depth`` gauge value)."""
        return len(self)

    def offer(self, values, lens, tick: int, arrivals=None) -> int:
        """Enqueue up to capacity; returns how many were accepted.

        ``tick`` stamps the arrival time of every request unless
        ``arrivals`` carries per-request ticks (blocked requests being
        retried keep their *original* arrival, so their latency includes
        the time they spent refused upstream).  The refused tail is the
        caller's to shed or hold.
        """
        capacity = self.policy.capacity
        take = min(len(values), capacity - len(self))
        if take:
            if self._tail + take > capacity:
                depth = len(self)
                for buf in (self._values, self._lens, self._ticks):
                    buf[:depth] = buf[self._head : self._tail]
                self._head, self._tail = 0, depth
            tail = self._tail
            end = tail + take
            self._values[tail:end] = values[:take]
            self._lens[tail:end] = lens[:take]
            self._ticks[tail:end] = tick if arrivals is None else arrivals[:take]
            self._tail = end
            self.accepted += take
        return take

    @hot_path
    def take_batch(self, tick: int):
        """Release one due batch, or ``None`` if nothing is due yet.

        Due means either a full ``max_batch`` is queued, or the oldest
        request has waited ``max_wait`` ticks.  Call repeatedly per tick
        until it returns ``None`` — an oversize burst releases several
        full batches back to back.  Returns ``(values, lens, ticks)``
        slices; an empty queue never yields an (empty) batch.
        """
        queued = len(self)
        if not queued:
            return None
        policy = self.policy
        size = policy.max_batch
        if queued < size:
            if tick - self._ticks[self._head] < policy.max_wait:
                return None
            size = queued
        return self._pop(size)

    def drain_all(self, tick: int) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Flush everything queued as maximal batches (end-of-run drain)."""
        batches = []
        while len(self):
            batches.append(self._pop(min(self.policy.max_batch, len(self))))
        return batches

    def _pop(self, size: int):
        start = self._head
        self._head = stop = start + size
        self.released += size
        return (
            self._values[start:stop].copy(),
            self._lens[start:stop].copy(),
            self._ticks[start:stop].copy(),
        )

    def __repr__(self) -> str:
        return "%s(depth=%d, %r)" % (type(self).__name__, len(self), self.policy)
