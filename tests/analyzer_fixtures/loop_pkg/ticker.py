"""Serving-plane tick whose drain helpers live a file away.

Loaded by the tests with the path ``src/repro/serve/ticker.py`` so the
module resolves as ``repro.serve.ticker``, the serving plane whose
loops RC106/RC112 flag where they are written.
"""

from repro.serve.drain import (
    bounded_drain,
    documented_drain,
    drain_forever,
    retry_send,
)


def tick(queue, wire):
    drain_forever(queue)
    retry_send(wire)
    bounded_drain(queue)
    documented_drain(queue)


def helper_only(queue):
    """Not reached from ``tick`` — the loop below it is an RC106
    finding all the same."""
    return orphan_spin(queue)


def orphan_spin(queue):
    while True:
        if not queue:
            return
        queue.pop()
