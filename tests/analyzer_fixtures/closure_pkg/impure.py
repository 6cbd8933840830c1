"""Sinks: one flagged, one suppressed, one behind a @cold_path
barrier (its allocations are sanctioned), one never reached."""

from repro.lookup.hotpath import cold_path


def sink(table, key):
    return [value for value in table if value == key]


def waived_sink(key):
    # repro: noqa[RC101] -- scratch list reused by the caller's pool
    return list(key)


@cold_path
def build_entry(table):
    """Sanctioned build-on-miss boundary: allocations below it are
    off the per-packet budget."""
    return {key: expensive(key) for key in table}


def expensive(key):
    return sorted(str(key))


def unreached(table):
    """Impure but not reachable from any hot entry — stays silent."""
    return {key: None for key in table}
