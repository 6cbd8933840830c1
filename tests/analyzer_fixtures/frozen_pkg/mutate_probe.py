"""Stores into the merged clue-probe arrays outside the compiler:
flagged and legal variants."""

from repro.fastpath.compile import CompiledClueTable


def splice_probe_key(table: CompiledClueTable, position, key):
    # The keys stay sorted only if nothing but the compiler writes them.
    table.probe_keys[position] = key


def retarget_probe(table: CompiledClueTable, position):
    table.probe_recs[position] += 1


def legal_probe_rebind(table: CompiledClueTable, keys, recs):
    # Rebinding both arrays is the recompile idiom, not mutation.
    table.probe_keys = keys
    table.probe_recs = recs
