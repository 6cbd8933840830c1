"""repro.fastpath — flat-array clue tables and vectorized batch lookup.

Compiles built object-graph structures (`BinaryTrie`, `ClueTable`) into
read-only numpy arrays and batches whole destination vectors through
one set of numpy kernels at every address width — int64 lanes for IPv4,
object lanes of Python ints for IPv6 — while reproducing the paper's
per-packet memory-reference accounting exactly (enforced by `certify`).
"""

from repro.fastpath.backend import (
    CODE_CLUE_MISS,
    CODE_FD_IMMEDIATE,
    CODE_FULL,
    CODE_RESUMED,
    CODE_TO_METHOD,
)
from repro.fastpath.certify import (
    CertificationError,
    certification_batch,
    certify_clue,
    certify_full,
)
from repro.fastpath.compile import (
    CompiledClueTable,
    CompiledTrie,
    FastpathUnsupported,
    ResultPool,
    compile_clue_table,
    compile_trie,
)
from repro.fastpath.kernels import (
    as_destination_array,
    as_length_array,
    full_lookup_batch,
    lookup_batch,
)
from repro.fastpath.layouts import (
    LAYOUTS,
    STRIDES,
    CompiledMultibitTrie,
    compile_layout,
    layout_stride,
)

__all__ = [
    "CODE_CLUE_MISS",
    "CODE_FD_IMMEDIATE",
    "CODE_FULL",
    "CODE_RESUMED",
    "CODE_TO_METHOD",
    "CertificationError",
    "CompiledClueTable",
    "CompiledMultibitTrie",
    "CompiledTrie",
    "FastpathUnsupported",
    "LAYOUTS",
    "ResultPool",
    "STRIDES",
    "as_destination_array",
    "as_length_array",
    "certification_batch",
    "certify_clue",
    "certify_full",
    "compile_clue_table",
    "compile_layout",
    "compile_trie",
    "full_lookup_batch",
    "layout_stride",
    "lookup_batch",
]
