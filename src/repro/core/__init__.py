"""The paper's contribution: distributed IP lookup with clues."""

from repro.core.advance import AdvanceMethod
from repro.core.cache import CachedClueTable
from repro.core.clue import (
    INDEX_FIELD_BITS,
    MAX_CLUE_INDEX,
    ClueEncodingError,
    ClueHeader,
    decode_clue,
    encode_clue,
)
from repro.core.entry import ClueEntry
from repro.core.learning import IndexedClueLookup, SenderIndexAssigner
from repro.core.lookup import ClueAssistedLookup
from repro.core.maintenance import MaintainedClueTable
from repro.core.multi_neighbor import (
    BitmapClueTable,
    SubTablesClueTable,
    UnionClueTable,
)
from repro.core.receiver import TECHNIQUES, ReceiverState
from repro.core.simple import SimpleMethod
from repro.core.space import (
    entry_bytes,
    measured_table_bytes,
    sdram_lines,
    space_report,
    table_bytes,
)
from repro.core.table import ClueTable, IndexedClueTable

__all__ = [
    "AdvanceMethod",
    "BitmapClueTable",
    "CachedClueTable",
    "ClueAssistedLookup",
    "ClueEncodingError",
    "ClueEntry",
    "ClueHeader",
    "ClueTable",
    "INDEX_FIELD_BITS",
    "IndexedClueLookup",
    "IndexedClueTable",
    "MAX_CLUE_INDEX",
    "MaintainedClueTable",
    "ReceiverState",
    "SenderIndexAssigner",
    "SimpleMethod",
    "SubTablesClueTable",
    "TECHNIQUES",
    "UnionClueTable",
    "decode_clue",
    "encode_clue",
    "entry_bytes",
    "measured_table_bytes",
    "sdram_lines",
    "space_report",
    "table_bytes",
]
