"""Batch action codes shared by the fastpath kernels and their callers.

Every batch kernel classifies each lane with one of the four codes
below; :data:`CODE_TO_METHOD` maps a code back to the scalar path's
method string.  They live in this leaf module so that the certifier and
measurement code can decode a batch without importing the kernels.
"""

from __future__ import annotations

from repro.lookup.counters import (
    METHOD_CLUE_MISS,
    METHOD_FD_IMMEDIATE,
    METHOD_FULL,
    METHOD_RESUMED,
)

#: Batch action codes, index-aligned with :data:`CODE_TO_METHOD`.
CODE_FULL = 0
CODE_CLUE_MISS = 1
CODE_FD_IMMEDIATE = 2
CODE_RESUMED = 3

#: Maps a kernel action code to the scalar path's method string.
CODE_TO_METHOD = (
    METHOD_FULL,
    METHOD_CLUE_MISS,
    METHOD_FD_IMMEDIATE,
    METHOD_RESUMED,
)
