"""Optional numpy backend gate for the fastpath kernels.

numpy is a declared dependency (``install_requires``), and the serving
plane uses it directly.  The fastpath still keeps a pure-Python twin of
every entry point (`repro.fastpath.fallback`) with identical semantics,
for two callers: IPv6 tables (width 128), which do not fit a 64-bit
lane and always compile to plain Python lists where arbitrary precision
integers do the shifting, and ``bench-fastpath --force-python``.  The
compiler emits numpy arrays when the module is importable *and* the
address width fits a 64-bit lane (width 32).

The four action codes returned by every batch kernel are defined here —
the leaf module of the package — so the numpy kernels and the fallback
can share them without importing each other.
"""

from __future__ import annotations

from repro.lookup.counters import (
    METHOD_CLUE_MISS,
    METHOD_FD_IMMEDIATE,
    METHOD_FULL,
    METHOD_RESUMED,
)

try:  # pragma: no cover - exercised implicitly by every kernel call
    import numpy as _numpy
except ImportError:  # pragma: no cover - image bakes numpy in
    _numpy = None  # type: ignore[assignment]

#: True when the numpy backend is importable in this interpreter.
HAVE_NUMPY = _numpy is not None

#: Widest address width the int64 numpy lanes can carry.
NUMPY_MAX_WIDTH = 32

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


def get_numpy():
    """The numpy module, or None when the interpreter lacks it."""
    return _numpy


def numpy_eligible(width: int) -> bool:
    """True when compiled arrays for ``width`` may use the numpy backend."""
    return _numpy is not None and width <= NUMPY_MAX_WIDTH
