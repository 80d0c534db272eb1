"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ODDWHEEL_PURE=1 to force the pure implementations (used by the test
suite and the benchmark to compare both).  The compiled kernels handle
orders up to 64; larger graphs always take the pure path, which operates
on unbounded Python-int bitmasks.  `canon_code` takes the compiled kernel
only below order 16 (`COMPILED_CANON_BELOW`): from there the pure one,
which builds only the minimal children, is faster on random graphs from
about order 18 and faster by orders of magnitude on symmetric ones such
as Q_4 and C_16; both give the same code.
"""

from __future__ import annotations

import os

from oddwheel import _kernels_py
from oddwheel._kernels_py import code_bits, code_to_rows, frame_code, pack_code

if os.environ.get("ODDWHEEL_PURE") == "1":
    _impl = _kernels_py
    HAVE_COMPILED = False
else:
    try:
        from oddwheel import _kernels as _impl  # type: ignore[no-redef]

        HAVE_COMPILED = True
    except ImportError:
        _impl = _kernels_py
        HAVE_COMPILED = False


COMPILED_CANON_BELOW = 16


def canon_code(n: int, rows) -> bytes:
    if n < COMPILED_CANON_BELOW and _impl is not _kernels_py:
        return _impl.canon_code(n, rows)
    return _kernels_py.canon_code(n, rows)


def has_cycle_of_length(n: int, rows, length: int, budget: int = -1) -> int:
    if n <= 64 and _impl is not _kernels_py:
        return _impl.has_cycle_of_length(n, rows, length, budget)
    return _kernels_py.has_cycle_of_length(n, rows, length, budget)


def longest_path_order(n: int, rows, budget: int = -1) -> int:
    if n <= 64 and _impl is not _kernels_py:
        return _impl.longest_path_order(n, rows, budget)
    return _kernels_py.longest_path_order(n, rows, budget)
