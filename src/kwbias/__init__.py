"""Keyword-guided contextual biasing for a compact encoder-decoder ASR.

A keyword spotter reading the shared encoder representation picks out
which of a candidate keyword list was actually spoken; the hits are
packed into a decoder prompt between start-of-previous-text and
start-of-transcript markers.  Two adaptation regimes teach the decoder
to exploit that prompt: full decoder fine-tuning, and prompt tuning of a
small learned soft-token prefix with every model weight frozen.
"""

import ctypes
import os

__version__ = "0.1.0"

# glibc's malloc adapts its thresholds as a process runs.  A block above
# M_MMAP_THRESHOLD (128 KiB at start) is mapped on its own and unmapped when
# freed; each such free raises the threshold to that block's size, up to
# 32 MiB; and free memory at the top of the heap beyond M_TRIM_THRESHOLD
# (twice the mmap threshold) goes back to the system.  Whether a training
# step's or a decode chunk's numpy temporaries are reused or unmapped and
# faulted in again therefore depends on every allocation made before them:
# one default train pass took 9,000 to 100,000 minor faults, and so 0.01 to
# 0.17 s of system time, between runs with the same inputs.  Fixing both
# thresholds where the adaptation tops out keeps freed temporaries in the
# heap for the next step, whatever ran first.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _fix_malloc_thresholds() -> None:
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, OSError, ValueError):  # not glibc, or no confstr
        glibc = False
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_fix_malloc_thresholds()
