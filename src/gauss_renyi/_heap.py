"""Keep freed NumPy temporaries in the process heap under glibc.

The per-order stage allocates and frees several hundred KiB of temporaries
per stack of orders (a stack's real form matrices take about 260 KiB up to
n = 64, and one order's 512 KiB at n = 128).
With glibc's default malloc settings, blocks from 128 KiB up are mapped and
unmapped one by one, and the free top of the heap goes back to the kernel
once it exceeds the trim threshold (128 KiB, raised to twice the largest
freed mapped block).  Every stack then faults the same pages in again: a
mixed n = 32 sweep over 64 orders takes about 5,100 page faults (3 with the
thresholds below), and an 8-s perfbench alpha-sweep run spent 0.70 s in
the kernel (0.04 s with them), a cost that varies with the machine's load.
Fixed thresholds keep blocks below MMAP_THRESHOLD in the heap and hand free
memory back only beyond TRIM_THRESHOLD.

The setting is process-wide; it is made once, when the package is imported.
"""

from __future__ import annotations

import ctypes
import os

#: mallopt parameter numbers from glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: blocks below this come from the heap (the largest stage array of an n = 128
#: call is 1 MiB)
MMAP_THRESHOLD = 4 << 20
#: free heap top kept before memory goes back to the kernel
TRIM_THRESHOLD = 16 << 20


def keep_freed_memory() -> bool:
    """Set glibc's malloc mmap and trim thresholds for this process.

    Returns False, and changes nothing, where the C library is not glibc.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
