"""The process's heap policy: freed arrays stay in the heap for reuse.

glibc returns a freed block above its mmap threshold to the kernel at once
and trims the top of the heap once more than the trim threshold is free.
Every generate chunk and training step allocates and frees the same few
megabytes of numpy temporaries, which glibc's defaults hand back to the
kernel and then page-fault in again. With the thresholds fixed above those
sizes, the blocks are reused from the heap. Setting either threshold turns
off glibc's dynamic adjustment of both, and setting only one measured more
page faults than the defaults, so both are set. Where ``mallopt`` is missing
(not glibc), nothing changes.
"""

import ctypes

# mallopt parameter numbers from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

_applied = None


def _load_mallopt():
    """glibc's ``mallopt`` from the running process, or None where there is none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_freed_memory():
    """Set both thresholds, once per process; True if ``mallopt`` accepted them."""
    global _applied
    if _applied is None:
        mallopt = _load_mallopt()
        _applied = (
            mallopt is not None
            and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
        )
    return _applied
