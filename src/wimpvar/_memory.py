"""glibc allocator thresholds for the processes wimpvar owns.

By default glibc moves its mmap threshold up to the size of the largest
block it has freed and keeps its trim threshold at twice that
(``mallopt(3)``).  With that history-dependent ceiling the megabyte-sized
path buffers and query arrays of one operation are handed back to the
kernel and faulted in again on the next one: tens of thousands of minor
page faults per Monte Carlo chunk.  :func:`pin_allocator` fixes both
thresholds at glibc's own dynamic ceiling from the start.

It is called only where wimpvar owns the process: by ``cli.main`` and as
the initializer of ``run_experiment``'s worker pool, never on import.  It
changes no arithmetic, so no result depends on it.
"""
import os

# mallopt(3) option numbers, from glibc's <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc's largest dynamic mmap threshold on 64-bit systems, and its rule
# that the trim threshold follows at twice the mmap threshold.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
# The user's own glibc malloc settings, which take precedence.
USER_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def _mallopt():
    """libc's ``mallopt``, or None where libc has none."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds for this process.

    Sets the mmap threshold before the trim threshold; setting the trim
    threshold alone would freeze the mmap threshold at its 128 KiB start.
    Does nothing when libc has no ``mallopt`` or when the environment
    already holds a glibc malloc setting.
    """
    if any(name in os.environ for name in USER_SETTINGS):
        return
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    mallopt = _mallopt()
    if mallopt is None:
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
