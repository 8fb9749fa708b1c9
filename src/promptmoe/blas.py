"""OpenBLAS's thread count, read and set through the library numpy loaded.

Pretraining runs each batch, and tuning each micro-batch, as two row parts
on two threads (``trainer.part_step``), so their matmuls must each run on one
BLAS thread: an OpenBLAS that also spreads every call over the cores runs
twice as many busy threads as there are cores. A 200-step ``promptmoe
pretrain-base`` on a 2-core Xeon took 21-28 s that way and 13-15 s with
OpenBLAS on one thread. ``one_thread`` sets OpenBLAS to one thread for a
block and restores its count after; ``trainer.part_pool`` holds it for
the whole of ``trainer.train`` and ``pretrain.pretrain_base``. The library
is found among the process's mapped files, where perfbench's environment
manifest looks for it too; where there is no OpenBLAS to find (not Linux,
or numpy on another BLAS), nothing changes, and each part's matmuls run at
whatever thread count the environment sets.
"""

import contextlib
import ctypes
import functools

import numpy  # noqa: F401  maps numpy's BLAS into the process before it is looked up

# (prefix, suffix) of the thread-count functions: numpy's bundled
# scipy-openblas, then 64-bit-integer and plain OpenBLAS builds
_NAMES = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", ""))


@functools.lru_cache(maxsize=None)
def thread_functions():
    """OpenBLAS's (get, set) thread-count functions, or None where there is no OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        if not path.startswith("/") or ".so" not in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = (ctypes.c_int,)
                put.restype = None
                return get, put
    return None


@contextlib.contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread, then restore its thread count."""
    functions = thread_functions()
    if functions is None:
        yield
        return
    get, put = functions
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
