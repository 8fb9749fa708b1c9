"""Environment manifest: what ran, on what, and whether the box was quiet."""

import ctypes
import hashlib
import os
import platform
import time

import numpy as np

from promptmoe import kernels


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def _openblas():
    """The OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    paths = [p for p in paths if p.startswith("/") and ".so" in p]
    return ctypes.CDLL(paths[0]) if paths else None


def blas_runtime():
    """(threads, config string) reported by the loaded OpenBLAS itself."""
    lib = _openblas()
    if lib is None:
        return None, None
    threads = config = None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            cfg = getattr(lib, f"{prefix}_get_config{suffix}")
            cfg.restype = ctypes.c_char_p
            config = cfg().decode()
            break
    return threads, config


def dgemm_peak_gflops(n=512, repeats=5):
    """Best single-call float64 matmul rate at n x n, the roofline compute ceiling."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def git_commit(root):
    """HEAD of a git checkout, read from disk; None outside one."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as f:
            return f.read().strip()
    except OSError:
        return None


def source_sha256(src):
    """Content hash of the package sources, which identifies the code outside git."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "promptmoe")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def manifest(root, src):
    threads, blas_config = blas_runtime()
    blas_build = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build.get("name"),
        "blas_version": blas_build.get("version"),
        "blas_runtime_config": blas_config,
        "blas_threads": threads,
        "blas_thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "kernel_backend": kernels.active_backend(),
        "dgemm_peak_gflops": dgemm_peak_gflops(),
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(src),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }
