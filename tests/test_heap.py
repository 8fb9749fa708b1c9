"""The heap policy the package sets for its process on import."""

import platform

from promptmoe import heap


def test_import_set_the_policy():
    assert heap._applied is not None
    if platform.libc_ver()[0] == "glibc":
        assert heap._applied is True


def test_policy_is_applied_once(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(heap, "_load_mallopt", lambda: mallopt)
    monkeypatch.setattr(heap, "_applied", None)
    assert heap.keep_freed_memory() is True
    assert heap.keep_freed_memory() is True
    assert calls == [(heap.M_MMAP_THRESHOLD, 32 << 20), (heap.M_TRIM_THRESHOLD, 64 << 20)]


def test_policy_is_a_no_op_without_mallopt(monkeypatch):
    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(heap.ctypes, "CDLL", no_libc)
    assert heap._load_mallopt() is None
    monkeypatch.setattr(heap, "_load_mallopt", lambda: None)
    monkeypatch.setattr(heap, "_applied", None)
    assert heap.keep_freed_memory() is False
    assert heap.keep_freed_memory() is False


def test_a_rejected_threshold_sets_no_other(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append(param)
        return 0

    monkeypatch.setattr(heap, "_load_mallopt", lambda: mallopt)
    monkeypatch.setattr(heap, "_applied", None)
    assert heap.keep_freed_memory() is False
    assert calls == [heap.M_MMAP_THRESHOLD]
