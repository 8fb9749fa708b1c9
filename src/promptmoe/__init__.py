"""Routed low-rank soft-prompt tuning on a small frozen causal LM."""

from . import heap

__version__ = "0.1.0"

heap.keep_freed_memory()
