"""Measurement and reporting utilities for experiments."""

from .cache import ResultCache, canonical_kwargs, default_cache_dir, module_closure, source_digest
from .report import Table

__all__ = [
    "Table",
    "ResultCache",
    "canonical_kwargs",
    "default_cache_dir",
    "module_closure",
    "source_digest",
]
