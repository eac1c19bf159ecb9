"""Measurement and reporting utilities for experiments."""

from .report import Table

__all__ = ["Table"]
