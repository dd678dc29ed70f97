"""Benchmark support: sweep tables and formatting helpers."""

from repro.bench.harness import SweepTable, format_factor, format_seconds

__all__ = ["SweepTable", "format_factor", "format_seconds"]
