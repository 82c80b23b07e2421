"""Reporting helpers for the benchmark harness."""

from .report import format_cell, format_comparison, format_table, stats_row

__all__ = ["format_cell", "format_comparison", "format_table", "stats_row"]
