"""Randomized differential testing: seeded case generation + cross-engine diffing."""

from .chaos import (
    ChaosCase,
    ChaosReport,
    generate_chaos_case,
    generate_chaos_cases,
    run_chaos_case,
)
from .concurrent import (
    ConcurrentCase,
    ConcurrentReport,
    generate_concurrent_case,
    run_concurrent_batch,
    run_concurrent_case,
)
from .differential import DifferentialReport, run_batch, run_differential
from .generate import FAMILIES, DifferentialCase, generate_case, generate_cases
from .recovery import (
    CrashCase,
    CrashReport,
    generate_crash_case,
    generate_crash_cases,
    run_crash_case,
)
from .updates import (
    UpdateSequenceCase,
    UpdateSequenceReport,
    UpdateStep,
    generate_update_sequence,
    generate_update_sequences,
    run_update_batch,
    run_update_sequence,
)

__all__ = [
    "FAMILIES",
    "ChaosCase",
    "ChaosReport",
    "ConcurrentCase",
    "ConcurrentReport",
    "CrashCase",
    "CrashReport",
    "DifferentialCase",
    "DifferentialReport",
    "UpdateSequenceCase",
    "UpdateSequenceReport",
    "UpdateStep",
    "generate_case",
    "generate_cases",
    "generate_chaos_case",
    "generate_chaos_cases",
    "generate_concurrent_case",
    "generate_crash_case",
    "generate_crash_cases",
    "generate_update_sequence",
    "generate_update_sequences",
    "run_batch",
    "run_chaos_case",
    "run_concurrent_batch",
    "run_concurrent_case",
    "run_crash_case",
    "run_differential",
    "run_update_batch",
    "run_update_sequence",
]
