"""Randomized differential testing: seeded case generation + cross-engine diffing."""

from .differential import DifferentialReport, run_batch, run_differential
from .generate import FAMILIES, DifferentialCase, generate_case, generate_cases
from .scenario import Scenario, ScenarioReport, UpdateStep, generate_scenario, run_scenario

__all__ = [
    "FAMILIES",
    "DifferentialCase",
    "DifferentialReport",
    "Scenario",
    "ScenarioReport",
    "UpdateStep",
    "generate_case",
    "generate_cases",
    "generate_scenario",
    "run_batch",
    "run_differential",
    "run_scenario",
]
