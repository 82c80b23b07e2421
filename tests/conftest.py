"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.datalog import Database
from repro.testing.reference import step_machine
from repro.workloads import (
    buys_database,
    canonical_two_sided,
    edge_database,
    layered_dag,
    random_pairs,
    same_generation_database,
    transitive_closure,
)

#: ``--hypothesis-profile=ci``: five times the default example budget (the
#: stateful machines take theirs from the active profile), no deadline
settings.register_profile("ci", max_examples=500, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--step-machine",
        action="store_true",
        help="run every test on the reference step machine instead of generated kernels "
        "(a test that pins an executor itself still gets the one it asks for)",
    )


@pytest.fixture(scope="session", autouse=True)
def _row_executor(request):
    """The executor the session's plans run on: generated kernels, or with
    ``--step-machine`` the reference step machine, for every test and fixture."""
    if not request.config.getoption("--step-machine"):
        yield
        return
    with step_machine():
        yield


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for tests that need one."""
    return random.Random(20240616)


@pytest.fixture
def tc_program():
    """The canonical one-sided recursion (transitive closure)."""
    return transitive_closure()


@pytest.fixture
def two_sided_program():
    """The canonical two-sided recursion of Section 4."""
    return canonical_two_sided()


@pytest.fixture
def small_graph_db() -> Database:
    """A small acyclic edge database for the transitive-closure programs."""
    return edge_database(layered_dag(5, 3, 2, seed=7))


@pytest.fixture
def chain_db() -> Database:
    """A 6-node chain with a separate base edge at the end."""
    return Database.from_dict(
        {
            "a": [(i, i + 1) for i in range(6)],
            "b": [(6, 100)],
        }
    )


@pytest.fixture
def cyclic_db() -> Database:
    """A small cyclic edge database (termination tests)."""
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    return Database.from_dict({"a": edges, "b": edges})


def random_edge_db(rng: random.Random, nodes: int = 12, edges: int = 25, seed: int = 0) -> Database:
    """Helper used by tests that build several random databases."""
    return edge_database(random_pairs(edges, nodes, seed=seed if seed else rng.randrange(10**6)))
