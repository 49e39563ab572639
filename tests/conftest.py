"""Shared fixtures: the 5-node reference configuration used across suites."""

from __future__ import annotations

import numpy as np
import pytest

from roamtoken import (
    AgentModel,
    AlphaSchedule,
    GlobalModel,
    IidFailureGraph,
    Lazy,
    OutDegreeReciprocal,
    StaticGraph,
)

REF5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 4), (3, 1), (1, 3)]
REF5_H = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [0.5, 2.0]]
REF5_THETA = [1.0, -0.7]


def ref5_adjacency() -> np.ndarray:
    a = np.zeros((5, 5), dtype=bool)
    for i, j in REF5_EDGES:
        a[i, j] = True
    return a


def make_ref5_model(noise: str = "gaussian") -> GlobalModel:
    agents = [AgentModel(i, [REF5_H[i]], [[1.0]]) for i in range(5)]
    return GlobalModel(agents, REF5_THETA, noise=noise)


def slow_ring() -> tuple[GlobalModel, StaticGraph, Lazy]:
    """An 8-agent directed ring under Lazy(0.97): first visits trickle in over several chunks."""
    rng = np.random.default_rng(8)
    agents = [AgentModel(i, rng.standard_normal((1, 3)), [[0.5 + rng.random()]]) for i in range(8)]
    ring = np.zeros((8, 8), dtype=bool)
    ring[np.arange(8), (np.arange(8) + 1) % 8] = True
    return GlobalModel(agents, [0.4, -1.2, 0.9]), StaticGraph(ring), Lazy(0.97)


@pytest.fixture
def ref5_model() -> GlobalModel:
    return make_ref5_model()


@pytest.fixture
def ref5_static() -> StaticGraph:
    return StaticGraph(ref5_adjacency())


@pytest.fixture
def ref5_iid() -> IidFailureGraph:
    return IidFailureGraph(~np.eye(5, dtype=bool), p_fail=0.5)


@pytest.fixture
def reciprocal() -> OutDegreeReciprocal:
    return OutDegreeReciprocal()


@pytest.fixture
def linear_alpha() -> AlphaSchedule:
    return AlphaSchedule.linear()


def random_spd(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m))
    return a @ a.T + 0.2 * np.eye(m)


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
