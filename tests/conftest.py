"""Shared fixtures: the 5-node reference configuration used across suites."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from roamtoken import (
    AgentModel,
    AlphaSchedule,
    DeterministicSequence,
    GlobalModel,
    IidFailureGraph,
    Lazy,
    OutDegreeReciprocal,
    StaticGraph,
)
from roamtoken.graphs import GraphSpec

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
    return AlphaSchedule()


def random_spd(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m))
    return a @ a.T + 0.2 * np.eye(m)


@st.composite
def models_and_graphs(draw) -> tuple[GlobalModel, GraphSpec]:
    """A drawn model and graph for the engines' property tests.

    The model has 2 to 6 agents and 1 to 3 parameters; every agent takes one measurement,
    or each takes one or two.  The graph is static, i.i.d. failure or a cycling sequence of
    1 to 4 frames on those agents.
    """
    n, scalar = draw(st.integers(2, 6)), draw(st.booleans())
    counts = [1 if scalar else draw(st.integers(1, 2)) for _ in range(n)]
    dim = draw(st.integers(1, min(3, sum(counts))))  # fewer measurements leave theta unseen
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents = [
        AgentModel(i, rng.uniform(-1, 1, (m, dim)), random_spd(rng, m) + np.eye(m))
        for i, m in enumerate(counts)
    ]
    model = GlobalModel(agents, rng.uniform(0.5, 2.0, dim) * rng.choice([-1, 1], dim))

    def frame(p_edge: float) -> np.ndarray:
        a = rng.random((n, n)) < p_edge
        np.fill_diagonal(a, False)
        return a

    kind = draw(st.sampled_from(["static", "iid_failure", "sequence"]))
    p_edge = draw(st.floats(0.2, 1.0))
    if kind == "static":
        graph = StaticGraph(frame(p_edge))
    elif kind == "iid_failure":
        graph = IidFailureGraph(frame(p_edge), p_fail=draw(st.floats(0.0, 0.9)))
    else:
        graph = DeterministicSequence([frame(p_edge) for _ in range(draw(st.integers(1, 4)))], True)
    return model, graph


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
