"""Shared test fixtures: file paths and small named graphs, and the
hypothesis settings (a falsifying example prints the blob that reproduces
it with ``@reproduce_failure``)."""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sdegraph import Graph

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_N7 = DATA_DIR / "graph7c.g6"
FIXTURE_N8 = DATA_DIR / "graph8c.g6"

settings.register_profile("sdegraph", print_blob=True)
settings.load_profile("sdegraph")


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def k4_plus_p3() -> Graph:
    return Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                (4, 5), (5, 6)])


def random_er(rng: np.random.Generator, n: int, p: float) -> Graph:
    u = rng.random((n, n))
    w = np.triu(u < p, 1).astype(float)
    return Graph.from_dense(w + w.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
