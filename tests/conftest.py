"""Shared test fixtures: file paths, small named graphs, the check of the
``Graph`` invariants, and the hypothesis settings (a falsifying example
prints the blob that reproduces it with ``@reproduce_failure``)."""
import numbers
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


def assert_graph_invariants(g) -> None:
    """``g`` is a Graph holding what its constructors promise: integer
    ``indptr`` and ``indices`` and real ``data`` arrays of matching shapes,
    ``indptr`` non-decreasing from 0 to the entry count, ids in [0, n),
    sorted columns without repeats or diagonal in each row, a symmetric
    matrix with equal weights both ways, positive finite weights and finite
    degrees; and ``is_unweighted()`` answers as a scan of ``data`` would."""
    assert isinstance(g, Graph)
    n, indptr, indices, data = g.n, g.indptr, g.indices, g.data
    assert isinstance(n, numbers.Integral) and n >= 1
    assert all(isinstance(a, np.ndarray) for a in (indptr, indices, data))
    assert indptr.dtype.kind in "iu" and indices.dtype.kind in "iu" and data.dtype.kind == "f"
    assert indptr.shape == (n + 1,) and indptr[0] == 0 and indptr[-1] == indices.size
    assert data.shape == indices.shape and (np.diff(indptr) >= 0).all()
    assert indices.size == 0 or (indices.min() >= 0 and indices.max() < n)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    assert not (rows == indices).any(), "diagonal entry"
    keys = rows * n + indices
    assert (np.diff(keys) > 0).all(), "columns unsorted or repeated within a row"
    # the transpose, sorted by its own rows, reproduces the matrix
    order = np.argsort(indices * n + rows)
    assert np.array_equal(indices[order] * n + rows[order], keys), "asymmetric links"
    assert np.array_equal(data[order], data), "asymmetric weights"
    assert ((0 < data) & (data < np.inf)).all()
    assert np.isfinite(g.degrees()).all()
    assert g.is_unweighted() == bool((data == 1).all())


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
