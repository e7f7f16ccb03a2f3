"""Weighted undirected graphs: representation, degrees, classification, mutation.

A :class:`Graph` stores its adjacency in compressed sparse rows (CSR), so
memory grows with the links, not with n squared; the per-graph arrays its
kernels share (link counts, degrees) are derived once, and
``Graph.weights`` is a cached dense view (at most ``DENSE_CAP`` nodes) for
the dense kernels. All operations are pure: mutating operations
return new :class:`Graph` values. Degrees have one representation, the
histogram :class:`DegreeSequence` built by :func:`degree_sequence` from any
degree array; ``Graph.histogram`` builds a graph's once. :func:`classify`
reads the histogram first, scans the links only where it still allows a
biregular graph or a max-clique component, and searches components only
when a node could lie in a max-clique component.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add

import numpy as np

from .errors import DegreeOverflow, InvalidGraph, LinkExists, SelfLoop, TooLargeForDense

# relative tolerance under which two weighted degrees count as equal
TOL_DEG = 1e-9
# largest n whose dense n x n view (Graph.weights) may be built
DENSE_CAP = 2048


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with positive link weights, in CSR form.

    Row i holds the neighbours of node i, ``indices[indptr[i]:indptr[i+1]]``,
    in increasing order, with their link weights in ``data``. Invariants
    (checked by :meth:`validate`): the stored matrix is symmetric, has
    sorted columns without repeats, no diagonal, and only positive finite
    weights.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def empty(cls, n: int) -> Graph:
        if n < 1:
            raise InvalidGraph("node count must be >= 1")
        return cls._from_links(n, [], [])

    @classmethod
    def from_dense(cls, weights) -> Graph:
        """Graph of the nonzero entries of a square weight matrix (not
        validated, like every constructor but :meth:`from_edges`)."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise InvalidGraph("weights must be a square matrix with n >= 1")
        n = w.shape[0]
        keys = np.flatnonzero(w)  # row * n + column, sorted
        return cls(n, _row_offsets(keys, n), keys % n, w.ravel()[keys])

    @classmethod
    def _from_links(cls, n: int, i, j, w=None) -> Graph:
        """Graph of the distinct links (i[k], j[k]) with weights w[k]
        (1 when ``w`` is None), given in any order and orientation."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        keys = np.concatenate((i * n + j, j * n + i))
        if w is None:
            keys, data = np.sort(keys), np.ones(keys.size)
        else:
            order = np.argsort(keys)
            keys, data = keys[order], np.concatenate((w, w))[order]
        return cls(n, _row_offsets(keys, n), keys % n, data)

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Build a graph from (i, j) or (i, j, weight) tuples; a repeated
        link keeps its last weight and a zero weight adds no link. Raises
        DegreeOverflow where finite weights sum to an infinite degree."""
        if n < 1:
            raise InvalidGraph("a graph needs n >= 1 nodes")
        links: dict[tuple[int, int], float] = {}
        for e in edges:
            if len(e) == 2:
                i, j = e
                wt = 1.0
            else:
                i, j, wt = e
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            links[(i, j) if i < j else (j, i)] = wt
        links = {k: wt for k, wt in links.items() if wt != 0}
        ends = np.array(list(links), dtype=np.int64).reshape(-1, 2)
        if ends.size and (ends.min() < 0 or ends.max() >= n):
            raise InvalidGraph(f"node ids must lie in [0, {n})")
        g = cls._from_links(n, ends[:, 0], ends[:, 1],
                            np.array(list(links.values()), dtype=float))
        g.validate()
        _check_degrees(g)
        return g

    def validate(self) -> None:
        n, indptr, indices, data = self.n, self.indptr, self.indices, self.data
        if n < 1:
            raise InvalidGraph("a graph needs n >= 1 nodes")
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size
                or data.shape != indices.shape or np.any(np.diff(indptr) < 0)):
            raise InvalidGraph("CSR arrays do not describe n rows")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise InvalidGraph(f"node ids must lie in [0, {n})")
        if not np.all(np.isfinite(data) & (data > 0)):
            raise InvalidGraph("stored weights must be positive and finite")
        rows = self._rows
        if np.any(rows == indices):
            raise InvalidGraph("diagonal must be zero (no self-loops)")
        keys = rows * n + indices
        if np.any(np.diff(keys) <= 0):
            raise InvalidGraph("columns must be sorted within each row, without repeats")
        # the transpose, sorted by its own rows, must reproduce the matrix
        order = np.argsort(indices * n + rows)
        if not (np.array_equal(indices[order] * n + rows[order], keys)
                and np.array_equal(data[order], data)):
            raise InvalidGraph("weights must be symmetric")

    @cached_property
    def _link_counts(self) -> np.ndarray:
        """Number of links at each node (read-only, computed once per graph)."""
        counts = np.diff(self.indptr)
        counts.flags.writeable = False
        return counts

    @cached_property
    def _rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.n), self._link_counts)

    @cached_property
    def _degrees(self) -> np.ndarray:
        degrees = np.bincount(self._rows, weights=self.data, minlength=self.n)
        degrees.flags.writeable = False
        return degrees

    def degrees(self) -> np.ndarray:
        """Weighted degree of each node (row sums), computed once per graph."""
        return self._degrees

    @cached_property
    def histogram(self) -> DegreeSequence:
        """The :class:`DegreeSequence` of :meth:`degrees`, built once per graph
        and shared by :func:`classify`, ``sde`` and ``sde compute``."""
        return degree_sequence(self._degrees)

    @cached_property
    def weights(self) -> np.ndarray:
        """Dense weight matrix (read-only, cached); TooLargeForDense above
        ``DENSE_CAP`` nodes."""
        if self.n > DENSE_CAP:
            raise TooLargeForDense(f"n={self.n} exceeds the dense cap {DENSE_CAP}")
        w = np.zeros((self.n, self.n))
        w[self._rows, self.indices] = self.data
        w.flags.writeable = False
        return w

    def num_links(self) -> int:
        return self.indices.size // 2  # every link is stored in both rows

    def links(self) -> list[tuple[int, int]]:
        """Positive-weight links as (i, j) with i < j, lexicographic."""
        upper = self.indices > self._rows
        return list(zip(self._rows[upper].tolist(), self.indices[upper].tolist()))

    def is_unweighted(self) -> bool:
        """Whether every link weight is 1 (computed once per graph)."""
        return self._unweighted

    @cached_property
    def _unweighted(self) -> bool:
        return bool((self.data == 1).all())

    def scaled(self, s: float) -> Graph:
        """Graph with every weight multiplied by s > 0."""
        if s <= 0:
            raise InvalidGraph("scale factor must be positive")
        return Graph(self.n, self.indptr, self.indices, self.data * s)


def _check_degrees(g: Graph) -> None:
    """Raise DegreeOverflow, naming the first such node, when a weighted
    degree overflows to inf (finite weights can sum past the float64 range)."""
    over = np.flatnonzero(np.isinf(g.degrees()))
    if over.size:
        raise _overflow(int(over[0]))


def _overflow(node: int) -> DegreeOverflow:
    return DegreeOverflow(f"the weighted degree of node {node} overflows float64 "
                          "(its link weights sum past 1.8e308)")


def _row_offsets(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR ``indptr`` of the sorted entry keys row * n + column."""
    return np.searchsorted(keys, np.arange(0, n * n + 1, n))


@dataclass(frozen=True)
class DegreeSequence:
    """Degree histogram: the distinct weighted degrees ``values`` in
    descending order and the number of nodes at each, ``counts``.

    ``c`` counts the nodes attaining the maximum degree (within ``TOL_DEG``
    for non-integral degrees); ``d2`` is the largest degree below those c nodes
    (NaN for regular graphs).
    """

    values: np.ndarray
    counts: np.ndarray
    c: int

    @cached_property
    def n(self) -> int:
        return sum(self._lists[1])

    @cached_property
    def _lists(self) -> tuple[list[float], list[int]]:
        """``values`` and ``counts`` as Python lists, built once."""
        return self.values.tolist(), self.counts.tolist()

    @property
    def d_max(self) -> float:
        return float(self.values[0])

    @property
    def d_min(self) -> float:
        return float(self.values[-1])

    @property
    def d2(self) -> float:
        if self.c >= self.n:
            return float("nan")
        return float(self.values[np.cumsum(self.counts) > self.c][0])


def degree_sequence(degrees) -> DegreeSequence:
    """Degree histogram of a degree array, e.g. ``degree_sequence(g.degrees())``.

    When every degree is integral the max-degree multiplicity uses exact
    comparison; otherwise degrees within relative ``TOL_DEG`` of d_max count
    toward the multiplicity.
    """
    d = np.sort(np.asarray(degrees, dtype=float), axis=None)[::-1]
    # the first index of each run of equal degrees, and the end
    starts = np.empty(d.size + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.not_equal(d[1:], d[:-1], out=starts[1:-1])
    runs = starts.nonzero()[0]
    values, counts = d[runs[:-1]], runs[1:] - runs[:-1]
    if (values == np.rint(values)).all():
        c = int(counts[0])
    else:
        c = int(counts[values >= values[0] * (1 - TOL_DEG)].sum())
    return DegreeSequence(values=values, counts=counts, c=c)


# classification


@dataclass(frozen=True)
class Regular:
    degree: float


@dataclass(frozen=True)
class Biregular:
    r1: float  # larger part degree
    r2: float


@dataclass(frozen=True)
class MaxCliqueComponent:
    clique: tuple[int, ...] = field(default=())


@dataclass(frozen=True)
class Generic:
    pass


GraphClass = Regular | Biregular | MaxCliqueComponent | Generic


def connected_components(g: Graph) -> np.ndarray:
    """Component label of every node: the smallest node of its maximal
    positive-weight-connected set, so ``g`` is connected exactly when every
    label is 0."""
    return _component_labels(g.n, g._rows, g.indices)


def _component_labels(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Component labels of nodes 0..n-1 joined by the links (rows[k],
    cols[k]), each given in both orientations.

    Vectorised on the links. Each node's label points to a node of its
    component with no larger id. A round lowers, across every link, the
    label of one end's label to the other end's label, then lets every
    label jump once along these pointers; labels only decrease, and a round
    that changes none leaves every component labelled by its smallest node.
    """
    labels = np.arange(n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, labels[rows], labels[cols])
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _max_clique_component(g: Graph, candidate: np.ndarray) -> tuple[int, ...] | None:
    """Nodes of the complete component of ``g`` with the smallest node among
    those made only of candidates, if any.

    Searches the components of the links joining two candidates, on the
    candidates alone. Such a component C is a complete component of ``g``
    exactly when each of its nodes has |C| - 1 links, all inside C (no
    repeated links or self-loops): a component of the candidate links can
    meet the size test while a link leaves it for a non-candidate.
    """
    nodes = np.flatnonzero(candidate)
    rows, cols = g._rows, g.indices
    inside = candidate[rows] & candidate[cols]
    # candidate ids, renumbered 0..k-1 in node order
    sub_rows = np.searchsorted(nodes, rows[inside])
    labels = _component_labels(nodes.size, sub_rows, np.searchsorted(nodes, cols[inside]))
    size = np.bincount(labels, minlength=nodes.size)
    inner = np.bincount(sub_rows, minlength=nodes.size)
    fits = (inner == size[labels] - 1) & (inner == g._link_counts[nodes])
    complete = (size >= 2) & (np.bincount(labels, weights=fits, minlength=nodes.size) == size)
    if not complete.any():
        return None
    return tuple(nodes[labels == np.argmax(complete)].tolist())


def classify(g: Graph) -> GraphClass:
    """Structural class of ``g`` in priority order Regular > Biregular >
    MaxCliqueComponent > Generic.

    Regularity makes the SDE undefined regardless of any other structure, so
    it is tested first; degrees within tol = ``TOL_DEG`` * d_max count as
    equal, the relative rule of :func:`degree_sequence`, so the class does
    not change when every weight is scaled. Biregularity is decided from the degrees: a
    non-regular graph with no isolated node is biregular exactly when every
    degree lies within tol of d_max (the high class) or within tol of d_min
    (the low class) and every positive link joins the two classes. Then the
    classes two-colour every component with one degree per part, so every
    component is bipartite with part degrees (d_max, d_min); conversely, a
    biregular graph's links all join an r1 node to an r2 node. Components
    are searched only for the max-clique-component test, only among the
    nodes that pass its necessary condition (the node is high and so is
    every neighbour, with the same link count), and only on the links
    between two of them.

    The degree tests read the graph's histogram (:attr:`Graph.histogram`),
    whose distinct degrees decide regularity and whether two degree classes
    are possible; the links are scanned only where a biregular graph or a
    max-clique component is still possible. A complete component at d_max
    has at least two high nodes, and on an unweighted graph d_max + 1 of
    them, so most graphs need no scan at all.
    """
    values, counts = g.histogram._lists
    d_max, d_min = values[0], values[-1]
    tol = TOL_DEG * d_max
    if d_max - d_min <= tol:
        return Regular(degree=d_max)
    is_high = [d_max - v <= tol for v in values]
    two_classes = d_min > 0 and all(h or v - d_min <= tol for h, v in zip(is_high, values))
    top = sum(k for h, k in zip(is_high, counts) if h)  # the high nodes
    clique_possible = top >= 2 and (top > d_max or not g.is_unweighted())
    if not (two_classes or clique_possible):
        return Generic()
    high = d_max - g.degrees() <= tol
    rows, cols = g._rows, g.indices
    if two_classes and (high[rows] != high[cols]).all():
        return Biregular(r1=d_max, r2=d_min)
    if clique_possible:
        links = g._link_counts
        candidate = high.copy()  # a node at d_max > 0 has links
        candidate[rows[~high[cols] | (links[cols] != links[rows])]] = False
        if candidate.any():
            clique = _max_clique_component(g, candidate)
            if clique is not None:
                return MaxCliqueComponent(clique=clique)
    return Generic()


# link mutations


def add_link(g: Graph, i: int, j: int, w: float = 1.0) -> Graph:
    """New graph with link (i, j) of weight ``w`` added. Raises
    DegreeOverflow, naming the node as :meth:`Graph.from_edges` does, where
    the new link makes the weighted degree of i or j overflow; only those
    two rows are summed."""
    if i == j:
        raise SelfLoop(f"cannot link node {i} to itself")
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise InvalidGraph(f"node ids must lie in [0, {g.n})")
    if not 0 < w < np.inf:
        raise InvalidGraph("link weight must be positive and finite")
    indptr, indices, data = g.indptr, g.indices, g.data
    # insertion points of j in row i and of i in row j
    lo, hi = indptr[i], indptr[i + 1]
    at_i = lo + int(np.searchsorted(indices[lo:hi], j))
    if at_i < hi and indices[at_i] == j:
        raise LinkExists(f"link ({i}, {j}) already present")
    at_j = indptr[j] + int(np.searchsorted(indices[indptr[j]:indptr[j + 1]], i))
    (a, col_a), (b, col_b) = ((at_i, j), (at_j, i)) if i < j else ((at_j, i), (at_i, j))
    new_indptr = indptr.copy()
    new_indptr[i + 1:] += 1
    new_indptr[j + 1:] += 1
    new_data = np.concatenate((data[:a], (w,), data[a:b], (w,), data[b:]))
    for node in sorted((i, j)):
        row = new_data[new_indptr[node]:new_indptr[node + 1]].tolist()
        if math.isinf(reduce(add, row, 0.0)):  # summed in row order, like Graph.degrees
            raise _overflow(node)
    return Graph(g.n, new_indptr,
                 np.concatenate((indices[:a], (col_a,), indices[a:b], (col_b,), indices[b:])),
                 new_data)
