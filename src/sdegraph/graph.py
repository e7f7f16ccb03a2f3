"""Weighted undirected graphs: representation, degrees, classification, mutation.

A :class:`Graph` stores its adjacency in compressed sparse rows (CSR), so
memory grows with the links, not with n squared; its degrees are summed
once, and ``Graph.weights`` is a cached dense view (at most ``DENSE_CAP``
nodes) for the dense kernels. All operations are pure: mutating operations
return new :class:`Graph` values. Degrees have one representation, the
histogram :class:`DegreeSequence` built by :func:`degree_sequence` from any
degree array, and :func:`classify` decides its classes from the degrees
and the links, searching components only when a node could lie in a
max-clique component.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InvalidGraph, LinkExists, RewireConflict, SelfLoop,
                     TooLargeForDense)

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
        link keeps its last weight and a zero weight adds no link."""
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
    def _rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @cached_property
    def _degrees(self) -> np.ndarray:
        degrees = np.bincount(self._rows, weights=self.data, minlength=self.n)
        degrees.flags.writeable = False
        return degrees

    def degrees(self) -> np.ndarray:
        """Weighted degree of each node (row sums), computed once per graph."""
        return self._degrees

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

    @cached_property
    def _triangles(self) -> np.ndarray:
        """Triangles at each node (computed once per graph): the row sums of
        ``(A @ A) * A`` over 2 for the link indicator A, one BLAS product,
        exact integers in float64."""
        adj = (self.weights > 0).astype(float)
        return ((adj @ adj) * adj).sum(axis=1) / 2.0

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
        return bool(np.all(self.data == 1))

    def scaled(self, s: float) -> Graph:
        """Graph with every weight multiplied by s > 0."""
        if s <= 0:
            raise InvalidGraph("scale factor must be positive")
        return Graph(self.n, self.indptr, self.indices, self.data * s)


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
        return int(self.counts.sum())

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
    values, counts = np.unique(np.asarray(degrees, dtype=float), return_counts=True)
    values, counts = values[::-1], counts[::-1]
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
    label is 0.

    Vectorised on the CSR links. Each node's label points to a node of its
    component with no larger id. A round lowers, across every link, the
    label of one end's label to the other end's label, then lets every
    label jump once along these pointers; labels only decrease, and a round
    that changes none leaves every component labelled by its smallest node.
    """
    labels = np.arange(g.n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, labels[g._rows], labels[g.indices])
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _max_clique_component(g: Graph, labels: np.ndarray,
                          high: np.ndarray) -> tuple[int, ...] | None:
    """Nodes of the complete component with the smallest label whose
    degrees all equal d_max, if any."""
    size = np.bincount(labels)
    # no repeated links or self-loops: m - 1 links each make K_m
    fits = high & (np.diff(g.indptr) == size[labels] - 1)
    complete = (size >= 2) & (np.bincount(labels, weights=fits) == size)
    if not complete.any():
        return None
    return tuple(np.flatnonzero(labels == np.argmax(complete)).tolist())


def classify(g: Graph) -> GraphClass:
    """Structural class of ``g`` in priority order Regular > Biregular >
    MaxCliqueComponent > Generic.

    Regularity makes the SDE undefined regardless of any other structure, so
    it is tested first; degrees within tol = ``TOL_DEG`` * max(d_max, 1)
    count as equal. Biregularity is decided from the degrees: a
    non-regular graph with no isolated node is biregular exactly when every
    degree lies within tol of d_max (the high class) or within tol of d_min
    (the low class) and every positive link joins the two classes. Then the
    classes two-colour every component with one degree per part, so every
    component is bipartite with part degrees (d_max, d_min); conversely, a
    biregular graph's links all join an r1 node to an r2 node. The
    components are computed only for the max-clique-component test, and
    only when some node passes its necessary condition: the node is high
    and so is every neighbour, with the same link count.
    """
    degs = g.degrees()
    d_max, d_min = float(degs.max()), float(degs.min())
    tol = TOL_DEG * max(d_max, 1.0)
    if d_max - d_min <= tol:
        return Regular(degree=d_max)
    high = d_max - degs <= tol
    rows, cols = g._rows, g.indices
    if (d_min > 0 and (high | (degs - d_min <= tol)).all()
            and (high[rows] != high[cols]).all()):
        return Biregular(r1=d_max, r2=d_min)
    links = np.diff(g.indptr)
    candidate = high & (links > 0)
    candidate[rows[~high[cols] | (links[cols] != links[rows])]] = False
    if candidate.any():
        clique = _max_clique_component(g, connected_components(g), high)
        if clique is not None:
            return MaxCliqueComponent(clique=clique)
    return Generic()


# link mutations


def add_link(g: Graph, i: int, j: int, w: float = 1.0) -> Graph:
    """New graph with link (i, j) of weight ``w`` added."""
    if i == j:
        raise SelfLoop(f"cannot link node {i} to itself")
    if w <= 0:
        raise InvalidGraph("link weight must be positive")
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
    return Graph(g.n, new_indptr,
                 np.concatenate((indices[:a], (col_a,), indices[a:b], (col_b,), indices[b:])),
                 np.concatenate((data[:a], (w,), data[a:b], (w,), data[b:])))


def _has_link(g: Graph, i: int, j: int) -> bool:
    return j in g.indices[g.indptr[i]:g.indptr[i + 1]]


def dpr_rewire(g: Graph, link1: tuple[int, int], link2: tuple[int, int],
               rng: np.random.Generator | None = None,
               orientation: int | None = None) -> Graph:
    """Degree-preserving rewiring of two disjoint unweighted links.

    Links (a,b), (c,d) are replaced by (a,c),(b,d) (orientation 0) or
    (a,d),(b,c) (orientation 1). When ``orientation`` is None a feasible one
    is chosen, uniformly at random if both are feasible and ``rng`` is given.

    Raises RewireConflict when both alternatives would duplicate an existing
    link; every node keeps its degree exactly.
    """
    if not g.is_unweighted():
        raise InvalidGraph("degree-preserving rewiring is defined for unweighted graphs")
    a, b = link1
    c, d = link2
    if len({a, b, c, d}) != 4:
        raise InvalidGraph("rewiring requires four distinct nodes")
    if not (_has_link(g, a, b) and _has_link(g, c, d)):
        raise InvalidGraph("both links must exist")

    candidates = []  # pairs of new links per orientation
    if not (_has_link(g, a, c) or _has_link(g, b, d)):
        candidates.append(((a, c), (b, d)))
    if not (_has_link(g, a, d) or _has_link(g, b, c)):
        candidates.append(((a, d), (b, c)))
    if orientation is not None:
        wanted = ((a, c), (b, d)) if orientation == 0 else ((a, d), (b, c))
        candidates = [cand for cand in candidates if cand == wanted]
    if not candidates:
        raise RewireConflict("no feasible degree-preserving alternative")
    if len(candidates) == 2 and rng is not None:
        choice = candidates[int(rng.integers(2))]
    else:
        choice = candidates[0]

    removed = {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
    kept = [link for link in g.links() if link not in removed]
    return Graph.from_edges(g.n, kept + list(choice))
