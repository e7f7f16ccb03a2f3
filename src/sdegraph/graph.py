"""Weighted undirected graphs: representation, degrees, classification, mutation.

A :class:`Graph` stores its adjacency in compressed sparse rows (CSR), so
memory grows with the links, not with n squared; the per-graph arrays its
kernels share (link counts, degrees) are derived once, and
``Graph.weights`` is a cached dense view for the dense kernels. A graph comes
only from a constructor (``Graph.from_edges``, ``Graph.from_dense``,
``Graph.scaled``, :func:`add_link`, the parsers and the family generators),
and every constructor makes its instance in :meth:`Graph._built`;
``Graph(...)`` raises TypeError. Each rule has one home: :meth:`Graph._built`
tests the stored weights and degree sums of every graph, :func:`_too_large`
refuses more than ``SIZE_CAP`` nodes or stored entries before they are
allocated, :func:`_integer` admits every node id and integer count in the
package, :func:`_real` every real-valued parameter, and
:func:`_dense` builds every dense view (at most ``DENSE_CAP`` nodes).
Operations are pure: they return new graphs. A constructor that stores
only unit weights records the graph as unweighted (:meth:`Graph._built`),
so only weighted builds scan their weights. An unweighted graph's degrees
are its link counts. Degrees have one representation, the histogram
:class:`DegreeSequence` built by :func:`degree_sequence` from any degree
array, as tuples of Python floats and ints: one ``np.bincount`` of integer
link counts, a sort of any other degrees. Degrees have one tie rule too: d
is tied at the maximum when d_max - d <= ``TOL_DEG`` * d_max, so neither
the histogram's ``c`` nor the class changes when every weight is scaled.
``Graph.histogram`` builds a graph's once, from its link counts when it is
unweighted and from its weighted degrees otherwise. :func:`classify` reads
the histogram first, scans the links only where it still allows a
biregular graph or a component with every degree at d_max (q is infinite
exactly when there is one), and searches components only when a node
could lie in one.
"""
from __future__ import annotations

import numbers
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DegreeOverflow, InvalidGraph, LinkExists, SelfLoop, TooLargeForDense

# relative tolerance under which two weighted degrees count as equal
TOL_DEG = 1e-9
# largest n whose dense n x n view (Graph.weights, the metric stacks) may be built
DENSE_CAP = 2048
# largest node count, and number of stored entries (two per link), of a Graph:
# its CSR arrays then take under 1 GB and its build a few times that, and
# n * n, the range of _from_links' keys, stays inside int64
SIZE_CAP = 1 << 25


class Graph:
    """Simple undirected graph with positive link weights, in CSR form.

    Row i holds the neighbours of node i, ``indices[indptr[i]:indptr[i+1]]``,
    in increasing order, with their link weights in ``data``. Invariants:
    the stored matrix is symmetric, has sorted columns without repeats, no
    diagonal, and only positive finite weights with finite row sums. Every
    constructor sets them up or raises a typed error, the last two through
    :meth:`_built`, the one place an instance is made; ``Graph(...)`` raises
    TypeError, so no graph holds arrays that no constructor checked. A
    graph is immutable: its attributes (``n``, ``indptr``, ``indices``,
    ``data``) cannot be set or deleted, and it compares and hashes by
    identity.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a Graph comes from its constructors: Graph.from_edges, "
                        "Graph.from_dense, Graph.scaled, add_link, parse_graph6, "
                        "parse_weighted_edge_list and generate")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"Graph(n={self.n!r}, indptr={self.indptr!r}, indices={self.indices!r}, "
                f"data={self.data!r})")

    @classmethod
    def from_dense(cls, weights) -> Graph:
        """Graph of the nonzero entries of a square weight matrix. Raises
        InvalidGraph unless it is symmetric with a zero diagonal, then
        raises as :meth:`_from_links` does."""
        w = _floats(weights)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise InvalidGraph("weights must be a square matrix with n >= 1")
        if not np.array_equal(w, w.T, equal_nan=True) or w.diagonal().any():
            raise InvalidGraph("weights must be symmetric with a zero diagonal (no self-loops)")
        i, j = np.nonzero(np.triu(w, 1))
        return cls._from_links(w.shape[0], i, j, w[i, j])

    @classmethod
    def _from_links(cls, n: int, i, j, w=None) -> Graph:
        """Graph of the distinct links (i[k], j[k]) with weights w[k]
        (1 when ``w`` is None), given in any order and orientation, once
        :func:`_too_large` (before any allocation) and :meth:`_built` pass it."""
        if why := _too_large(n, 2 * len(i)):
            raise InvalidGraph(why)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        keys = np.concatenate((i * n + j, j * n + i))
        if w is None:
            keys, data = np.sort(keys), None
        else:
            order = np.argsort(keys)
            keys, data = keys[order], np.concatenate((w, w))[order]
        # row r starts at the first key r * n or above
        return cls._built(n, np.searchsorted(keys, np.arange(0, n * n + 1, n)), keys % n, data)

    @classmethod
    def _built(cls, n: int, indptr: np.ndarray, indices: np.ndarray, data=None) -> Graph:
        """The graph of a constructor's CSR arrays, the one place an instance
        is made. ``data`` None stores unit weights and records them, so
        nothing scans ``data``. Otherwise every stored weight must be positive
        and finite (else InvalidGraph) and no weighted degree may overflow
        float64: DegreeOverflow names the first node whose finite weights sum
        past it (degrees stay cached). All-1 weights pass on the cached
        ``_unweighted`` alone: they are positive and finite, and no degree
        can pass n - 1."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, indptr=indptr, indices=indices,
                          data=np.ones(indices.size) if data is None else data)
        if data is None:
            g.__dict__["_unweighted"] = True  # the cached property's value
        elif not g._unweighted:
            if not ((0 < data) & (data < np.inf)).all():
                raise InvalidGraph("stored weights must be positive and finite")
            over = np.flatnonzero(np.isinf(g.degrees()))
            if over.size:
                raise DegreeOverflow(f"the weighted degree of node {int(over[0])} overflows "
                                     "float64 (its link weights sum past 1.8e308)")
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Build a graph from (i, j) or (i, j, weight) tuples of integral ids
        and real weights; a repeated link keeps its last weight and a zero
        weight adds no link. Raises SelfLoop, InvalidGraph (a malformed tuple,
        id or weight) and, as :meth:`_from_links`, InvalidGraph and
        DegreeOverflow."""
        n, links = _integer(n, "node counts", 1), {}
        for e in edges:
            if len(e) not in (2, 3):
                raise InvalidGraph(f"an edge is (i, j) or (i, j, weight), got {e!r}")
            i, j = _integer(e[0], "node ids", 0, n), _integer(e[1], "node ids", 0, n)
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            links[(i, j) if i < j else (j, i)] = _weight(e[2]) if len(e) == 3 else 1.0
        links = {k: wt for k, wt in links.items() if wt != 0}
        i, j = zip(*links) if links else ((), ())  # ids past int64 reach the size rule
        return cls._from_links(n, i, j, list(links.values()))

    @cached_property
    def _link_counts(self) -> np.ndarray:
        """Number of links at each node (read-only, computed once per graph)."""
        counts = self.indptr[1:] - self.indptr[:-1]
        counts.flags.writeable = False
        return counts

    @cached_property
    def _rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.n), self._link_counts)

    @cached_property
    def _degrees(self) -> np.ndarray:
        if self._unweighted:  # every weight is 1: the link counts
            degrees = self._link_counts.astype(float)
        else:
            degrees = np.bincount(self._rows, weights=self.data, minlength=self.n)
        degrees.flags.writeable = False
        return degrees

    def degrees(self) -> np.ndarray:
        """Weighted degree of each node (row sums, the link counts on an
        unweighted graph), as floats, computed once per graph."""
        return self._degrees

    @cached_property
    def histogram(self) -> DegreeSequence:
        """The :class:`DegreeSequence` of :meth:`degrees`, built once per graph
        and shared by :func:`classify`, ``sde`` and ``sde compute``; an
        unweighted graph's is counted from its link counts."""
        return degree_sequence(self._link_counts if self._unweighted else self._degrees)

    @cached_property
    def weights(self) -> np.ndarray:
        """Dense weight matrix (read-only, cached), at most ``DENSE_CAP`` nodes."""
        w = _dense(1, self.n, self._rows, self.indices, self.data)[0]
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
        """Graph with every weight multiplied by s, once :meth:`_built` passes
        it: InvalidGraph for a factor that is not positive and finite or a
        product that underflows to 0 (an edgeless graph has none to test)."""
        with np.errstate(over="ignore"):  # _built refuses an overflowed weight
            return Graph._built(self.n, self.indptr, self.indices, self.data * _weight(s))


def _too_large(nodes: int, entries: int) -> str:
    """Why ``nodes`` nodes and ``entries`` stored entries break ``SIZE_CAP``, or ''."""
    if nodes <= SIZE_CAP and entries <= SIZE_CAP:
        return ""
    return f"a graph holds at most {SIZE_CAP} nodes and as many stored entries (two per link)"


def _dense(b: int, n: int, rows: np.ndarray, cols: np.ndarray, values) -> np.ndarray:
    """(b, n, n) zeros but for ``values`` at rows ``rows`` (b * n + i), columns ``cols``."""
    if n > DENSE_CAP:
        raise TooLargeForDense(f"n={n} exceeds the dense cap {DENSE_CAP}")
    out = np.zeros((b, n, n))
    out.reshape(b * n, n)[rows, cols] = values
    return out


def _real(x, what: str, error: type = InvalidGraph):
    """``x``, a numpy real as the Python number it holds; ``error`` naming
    ``what`` unless it is a real number (an int, float, fraction or numpy
    real; not a string, None, a complex number or a decimal). So the caller's
    range test meets no TypeError, and no numpy cast that could overflow."""
    if type(x) is not float:  # one test for the common case
        if not isinstance(x, numbers.Real):
            raise error(f"{what} must be real numbers, got {x!r}")
        if isinstance(x, np.generic):
            return x.item()
    return x


def _weight(w) -> float:
    """``w`` as a float; InvalidGraph unless it is a real number (:func:`_real`)
    within the float range (:meth:`Graph._built` tests the value)."""
    w = _real(w, "link weights")
    try:
        return float(w)
    except OverflowError:
        raise InvalidGraph("stored weights must be positive and finite") from None


def _floats(values) -> np.ndarray:
    """``values`` as a float array; InvalidGraph for a complex, non-real, ragged or
    too large entry (numpy would drop a complex array's imaginary parts)."""
    try:
        if not np.iscomplexobj(values):
            return np.asarray(values, dtype=float)
    except (OverflowError, TypeError, ValueError):
        pass
    raise InvalidGraph("values must be real numbers within the float range")


def _integer(x, what: str, lo: int, hi: float = float("inf"), error: type = InvalidGraph) -> int:
    """``x`` as an int; ``error`` naming ``what`` unless it is an integral real in [lo, hi)
    (the range comes first, so ``% 1`` meets no numpy inf, and a complex number raises)."""
    try:
        if lo <= x < hi and x % 1 == 0:
            return int(x)
    except (ArithmeticError, TypeError, ValueError):
        pass
    raise error(f"{what} must be integers in [{lo}, {hi}), got {x!r}")


class DegreeSequence(NamedTuple):
    """Degree histogram, built by :func:`degree_sequence`: the distinct
    weighted degrees ``values`` in descending order, as Python floats, the
    number of nodes at each, ``counts``, as Python ints, and the node count
    ``n``. Histograms compare and hash by these fields.

    ``c`` counts the nodes with d_max - d <= ``TOL_DEG`` * d_max (``c == n``:
    regular), whatever the degrees; ``d2`` is the largest degree below those
    c nodes (NaN for regular graphs).
    """

    values: tuple[float, ...]
    counts: tuple[int, ...]
    c: int
    n: int

    @property
    def d_max(self) -> float:
        return self.values[0]

    @property
    def d_min(self) -> float:
        return self.values[-1]

    @property
    def d2(self) -> float:
        if self.c >= self.n:
            return float("nan")
        at_least = accumulate(self.counts)  # the nodes at each degree or above
        return next(v for v, k in zip(self.values, at_least) if k > self.c)


def degree_sequence(degrees) -> DegreeSequence:
    """Degree histogram of a degree array, e.g. ``degree_sequence(g.degrees())``.

    An integer array of counts in [0, len), such as an unweighted graph's
    link counts, is counted by one ``np.bincount``, read from the top; any
    other array, and any array-like, is sorted as floats (:func:`_floats`).
    Both give the same histogram, whose ``c`` counts the degrees tied at
    d_max by the one rule, d_max - d <= ``TOL_DEG`` * d_max, integral or not.
    """
    d = (degrees if isinstance(degrees, np.ndarray) else _floats(degrees)).ravel()
    # signed integers only (bincount takes no uint64); as uint64 a negative
    # count wraps to at least 2**63
    if d.dtype.kind == "i" and d.size and d.astype(np.uint64).max() < d.size:
        hist = np.bincount(d)
        top = hist.nonzero()[0][::-1]  # the distinct counts, descending
        counts = tuple(hist[top].tolist())
        # c by the tie rule: integers below 1e9 tie only when equal (links < SIZE_CAP)
        return DegreeSequence(values=tuple(top.astype(float).tolist()), counts=counts,
                              c=counts[0], n=d.size)
    d = np.sort(_floats(d))[::-1]
    if not (d.size and np.isfinite(d[0]) and np.isfinite(d[-1])):  # NaN and inf sort to an end
        raise InvalidGraph("a graph needs n >= 1 nodes, each of finite degree")
    # the first index of each run of equal degrees, and the end
    starts = np.empty(d.size + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.not_equal(d[1:], d[:-1], out=starts[1:-1])
    runs = starts.nonzero()[0]
    values, counts = d[runs[:-1]], runs[1:] - runs[:-1]
    with np.errstate(over="ignore"):  # d < d_max - 1.8e308 overflows to inf: not tied
        c = int(counts[values[0] - values <= TOL_DEG * values[0]].sum())
    return DegreeSequence(values=tuple(values.tolist()), counts=tuple(counts.tolist()), c=c,
                          n=d.size)


# classification


class Regular(NamedTuple):
    degree: float


class Biregular(NamedTuple):
    r1: float  # larger part degree
    r2: float


class MaxDegreeComponent(NamedTuple):
    nodes: tuple[int, ...] = ()


class Generic:
    """No structural shortcut: q needs a solve. Every Generic() equals every
    other and nothing else, and is true (an empty tuple would be false and
    equal ())."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is Generic or NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "Generic()"


GraphClass = Regular | Biregular | MaxDegreeComponent | Generic


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


def _max_degree_component(g: Graph, candidate: np.ndarray) -> tuple[int, ...] | None:
    """Nodes of the component of ``g`` with the smallest node among those
    made only of candidates, if any.

    Searches the components of the links joining two candidates, on the
    candidates alone. Such a component is a component of ``g`` exactly when
    every link of each of its nodes stays among the candidates: a component
    of the candidate links can have a link that leaves it for a non-candidate.
    """
    nodes = np.flatnonzero(candidate)
    rows, cols = g._rows, g.indices
    inside = candidate[rows] & candidate[cols]
    # candidate ids, renumbered 0..k-1 in node order
    sub_rows = np.searchsorted(nodes, rows[inside])
    labels = _component_labels(nodes.size, sub_rows, np.searchsorted(nodes, cols[inside]))
    leaves = np.bincount(sub_rows, minlength=nodes.size) < g._link_counts[nodes]
    closed = (np.bincount(labels, weights=leaves, minlength=nodes.size) == 0)[labels]
    if not closed.any():
        return None
    # the first node of a closed component is its smallest, its label
    return tuple(nodes[labels == np.argmax(closed)].tolist())


def classify(g: Graph) -> GraphClass:
    """Structural class of ``g`` in priority order Regular > Biregular >
    MaxDegreeComponent > Generic.

    Degrees tie by the one rule of :func:`degree_sequence`: a degree d is
    high when d_max - d <= tol = ``TOL_DEG`` * d_max, so the class does not
    change when every weight is scaled, and the histogram's ``c`` counts
    the high nodes. Regularity (``c == n``) makes the SDE undefined
    regardless of any other structure, so it is tested first. Biregularity
    is decided from the degrees: a non-regular graph with no isolated node
    is biregular exactly when every degree is high or lies within tol of
    d_min (the low class), that is when d2 does, and every positive link
    joins the two classes. Then the classes two-colour every component with
    one degree per part, so every component is bipartite with part degrees
    (d_max, d_min); conversely, a biregular graph's links all join an r1
    node to an r2 node. MaxDegreeComponent holds the first component, by
    smallest node, whose degrees are all high: then lambda1 = d_max and q
    is infinite, and otherwise it is finite. Components are searched only
    for this test, only among the nodes that pass its necessary condition
    (the node is high and so is every neighbour), and only on the links
    between two of them.

    The degree tests read the graph's histogram (:attr:`Graph.histogram`);
    the links are scanned only where a biregular graph or a max-degree
    component is still possible. A component at d_max > 0 has at least two
    high nodes, and on an unweighted graph d_max + 1 of them, so most
    graphs need no scan at all.
    """
    ds = g.histogram
    d_max, d_min, c = ds.d_max, ds.d_min, ds.c
    if c == ds.n:
        return Regular(degree=d_max)
    tol = TOL_DEG * d_max
    two_classes = d_min > 0 and ds.d2 - d_min <= tol
    component_possible = c >= 2 and (c > d_max or not g.is_unweighted())
    if not (two_classes or component_possible):
        return Generic()
    high = d_max - g.degrees() <= tol
    rows, cols = g._rows, g.indices
    if two_classes and (high[rows] != high[cols]).all():
        return Biregular(r1=d_max, r2=d_min)
    if component_possible:
        candidate = high.copy()  # a node at d_max > 0 has links
        candidate[rows[~high[cols]]] = False
        nodes = _max_degree_component(g, candidate) if candidate.any() else None
        if nodes is not None:
            return MaxDegreeComponent(nodes=nodes)
    return Generic()


# link mutations


def add_link(g: Graph, i: int, j: int, w: float = 1.0) -> Graph:
    """New graph with link (i, j) of weight ``w`` added. Raises SelfLoop,
    InvalidGraph (a bad id), LinkExists, and then, as :meth:`Graph.from_edges`
    does, InvalidGraph (a bad weight) and DegreeOverflow."""
    i, j = _integer(i, "node ids", 0, g.n), _integer(j, "node ids", 0, g.n)
    if i == j:
        raise SelfLoop(f"cannot link node {i} to itself")
    indptr, indices, data = g.indptr, g.indices, g.data
    # insertion points of j in row i and of i in row j
    lo, hi = indptr[i], indptr[i + 1]
    at_i = lo + int(np.searchsorted(indices[lo:hi], j))
    if at_i < hi and indices[at_i] == j:
        raise LinkExists(f"link ({i}, {j}) already present")
    at_j = indptr[j] + int(np.searchsorted(indices[indptr[j]:indptr[j + 1]], i))
    w = _weight(w)
    (a, col_a), (b, col_b) = ((at_i, j), (at_j, i)) if i < j else ((at_j, i), (at_i, j))
    new_indptr = indptr.copy()
    new_indptr[i + 1:] += 1
    new_indptr[j + 1:] += 1
    unit = w == 1.0 and g._unweighted  # a unit link onto unit weights: recorded, no scan
    return Graph._built(
        g.n, new_indptr,
        np.concatenate((indices[:a], (col_a,), indices[a:b], (col_b,), indices[b:])),
        None if unit else np.concatenate((data[:a], (w,), data[a:b], (w,), data[b:])))
