"""Weighted undirected graphs: representation, degrees, classification, mutation.

The adjacency is stored dense (float64, symmetric, zero diagonal). All
operations are pure: mutating operations return new :class:`Graph` values.
Degrees have one representation, the histogram :class:`DegreeSequence`
built by :func:`degree_sequence` from any degree array, and
:func:`classify` decides its classes from the degrees and the links, with
no graph search except for the max-clique-component test.
Dense storage targets general graphs up to a few thousand nodes; the large
structured families are handled sparsely in :mod:`sdegraph.spectral` and
:mod:`sdegraph.families`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidGraph, LinkExists, RewireConflict, SelfLoop

DEFAULT_TOL_DEG = 1e-9


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with non-negative link weights.

    Invariants (checked by :meth:`validate`): the weight matrix is square,
    symmetric, has a zero diagonal and no negative entries.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def empty(cls, n: int) -> Graph:
        if n < 1:
            raise InvalidGraph("node count must be >= 1")
        return cls(np.zeros((n, n)))

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Build a graph from (i, j) or (i, j, weight) tuples."""
        w = np.zeros((n, n))
        for e in edges:
            if len(e) == 2:
                i, j = e
                wt = 1.0
            else:
                i, j, wt = e
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            w[i, j] = w[j, i] = wt
        g = cls(w)
        g.validate()
        return g

    def validate(self) -> None:
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise InvalidGraph("weights must be a square matrix with n >= 1")
        if not np.array_equal(w, w.T):
            raise InvalidGraph("weights must be symmetric")
        if np.any(np.diagonal(w) != 0):
            raise InvalidGraph("diagonal must be zero (no self-loops)")
        if np.any(w < 0):
            raise InvalidGraph("weights must be non-negative")
        if not np.all(np.isfinite(w)):
            raise InvalidGraph("weights must be finite")

    def degrees(self) -> np.ndarray:
        """Weighted degree of each node (row sums)."""
        return self.weights.sum(axis=1)

    def num_links(self) -> int:
        # symmetric with a zero diagonal: every link is counted twice
        return int(np.count_nonzero(self.weights)) // 2

    def links(self) -> list[tuple[int, int]]:
        """Positive-weight links as (i, j) with i < j, lexicographic."""
        iu, ju = np.nonzero(np.triu(self.weights, 1))
        return list(zip(iu.tolist(), ju.tolist()))

    def is_unweighted(self, tol: float = 0.0) -> bool:
        w = self.weights
        if tol == 0.0:
            return bool(np.all((w == 0) | (w == 1)))
        return bool(np.all((np.abs(w) <= tol) | (np.abs(w - 1) <= tol)))

    def scaled(self, s: float) -> Graph:
        """Graph with every weight multiplied by s > 0."""
        if s <= 0:
            raise InvalidGraph("scale factor must be positive")
        return Graph(self.weights * s)


@dataclass(frozen=True)
class DegreeSequence:
    """Degree histogram: the distinct weighted degrees ``values`` in
    descending order and the number of nodes at each, ``counts``.

    ``c`` counts the nodes attaining the maximum degree under the tolerance
    used at construction; ``d2`` is the largest degree below those c nodes
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


def degree_sequence(degrees, tol_deg: float = DEFAULT_TOL_DEG) -> DegreeSequence:
    """Degree histogram of a degree array, e.g. ``degree_sequence(g.degrees())``.

    When every degree is integral the max-degree multiplicity uses exact
    comparison; otherwise degrees within relative ``tol_deg`` of d_max count
    toward the multiplicity.
    """
    if not (0 < tol_deg <= 1e-3):
        raise InvalidGraph("tol_deg must be in (0, 1e-3]")
    values, counts = np.unique(np.asarray(degrees, dtype=float), return_counts=True)
    values, counts = values[::-1], counts[::-1]
    if (values == np.rint(values)).all():
        c = int(counts[0])
    else:
        c = int(counts[values >= values[0] * (1 - tol_deg)].sum())
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


def connected_components(g: Graph) -> list[set[int]]:
    """Partition of the nodes into maximal positive-weight-connected sets."""
    n = g.n
    adj = g.weights > 0
    seen = np.zeros(n, dtype=bool)
    comps: list[set[int]] = []
    for s in range(n):
        if seen[s]:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[s] = True
        comp = frontier.copy()
        while frontier.any():
            frontier = (adj[frontier].any(axis=0)) & ~comp
            comp |= frontier
        seen |= comp
        comps.append(set(np.nonzero(comp)[0].tolist()))
    return comps


def _max_clique_component(g: Graph, comps: list[set[int]], degs: np.ndarray,
                          tol: float) -> tuple[int, ...] | None:
    """Nodes of a complete component whose degrees all equal d_max, if any."""
    if len(comps) < 2:
        return None
    d_max = degs.max()
    for comp in comps:
        nodes = sorted(comp)
        if len(nodes) < 2:
            continue
        sub = g.weights[np.ix_(nodes, nodes)]
        complete = bool(np.all((sub > 0) | np.eye(len(nodes), dtype=bool)))
        if complete and np.all(np.abs(degs[nodes] - d_max) <= tol):
            return tuple(nodes)
    return None


def classify(g: Graph, tol_deg: float = DEFAULT_TOL_DEG) -> GraphClass:
    """Structural class of ``g`` in priority order Regular > Biregular >
    MaxCliqueComponent > Generic.

    Regularity makes the SDE undefined regardless of any other structure, so
    it is tested first. Biregularity is decided from the degrees: a
    non-regular graph with no isolated node is biregular exactly when every
    degree lies within tol of d_max (the high class) or within tol of d_min
    (the low class) and every positive link joins the two classes. Then the
    classes two-colour every component with one degree per part, so every
    component is bipartite with part degrees (d_max, d_min); conversely, a
    biregular graph's links all join an r1 node to an r2 node. The
    components are computed only for the max-clique-component test.
    """
    degs = g.degrees()
    d_max, d_min = float(degs.max()), float(degs.min())
    tol = tol_deg * max(d_max, 1.0)
    if d_max - d_min <= tol:
        return Regular(degree=d_max)
    high = d_max - degs <= tol
    if d_min > 0 and (high | (degs - d_min <= tol)).all():
        # weight from each node into its own class: zero iff every link crosses
        classes = np.column_stack([high, ~high])
        if not (g.weights @ classes)[classes].any():
            return Biregular(r1=d_max, r2=d_min)
    clique = _max_clique_component(g, connected_components(g), degs, tol)
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
    if g.weights[i, j] > 0:
        raise LinkExists(f"link ({i}, {j}) already present")
    weights = g.weights.copy()
    weights[i, j] = weights[j, i] = w
    return Graph(weights)


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
    w = g.weights
    if w[a, b] == 0 or w[c, d] == 0:
        raise InvalidGraph("both links must exist")

    candidates = []  # pairs of new links per orientation
    if w[a, c] == 0 and w[b, d] == 0:
        candidates.append(((a, c), (b, d)))
    if w[a, d] == 0 and w[b, c] == 0:
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

    weights = w.copy()
    weights[a, b] = weights[b, a] = 0.0
    weights[c, d] = weights[d, c] = 0.0
    for (i, j) in choice:
        weights[i, j] = weights[j, i] = 1.0
    return Graph(weights)
