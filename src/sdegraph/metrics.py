"""Graph metric suite for the correlation study, on unweighted simple graphs.

The metric set follows the published correlation table: size/degree
statistics, spectral quantities from the adjacency and Laplacian spectra,
distance metrics by breadth-first search, efficiency measures, bridges,
assortativity and the solved exponent. The kernels run on stacks of graphs
of one size n, one numpy pass per kernel per stack: the adjacency and
Laplacian spectra (one ``eigvalsh`` call each), the hop distances and local
efficiency (one hop-level BFS, :func:`_hop_levels`, on the ``(B, n, n)``
stack and on the stacked neighbour-induced subgraphs of all its nodes, in
power-of-two degree buckets of at most ``NEIGHBOURHOOD_STACK_CAP`` floats),
the local triangle counts (the row sums of ``(A @ A) * A``), the bridges,
assortativity and every reduction to a record field. :func:`metric_records`
stacks consecutive equal-size graphs, at most ``GRAPH_STACK_CAP`` adjacency
entries each; :func:`metric_suite` and each public kernel on a lone graph run
the same code on a stack of one. Only the exponent runs per graph.
Two gap conventions are provided: the literal ``lambda1_minus_mean_degree``
and ``dmax_minus_lambda1`` (the quantity the reference correlation values
actually derive from — see README). The same duality applies to
``clustering_coefficient`` (mean local) and ``transitivity`` (global).
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import groupby, islice, repeat

import numpy as np

from .errors import (ConstantSeries, DisconnectedInput, InputError, NumericalError,
                     SdegraphError, TooLargeForDense, UndefinedAssortativity,
                     WeightedUnsupported)
from .graph import DENSE_CAP, Graph
from .solver import sde
from .spectral import spectra

# largest stack of equal-size graphs, in adjacency entries (B * n * n), whose
# dense kernels run as one numpy call each: 64 graphs at n = 8 and one graph
# from n = 64 on. On the N=8 corpus stacks of 32 to 256 graphs timed the
# same, while the batch's peak memory grew with the stack (+3 MB at 256).
GRAPH_STACK_CAP = 1 << 12
# largest padded neighbourhood stack (B * k * k entries, 1 MB as float32)
# that local_efficiency builds at once; larger degree buckets are processed in
# chunks. Run time measured flat from 2**14 to 2**20 on ER/BA graphs with
# n = 200..2000, while peak memory grows with the cap.
NEIGHBOURHOOD_STACK_CAP = 1 << 18
# smallest padded neighbourhood size. Measured on N=8 and n = 100 ER/BA
# graphs: 4 and 16 were no faster, one bucket per degree was ~2x slower and a
# single bucket padded to the largest degree ~4x slower on BA(100, 3).
MIN_BUCKET = 8

METRIC_NAMES = (
    "num_links",
    "max_degree",
    "min_degree",
    "degree_variance",
    "lambda1",
    "lambda1_minus_lambda2",
    "lambda1_minus_mean_degree",
    "dmax_minus_lambda1",
    "algebraic_connectivity",
    "effective_graph_resistance",
    "avg_shortest_path_length",
    "diameter",
    "clustering_coefficient",
    "transitivity",
    "radius",
    "degree_assortativity",
    "num_bridges",
    "local_efficiency",
    "global_efficiency",
    "num_leaf_nodes",
    "graph_energy",
    "estrada_index",
    "num_spanning_trees",
    "max_laplacian_eigenvalue",
    "sde_q",
)


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length nonconstant series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise InputError("pearson needs two equal-length series with >= 2 points")
    xc = x - x.sum() / x.size  # the bits of x.mean(), without its wrapper
    yc = y - y.sum() / y.size
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise ConstantSeries("correlation undefined for a constant series")
    return float(xc @ yc) / (sx * sy)


def assortativity(g: Graph) -> float:
    """Degree assortativity, :func:`_assortativity` on a stack of one: link
    counts only, so WeightedUnsupported on a weighted graph, and
    UndefinedAssortativity when all link ends have one degree."""
    if not g.is_unweighted():
        raise WeightedUnsupported("assortativity is defined on unweighted graphs")
    r = _assortativity(g._link_counts[None], g._rows, g.indices)[0]
    if math.isnan(r):
        raise UndefinedAssortativity("all link end-degrees equal; assortativity undefined")
    return r


def _assortativity(deg: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> list[float]:
    """Newman's r (Phys. Rev. Lett. 89, 208701, 2002) of each graph of a
    (B, n) stack of link counts with stored entries (``rows`` b * n + i,
    ``cols`` j): (2M sum d_i s_i - S^2) / (2M sum d_i^3 - S^2), S = sum d_i^2
    and s_i the degree sum of i's neighbours, NaN where all link ends have
    one degree; exact int64 sums, Python-int products (past 2**63 near
    n = 2048) and one rounding."""
    entries = deg.sum(axis=1)  # 2M
    graph = rows // deg.shape[1]
    dsd = np.zeros(len(deg), dtype=np.int64)
    np.add.at(dsd, graph, deg.ravel()[rows] * deg[graph, cols])
    return [(m2 * ds - sq * sq) / (m2 * cu - sq * sq) if m2 * cu != sq * sq else math.nan
            for m2, ds, sq, cu in zip(entries.tolist(), dsd.tolist(),
                                      (deg * deg).sum(axis=1).tolist(),
                                      (deg * deg * deg).sum(axis=1).tolist())]


def _hop_levels(adj: np.ndarray):
    """Yield, for d = 1, 2, ..., the 0/1 stack of the ordered node pairs
    first reached at hop d in a (..., k, k) 0/1 float stack ``adj`` with no
    diagonal: ``adj`` itself, then each hop that reaches a new pair in any
    matrix of the stack. Path counts stay exact in float32 below 2**24
    nodes."""
    unreached = 1.0 - adj - np.eye(adj.shape[-1], dtype=adj.dtype)
    frontier = adj
    while True:
        yield frontier
        # path counts into the next hop, capped at 1 where unreached and at
        # 0 where reached
        frontier = np.minimum(frontier @ adj, unreached)
        if not frontier.any():
            return
        unreached -= frontier


def _distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distances of a (B, n, n) 0/1 float stack (inf when
    unreachable), from :func:`_hop_levels`."""
    dist = np.zeros(adj.shape)
    for d, level in enumerate(_hop_levels(adj), 1):
        dist += d * level
    dist[dist == 0.0] = np.inf  # no hop arrived
    dist.reshape(len(dist), -1)[:, ::adj.shape[-1] + 1] = 0.0  # the diagonals
    return dist


def bfs_distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distances of a boolean adjacency matrix (inf when
    unreachable): :func:`_distances` on a stack of one."""
    return _distances(np.asarray(adj, dtype=float)[None])[0]


def count_bridges(g: Graph) -> int:
    """Number of bridges, :func:`_bridges` on a stack of one: it reads the
    dense hop distances, so TooLargeForDense above ``DENSE_CAP`` nodes."""
    dist = _distances(_link_indicator(g))
    return int(_bridges(dist, g._link_counts[None], g._rows, g.indices)[0])


def _bridges(dist: np.ndarray, deg: np.ndarray, rows: np.ndarray,
             cols: np.ndarray) -> np.ndarray:
    """Bridges of each graph of a stack with (B, n, n) hop distances, (B, n)
    link counts and stored entries (``rows`` b * n + i, ``cols`` j), by
    Tarjan's count (Inf. Process. Lett. 2(6), 1974) on a breadth-first
    forest: each component is rooted at its smallest node, and a node's
    parent is its smallest neighbour one hop nearer the root. The tree link
    into v is a bridge exactly when one link leaves v's subtree: when the
    subtree's sum of c(x) = links(x) - 2 #(links whose tree LCA is x) is 1."""
    b, n = deg.shape
    root = np.isfinite(dist).argmax(axis=2)[..., None]
    depth = np.take_along_axis(dist, root, axis=2).ravel().astype(np.int64)
    lo, hi = rows, rows - rows % n + cols  # both ends of each entry, as ids b * n + i
    up = np.flatnonzero(depth[hi] == depth[lo] - 1)
    up = up[np.diff(lo[up], prepend=-1) > 0]  # the first such entry of a row
    parent = np.arange(b * n)  # a root is its own parent
    parent[lo[up]] = hi[up]
    # a link's ends lie at most a hop apart in depth: lift the deeper, then both
    # a hop a step to their LCA, counted twice (each link is stored twice)
    d_lo, d_hi = depth[lo], depth[hi]
    lo, hi = np.where(d_lo > d_hi, parent[lo], lo), np.where(d_hi > d_lo, parent[hi], hi)
    sums = deg.ravel().astype(float)  # c(x)
    while lo.size:
        met = lo == hi
        sums -= np.bincount(lo[met], minlength=b * n)
        lo, hi = parent[lo[~met]], parent[hi[~met]]
    for d in range(int(depth.max()), 0, -1):  # the subtree sums, a level a step
        at = depth == d
        sums += np.bincount(parent[at], weights=sums[at], minlength=b * n)
    return ((depth > 0) & (sums == 1.0)).reshape(b, n).sum(axis=1)


def _global_efficiency(dist: np.ndarray) -> np.ndarray:
    """Mean inverse distance over the ordered pairs of distinct nodes of
    each (n, n) matrix of a (..., n, n) stack (an unreachable pair adds
    1/inf = 0)."""
    n, lead = dist.shape[-1], dist.shape[:-2]
    if n < 2:
        return np.zeros(lead)
    # the off-diagonal entries in row-major order: past the first entry, the
    # diagonal is the last column of an (n - 1) x (n + 1) view
    off = dist.reshape(*lead, n * n)[..., 1:].reshape(*lead, n - 1, n + 1)[..., :n]
    return (1.0 / off).sum(axis=(-2, -1)) / (n * (n - 1))


def _triangles(adj: np.ndarray) -> np.ndarray:
    """Triangles at each node of a (B, n, n) 0/1 float stack: the row sums
    of ``(A @ A) * A`` over 2, exact integers in float64."""
    return ((adj @ adj) * adj).sum(axis=2) / 2.0


def _efficiency_sums(adj: np.ndarray, indptr: np.ndarray, cols: np.ndarray,
                     deg: np.ndarray) -> np.ndarray:
    """Per node of a (B, n, n) 0/1 float stack, the sum of 1/d over the
    ordered pairs of its neighbours at hop distance d in their induced
    subgraph, as a (B, n) array. ``deg`` holds the (B, n) link counts and
    ``indptr``/``cols`` the stack's neighbour lists: CSR rows b * n + i
    holding node ids 0..n-1.

    All neighbourhoods of all graphs are searched together. Nodes are
    grouped by degree into power-of-two buckets of at least ``MIN_BUCKET``
    (clamped to n); each bucket gathers its neighbour-induced subgraphs into
    a padded ``(K, k, k)`` float32 stack, where pad index n is an all-zero
    row and column, in chunks of at most ``NEIGHBOURHOOD_STACK_CAP``
    entries, and :func:`_hop_levels` expands every source of every subgraph
    at once. Nodes of degree < 2 get 0.
    """
    n = deg.shape[1]
    links = deg.ravel()
    sums = np.zeros(links.size)
    # the stack as rows b * (n + 1) + i, each graph padded by a zero row and
    # column n
    padded = np.zeros((deg.shape[0] * (n + 1), n + 1), dtype=np.float32)
    padded.reshape(-1, n + 1, n + 1)[:, :n, :n] = adj
    nodes = np.flatnonzero(links >= 2)
    # 2**bit_length(k - 1), the power of two at or above k
    width = np.minimum(np.maximum(MIN_BUCKET, 1 << np.frexp(links[nodes] - 1)[1]), n)
    for k in sorted(set(width.tolist())):
        bucket = nodes[width == k]
        # neighbour lists padded with n, and their rows of ``padded``
        slots = np.arange(k)
        at = np.minimum(indptr[bucket, None] + slots, cols.size - 1)
        nbrs = np.where(slots < links[bucket, None], cols[at], n)
        rows = nbrs + (bucket // n * (n + 1))[:, None]
        step = max(1, NEIGHBOURHOOD_STACK_CAP // (k * k))
        for c0 in range(0, bucket.size, step):
            sub = padded[rows[c0:c0 + step, :, None], nbrs[c0:c0 + step, None, :]]
            sums[bucket[c0:c0 + step]] = sum(
                level.sum(axis=(1, 2), dtype=float) / d
                for d, level in enumerate(_hop_levels(sub), 1))
    return sums.reshape(deg.shape)


def _node_means(per_node: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Per graph of a (B, n) stack, the mean over its nodes of
    per_node[i] / (k_i (k_i - 1)), the ordered pairs of node i's neighbours;
    a node of degree < 2 adds exactly 0.0. Summed in node order by
    ``np.cumsum``, which adds sequentially: the bits of a Python loop."""
    terms = np.zeros(per_node.shape)
    np.divide(per_node, deg * (deg - 1), out=terms, where=deg >= 2)
    return np.cumsum(terms, axis=1)[:, -1] / deg.shape[1]


def _transitivity(triangles: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Per graph of a (B, n) stack, 3 * triangles / connected triples (0
    without triples)."""
    triads = (deg * (deg - 1)).sum(axis=1)
    # 6 * triangles / triads, from the per-node counts of each triangle
    return np.divide(2.0 * triangles.sum(axis=1), triads, out=np.zeros(triads.shape),
                     where=triads > 0)


def _link_stack(deg: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The 0/1 float link indicators of B graphs of n nodes as a (B, n, n)
    stack, from their (B, n) link counts and their stored entries (``rows``
    b * n + i, ``cols`` j); TooLargeForDense above ``DENSE_CAP`` nodes."""
    b, n = deg.shape
    if n > DENSE_CAP:
        raise TooLargeForDense(f"n={n} exceeds the dense cap {DENSE_CAP}")
    adj = np.zeros((b, n, n))
    adj.reshape(b * n, n)[rows, cols] = 1.0
    return adj


def _link_indicator(g: Graph) -> np.ndarray:
    """The 0/1 float adjacency of ``g`` as a stack of one."""
    return _link_stack(g._link_counts[None], g._rows, g.indices)


def local_efficiency(g: Graph) -> float:
    """Mean over nodes of the global efficiency of the neighbour-induced
    subgraph; nodes with fewer than two neighbours contribute 0. One graph's
    row of :func:`_efficiency_sums` and :func:`_node_means`."""
    deg = g._link_counts[None]
    sums = _efficiency_sums(_link_indicator(g), g.indptr, g.indices, deg)
    return float(_node_means(sums, deg)[0])


def mean_local_clustering(g: Graph) -> float:
    """Average local clustering; degree-<2 nodes contribute 0."""
    # the factor 2 is exact: the bits of dividing by k (k - 1) / 2 per node
    return 2.0 * float(_node_means(_triangles(_link_indicator(g)), g._link_counts[None])[0])


def _spanning_tree_count(log_count: float) -> float:
    """Matrix-tree count from its log, the log of the product of the n - 1
    largest Laplacian eigenvalues over n (-inf when one of them is 0: no
    spanning tree); rounded to the nearest integer with a 1e-6 relative
    guard."""
    if log_count > 700.0:
        return math.exp(700.0)  # saturate rather than overflow
    count = math.exp(log_count)
    rounded = round(count)
    if abs(count - rounded) > 1e-6 * max(1.0, rounded):
        raise NumericalError(
            f"spanning tree count {count} too far from an integer")
    return float(rounded)


def _kernel_rows(graphs: list[Graph]) -> list[dict[str, float]]:
    """The stacked fields of the metric record of graphs that all have n
    nodes, one row per graph, keyed in ``METRIC_NAMES`` order without
    ``sde_q``: each kernel and each reduction to a field runs once per
    stack, on the link indicators or the CSR columns (weights are not read).
    The ``num_spanning_trees`` slot holds the count's log, which
    :func:`metric_suite` turns into the count (see
    :func:`_spanning_tree_count`). TooLargeForDense above ``DENSE_CAP``
    nodes."""
    deg = np.array([g._link_counts for g in graphs])
    n = deg.shape[1]
    degrees = deg.astype(float)  # an unweighted graph's degrees
    rows = np.repeat(np.arange(deg.size), deg.ravel())  # b * n + i per stored entry
    cols = np.concatenate([g.indices for g in graphs])
    adj = _link_stack(deg, rows, cols)
    adjacency, laplacian = spectra(adj, degrees)
    dist = _distances(adj)
    ecc = dist.max(axis=2)
    global_efficiency = _global_efficiency(dist)
    bridges = _bridges(dist, deg, rows, cols)
    if n < 2:
        gap = connectivity = path_length = np.zeros(len(graphs))
    else:
        gap = adjacency[:, 0] - adjacency[:, 1]
        connectivity = laplacian[:, n - 2]
        path_length = dist.sum(axis=(1, 2)) / (n * (n - 1))
    del dist  # freed once read: fewer page faults where a stack is one graph
    triangles = _triangles(adj)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    pair_sums = _efficiency_sums(adj, indptr, cols, deg)
    links = deg.sum(axis=1) // 2
    d_max = deg.max(axis=1)
    lambda1 = adjacency[:, 0]
    centred = degrees - degrees.sum(axis=1, keepdims=True) / n
    mu = laplacian[:, :-1]  # connected: exactly one zero eigenvalue
    with np.errstate(divide="ignore"):  # a disconnected graph has more zeros
        log_trees = np.log(mu).sum(axis=1) - math.log(n)
        resistance = n * (1.0 / mu).sum(axis=1)  # 0 for n = 1
    columns = {
        "num_links": links,
        "max_degree": d_max,
        "min_degree": deg.min(axis=1),
        "degree_variance": (centred * centred).sum(axis=1) / n,  # numpy's var
        "lambda1": lambda1,
        "lambda1_minus_lambda2": gap,
        "lambda1_minus_mean_degree": lambda1 - 2 * links / n,
        "dmax_minus_lambda1": d_max - lambda1,
        "algebraic_connectivity": connectivity,
        "effective_graph_resistance": resistance,
        "avg_shortest_path_length": path_length,
        "diameter": ecc.max(axis=1),
        "clustering_coefficient": 2.0 * _node_means(triangles, deg),
        "transitivity": _transitivity(triangles, deg),
        "radius": ecc.min(axis=1),
        "degree_assortativity": _assortativity(deg, rows, cols),
        "num_bridges": bridges,
        "local_efficiency": _node_means(pair_sums, deg),
        "global_efficiency": global_efficiency,
        "num_leaf_nodes": (deg == 1).sum(axis=1),
        "graph_energy": np.abs(adjacency).sum(axis=1),
        "estrada_index": np.exp(adjacency).sum(axis=1),
        "num_spanning_trees": log_trees,
        "max_laplacian_eigenvalue": laplacian[:, 0],
    }
    # one float64 array: every field a float, and one tolist call
    return [dict(zip(columns, row)) for row in np.array(list(columns.values())).T.tolist()]


def metric_suite(g: Graph, _row: dict[str, float] | None = None) -> dict[str, float]:
    """Full metric record of one connected unweighted graph (assortativity
    and sde_q are NaN on a regular graph): the kernels' row on a stack of
    one, or ``_row`` from :func:`metric_records`, completed in place with
    the spanning-tree count and q, after the checks."""
    if not g.is_unweighted():
        raise WeightedUnsupported("the metric suite is defined on unweighted graphs")
    row = _kernel_rows([g])[0] if _row is None else _row
    if row["diameter"] == math.inf:
        raise DisconnectedInput("distance metrics require a connected graph")
    row["num_spanning_trees"] = _spanning_tree_count(row["num_spanning_trees"])
    row["sde_q"] = sde(g, lambda1=row["lambda1"]).q  # the last name
    return row


def metric_records(items: Iterable[Graph | SdegraphError]
                   ) -> Iterator[dict[str, float] | SdegraphError]:
    """The :func:`metric_suite` record of each graph, in order, or the
    SdegraphError raised on it; an SdegraphError item comes back in its place.

    Consecutive graphs with the same n share stacks of at most
    ``GRAPH_STACK_CAP`` adjacency entries; :func:`_kernel_rows` runs once
    per stack and ``metric_suite`` once per graph, on the graph's row. The
    items are read lazily, one stack ahead of the records.
    """
    for n, run in groupby(items, key=lambda g: None if isinstance(g, SdegraphError) else g.n):
        if n is None:  # a run of error items
            yield from run
            continue
        size = max(1, GRAPH_STACK_CAP // (n * n))
        while stack := list(islice(run, size)):
            try:
                rows = _kernel_rows(stack)
            except SdegraphError as exc:  # above DENSE_CAP nodes: a stack of one
                yield from repeat(exc, len(stack))
                continue
            for g, row in zip(stack, rows):
                try:
                    yield metric_suite(g, row)
                except SdegraphError as exc:
                    yield exc
