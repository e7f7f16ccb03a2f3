"""Graph metric suite for the correlation study, on unweighted simple graphs.

The metric set follows the published correlation table: size/degree
statistics, spectral quantities from the adjacency and Laplacian spectra,
distance metrics by breadth-first search, efficiency measures, bridges, and
the solved exponent. Per-node kernels run inside numpy/BLAS: local triangle
counts are the row sums of ``(A @ A) * A``, computed once per graph for both
clustering metrics, and one hop-level BFS serves the hop distances and, on
stacks of all neighbour-induced subgraphs (power-of-two degree buckets of at
most ``NEIGHBOURHOOD_STACK_CAP`` floats), local efficiency.
Two gap conventions are provided: the literal ``lambda1_minus_mean_degree``
and ``dmax_minus_lambda1`` (the quantity the reference correlation values
actually derive from — see README). The same duality applies to
``clustering_coefficient`` (mean local) and ``transitivity`` (global).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (ConstantSeries, DisconnectedInput, InputError,
                     NumericalError, UndefinedAssortativity, WeightedUnsupported)
from .graph import Graph
from .solver import sde
from .spectral import Spectrum, full_spectrum

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
    """Degree assortativity: Pearson correlation of end-node degrees over
    the directed link list (each link counted in both orientations)."""
    degs = g.degrees()
    upper = g.indices > g._rows  # CSR order: the links (i < j) lexicographic
    iu, ju = g._rows[upper], g.indices[upper]
    if iu.size == 0:
        raise UndefinedAssortativity("graph has no links")
    x = np.concatenate([degs[iu], degs[ju]])
    y = np.concatenate([degs[ju], degs[iu]])
    try:
        return pearson(x, y)
    except ConstantSeries as exc:
        raise UndefinedAssortativity(
            "all link end-degrees equal; assortativity undefined") from exc


def _hop_levels(adj: np.ndarray):
    """Yield, for d = 1, 2, ..., the 0/1 stack of the ordered node pairs
    first reached at hop d in a (..., k, k) 0/1 float stack ``adj`` with no
    diagonal: ``adj`` itself, then each hop that reaches a new pair. Path
    counts stay exact in float32 below 2**24 nodes."""
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


def bfs_distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distances of a boolean adjacency matrix (inf when
    unreachable), from :func:`_hop_levels`."""
    dist = np.zeros(adj.shape)
    for d, level in enumerate(_hop_levels(adj.astype(float)), 1):
        dist += d * level
    dist[dist == 0.0] = np.inf  # no hop arrived
    dist.ravel()[::adj.shape[0] + 1] = 0.0  # the diagonal
    return dist


def count_bridges(g: Graph) -> int:
    """Number of bridges via the standard low-link DFS pass (iterative)."""
    n = g.n
    starts = g.indptr.tolist()
    cols = g.indices.tolist()
    nbrs = [cols[starts[i]:starts[i + 1]] for i in range(n)]
    disc = [-1] * n
    low = [0] * n
    timer = 0
    bridges = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(nbrs[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if v == parent:
                    parent = -2  # skip the tree edge once; parallel edges don't exist
                    continue
                if disc[v] == -1:
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, iter(nbrs[v])))
                    advanced = True
                    break
                low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        bridges += 1
    return bridges


def _global_efficiency(dist: np.ndarray) -> float:
    """Mean inverse distance over the ordered pairs of distinct nodes (an
    unreachable pair adds 1/inf = 0)."""
    n = dist.shape[0]
    if n < 2:
        return 0.0
    # the off-diagonal entries in row-major order: past the first entry, the
    # diagonal is the last column of an (n - 1) x (n + 1) view
    off = dist.ravel()[1:].reshape(n - 1, n + 1)[:, :n]
    return float((1.0 / off).sum()) / (n * (n - 1))


def local_efficiency(g: Graph) -> float:
    """Mean over nodes of the global efficiency of the neighbour-induced
    subgraph; nodes with fewer than two neighbours contribute 0.

    All neighbourhoods are searched together. Nodes are grouped by degree
    into power-of-two buckets of at least ``MIN_BUCKET`` (clamped to n);
    each bucket gathers its neighbour-induced subgraphs into a padded
    ``(B, k, k)`` float32 stack, where pad index n is an all-zero row and
    column, in chunks of at most ``NEIGHBOURHOOD_STACK_CAP`` entries, and
    :func:`_hop_levels` expands every source of every subgraph at once. The
    pairs first reached at hop d add 1/d to their node's sum, which
    :func:`_node_mean` divides by k_i (k_i - 1).
    """
    n = g.n
    deg = g._link_counts
    sums = np.zeros(n)
    padded = np.zeros((n + 1, n + 1), dtype=np.float32)
    padded[:n, :n] = g.weights > 0
    indptr, cols = g.indptr, g.indices
    buckets: dict[int, list[int]] = {}
    for node, k in enumerate(deg.tolist()):
        if k >= 2:  # 2**bit_length(k - 1) is the power of two at or above k
            width = min(max(MIN_BUCKET, 1 << (k - 1).bit_length()), n)
            buckets.setdefault(width, []).append(node)
    for k, members in sorted(buckets.items()):
        bucket = np.array(members)
        # neighbour lists padded with n
        slots = np.arange(k)
        at = np.minimum(indptr[bucket, None] + slots, cols.size - 1)
        nbrs = np.where(slots < deg[bucket, None], cols[at], n)
        step = max(1, NEIGHBOURHOOD_STACK_CAP // (k * k))
        for c0 in range(0, bucket.size, step):
            chunk = nbrs[c0:c0 + step]
            sub = padded[chunk[:, :, None], chunk[:, None, :]]
            sums[bucket[c0:c0 + step]] = sum(
                level.sum(axis=(1, 2), dtype=float) / d
                for d, level in enumerate(_hop_levels(sub), 1))
    return _node_mean(sums.tolist(), deg.tolist())


def _node_mean(pair_sums: list[float], deg: list[int]) -> float:
    """Mean over the nodes of pair_sums[i] / (k_i (k_i - 1)), the ordered
    pairs of node i's neighbours; a node of degree < 2 adds exactly 0.0.
    Summed in node order by a Python loop: the same bits on every Python."""
    total = 0.0
    for s, k in zip(pair_sums, deg):
        if k >= 2:
            total += s / (k * (k - 1))
    return total / len(deg)


def mean_local_clustering(g: Graph) -> float:
    """Average local clustering; degree-<2 nodes contribute 0. The triangle
    counts are shared with :func:`transitivity` (see ``Graph._triangles``)."""
    # the factor 2 is exact: the bits of dividing by k (k - 1) / 2 per node
    return 2.0 * _node_mean(g._triangles.tolist(), g._link_counts.tolist())


def transitivity(g: Graph) -> float:
    """Global clustering: 3 * triangles / connected triples."""
    deg = g._link_counts
    triads = float((deg * (deg - 1)).sum())
    if triads == 0.0:
        return 0.0
    return 2.0 * float(g._triangles.sum()) / triads  # 6 * triangles / triads


def spanning_tree_count(spectrum: Spectrum, n: int) -> float:
    """Matrix-tree count from the Laplacian spectrum, via a log-domain
    product; rounded to the nearest integer with a 1e-6 relative guard."""
    mu = spectrum.laplacian[:-1]  # connected: exactly one zero eigenvalue
    if np.any(mu <= 0):
        return 0.0  # disconnected remnant; no spanning tree
    log_count = float(np.log(mu).sum()) - math.log(n)
    if log_count > 700.0:
        return math.exp(700.0)  # saturate rather than overflow
    count = math.exp(log_count)
    rounded = round(count)
    if abs(count - rounded) > 1e-6 * max(1.0, rounded):
        raise NumericalError(
            f"spanning tree count {count} too far from an integer")
    return float(rounded)


def metric_suite(g: Graph) -> dict[str, float]:
    """Full metric record for one connected unweighted graph.

    Assortativity of a regular graph is recorded as NaN (it is undefined,
    exactly like sde_q).
    """
    if not g.is_unweighted():
        raise WeightedUnsupported("the metric suite is defined on unweighted graphs")
    dist = bfs_distances(g.weights > 0)
    ecc = dist.max(axis=1)
    diameter = float(ecc.max())
    if diameter == math.inf:
        raise DisconnectedInput("distance metrics require a connected graph")
    n = g.n
    links = g.num_links()
    degs = g._link_counts.tolist()  # the integral degrees of an unweighted graph
    d_max = float(max(degs))
    spectrum = full_spectrum(g)
    q = sde(g, lambda1=spectrum.lambda1).q
    ae = spectrum.adjacency
    mu = spectrum.laplacian
    lambda1 = spectrum.lambda1
    try:
        rho_d = assortativity(g)
    except UndefinedAssortativity:
        rho_d = math.nan
    record = {
        "num_links": float(links),
        "max_degree": d_max,
        "min_degree": float(min(degs)),
        "degree_variance": float(g.degrees().var()),
        "lambda1": lambda1,
        "lambda1_minus_lambda2": lambda1 - float(ae[1]) if n > 1 else 0.0,
        "lambda1_minus_mean_degree": lambda1 - 2 * links / n,
        "dmax_minus_lambda1": d_max - lambda1,
        "algebraic_connectivity": float(mu[n - 2]) if n > 1 else 0.0,
        "effective_graph_resistance": n * float((1.0 / mu[:-1]).sum()) if n > 1 else 0.0,
        "avg_shortest_path_length": float(dist.sum()) / (n * (n - 1)) if n > 1 else 0.0,
        "diameter": diameter,
        "clustering_coefficient": mean_local_clustering(g),
        "transitivity": transitivity(g),
        "radius": float(ecc.min()),
        "degree_assortativity": rho_d,
        "num_bridges": float(count_bridges(g)),
        "local_efficiency": local_efficiency(g),
        "global_efficiency": _global_efficiency(dist),
        "num_leaf_nodes": float(degs.count(1)),
        "graph_energy": float(np.abs(ae).sum()),
        "estrada_index": float(np.exp(ae).sum()),
        "num_spanning_trees": spanning_tree_count(spectrum, n),
        "max_laplacian_eigenvalue": float(mu[0]),
        "sde_q": q,
    }
    return record
