import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, k4_plus_p3, random_er
from sdegraph import Graph, generate, metric_suite
from sdegraph import metrics
from sdegraph.errors import (ConstantSeries, DisconnectedInput, InputError,
                             UndefinedAssortativity, WeightedUnsupported)
from sdegraph.graph import connected_components
from sdegraph.metrics import (METRIC_NAMES, _global_efficiency, assortativity,
                              bfs_distances, count_bridges, local_efficiency,
                              mean_local_clustering, pearson, transitivity)
from sdegraph.spectral import full_spectrum


def brute_force_assortativity(g):
    """Independent oracle: build the directed link list explicitly."""
    degs = g.degrees()
    xs, ys = [], []
    for i in range(g.n):
        for j in range(g.n):
            if i != j and g.weights[i, j] > 0:
                xs.append(degs[i])
                ys.append(degs[j])
    return np.corrcoef(xs, ys)[0, 1]


def test_assortativity_star_minus_one():
    for n in (5, 9):
        g = generate(f"star:{n}")
        assert abs(assortativity(g) + 1.0) <= 1e-12
        assert abs(brute_force_assortativity(g) + 1.0) <= 1e-12


def test_assortativity_matches_brute_force(rng):
    for _ in range(20):
        g = random_er(rng, 12, 0.4)
        degs = g.degrees()
        if g.num_links() == 0 or degs.max() == degs.min():
            continue
        try:
            r = assortativity(g)
        except UndefinedAssortativity:
            continue
        assert abs(r - brute_force_assortativity(g)) <= 1e-12
        assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


def test_assortativity_undefined_cases():
    with pytest.raises(UndefinedAssortativity):
        assortativity(cycle_graph(6))
    with pytest.raises(UndefinedAssortativity):
        assortativity(Graph.from_edges(4, [(0, 1), (2, 3)]))  # K2 + K2
    with pytest.raises(UndefinedAssortativity):
        assortativity(Graph.empty(3))


def test_pearson_basics():
    x = [1.0, 2.0, 4.0, 8.0]
    assert abs(pearson(x, x) - 1.0) <= 1e-14
    assert abs(pearson(x, [-v for v in x]) + 1.0) <= 1e-14
    assert abs(pearson([1, 2, 3], [2, 4, 6.0001]) - 1.0) <= 1e-6
    with pytest.raises(ConstantSeries):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(InputError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(InputError):
        pearson([1], [2])


def test_metric_suite_p3():
    rec = metric_suite(generate("path:3"))
    # Laplacian eigenvalues of P_3 are {3, 1, 0}: R_G = 3*(1/3 + 1) = 4,
    # matching the series-resistance hand check 1 + 1 + 2
    assert abs(rec["effective_graph_resistance"] - 4.0) <= 1e-9
    assert rec["num_links"] == 2
    assert rec["diameter"] == 2
    assert rec["num_leaf_nodes"] == 2
    assert rec["num_spanning_trees"] == 1


def test_metric_suite_k2():
    rec = metric_suite(generate("complete:2"))
    assert abs(rec["graph_energy"] - 2.0) <= 1e-10
    assert rec["diameter"] == 1


def test_metric_suite_k4():
    rec = metric_suite(generate("complete:4"))
    assert rec["num_spanning_trees"] == 16  # Cayley: n^(n-2)
    assert math.isnan(rec["sde_q"])  # regular
    assert math.isnan(rec["degree_assortativity"])
    assert abs(rec["clustering_coefficient"] - 1.0) <= 1e-12
    assert abs(rec["local_efficiency"] - 1.0) <= 1e-12


def test_metric_suite_p5():
    rec = metric_suite(generate("path:5"))
    assert rec["diameter"] == 4
    assert rec["radius"] == 2
    assert rec["num_leaf_nodes"] == 2
    assert rec["num_bridges"] == 4
    assert rec["max_degree"] == 2 and rec["min_degree"] == 1


def test_metric_suite_gap_conventions():
    g = generate("star:7")
    rec = metric_suite(g)
    lam = math.sqrt(6)
    assert abs(rec["lambda1_minus_mean_degree"] - (lam - 12 / 7)) <= 1e-9
    assert abs(rec["dmax_minus_lambda1"] - (6 - lam)) <= 1e-9
    assert abs(rec["lambda1_minus_lambda2"] - lam) <= 1e-9  # star eigs: sqrt(6), 0 x5, -sqrt(6)
    assert rec["sde_q"] == 2.0  # star is biregular


def test_metric_suite_rejects_bad_inputs():
    with pytest.raises(DisconnectedInput):
        metric_suite(k4_plus_p3())
    with pytest.raises(WeightedUnsupported):
        metric_suite(Graph.from_edges(2, [(0, 1, 2.5)]))


def test_clustering_conventions_triangle_with_pendant():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    # local: node0 1/3, nodes1,2 -> 1, node3 -> 0
    assert abs(mean_local_clustering(g) - (1 / 3 + 1 + 1 + 0) / 4) <= 1e-12
    # global: 1 triangle, triads = 6+2+2+0 = 10 -> 6/10
    assert abs(transitivity(g) - 0.6) <= 1e-12


def test_efficiency_values():
    rec = metric_suite(generate("path:3"))
    # ordered pairs: (0,1),(1,0),(1,2),(2,1) at distance 1; (0,2),(2,0) at 2
    assert abs(rec["global_efficiency"] - (4 * 1 + 2 * 0.5) / 6) <= 1e-12
    assert 0.0 < rec["global_efficiency"] <= 1.0


def test_local_efficiency_neighbors():
    # star: every hub neighbourhood is edgeless; leaves have one neighbour
    assert local_efficiency(generate("star:5")) == 0.0


def test_bridges():
    assert count_bridges(generate("path:5")) == 4
    assert count_bridges(cycle_graph(5)) == 0
    assert count_bridges(k4_plus_p3()) == 2  # the two P_3 links
    # two triangles sharing one node: a cut vertex but no bridge
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert count_bridges(g) == 0


def test_bfs_distances_square():
    d = bfs_distances(cycle_graph(4).weights > 0)
    assert d[0, 2] == 2 and d[0, 1] == 1 and d[0, 0] == 0


def test_metric_names_frozen():
    assert METRIC_NAMES[0] == "num_links"
    assert METRIC_NAMES[-1] == "sde_q"
    assert len(METRIC_NAMES) == 25
    assert len(set(METRIC_NAMES)) == 25


def test_record_covers_all_names(rng):
    g = generate("wheel:8")
    rec = metric_suite(g)
    assert set(rec) == set(METRIC_NAMES)
    for name, value in rec.items():
        if name in ("sde_q", "degree_assortativity"):
            continue
        assert math.isfinite(value), name


# dual-route verifications


def test_effective_resistance_dual_computation(rng):
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 31))
        g = random_er(rng, n, 0.35)
        if not np.isfinite(bfs_distances(g.weights > 0)).all():
            continue
        spec = full_spectrum(g)
        eig_based = n * (1.0 / spec.laplacian[:-1]).sum()
        # independent route: pairwise resistances from the pseudoinverse;
        # their sum over unordered pairs equals N * sum 1/mu
        lap = np.diag(g.degrees()) - g.weights
        pinv = np.linalg.pinv(lap)
        pair_sum = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                pair_sum += pinv[i, i] + pinv[j, j] - 2 * pinv[i, j]
        assert abs(eig_based - pair_sum) <= 1e-6 * max(1.0, eig_based)
        checked += 1


def enumerate_spanning_trees(g):
    """Brute-force oracle: count (n-1)-edge subsets that span and connect."""
    links = g.links()
    n = g.n
    count = 0
    for subset in itertools.combinations(links, n - 1):
        seen = {0}
        frontier = [0]
        adj = {i: [] for i in range(n)}
        for (a, b) in subset:
            adj[a].append(b)
            adj[b].append(a)
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) == n:
            count += 1
    return count


def test_spanning_trees_match_enumeration_small():
    # all connected labeled graphs on up to 5 nodes
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1, 2 ** len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            g = Graph.from_edges(n, edges)
            if not np.isfinite(bfs_distances(g.weights > 0)).all():
                continue
            rec_count = metric_suite(g)["num_spanning_trees"]
            assert rec_count == enumerate_spanning_trees(g)


# batched kernels against per-node references


def reference_local_efficiency(g):
    """Per-node loop: one BFS per neighbour-induced subgraph."""
    adj = g.weights > 0
    total = 0.0
    for i in range(g.n):
        nb = np.nonzero(adj[i])[0]
        if nb.size < 2:
            continue
        total += _global_efficiency(bfs_distances(adj[np.ix_(nb, nb)]))
    return total / g.n


def reference_mean_local_clustering(g):
    adj = (g.weights > 0).astype(float)
    deg = adj.sum(axis=1)
    tri = np.einsum("ij,jk,ki->i", adj, adj, adj) / 2.0
    total = 0.0
    for i in range(g.n):
        k = deg[i]
        if k >= 2:
            total += tri[i] / (k * (k - 1) / 2.0)
    return total / g.n


def reference_transitivity(g):
    adj = (g.weights > 0).astype(float)
    deg = adj.sum(axis=1)
    triads = float((deg * (deg - 1)).sum())
    if triads == 0.0:
        return 0.0
    return float(np.trace(adj @ adj @ adj)) / triads


def reference_bridge_count(g):
    """A link is a bridge iff deleting it splits the graph; links on a
    triangle never are."""
    adj = g.weights > 0
    common = adj.astype(float) @ adj.astype(float)
    components = np.unique(connected_components(g)).size
    bridges = 0
    for i, j in zip(*np.nonzero(np.triu(adj, 1))):
        if common[i, j] > 0:
            continue
        w = g.weights.copy()
        w[i, j] = w[j, i] = 0.0
        bridges += np.unique(connected_components(Graph.from_dense(w))).size > components
    return bridges


@st.composite
def hub_graphs(draw):
    """ER background, some isolated nodes, and one hub of a drawn degree
    (the degree-bucket edges 7/8/9, 16/17 and 32/33 included)."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < p, 1)
    w = (upper | upper.T).astype(float)
    if n >= 2:
        hub = draw(st.integers(0, n - 1))
        hub_degree = min(n - 1, draw(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 32, 33])))
        others = rng.permutation([v for v in range(n) if v != hub])
        isolated = others[hub_degree:hub_degree + draw(st.integers(0, n // 4))]
        w[isolated, :] = w[:, isolated] = 0.0
        w[hub, :] = w[:, hub] = 0.0
        w[hub, others[:hub_degree]] = w[others[:hub_degree], hub] = 1.0
    return Graph.from_dense(w)


@settings(max_examples=150, deadline=None)
@given(hub_graphs())
@example(Graph.empty(1))
@example(generate("star:9"))
@example(generate("complete:9"))
@example(generate("complete:17"))
@example(k4_plus_p3())
def test_batched_kernels_match_per_node_references(g):
    ref = reference_local_efficiency(g)
    assert abs(local_efficiency(g) - ref) <= 1e-12 * abs(ref)
    assert mean_local_clustering(g) == reference_mean_local_clustering(g)
    assert transitivity(g) == reference_transitivity(g)
    assert count_bridges(g) == reference_bridge_count(g)


def test_kernels_match_networkx(rng):
    nx = pytest.importorskip("networkx")
    graphs = [generate("star:9"), generate("wheel:12"), k4_plus_p3()]
    graphs += [random_er(rng, int(rng.integers(2, 41)), p) for p in (0.1, 0.3, 0.7)
               for _ in range(4)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.links())
        want = nx.local_efficiency(h)
        assert abs(local_efficiency(g) - want) <= 1e-12 * abs(want)
        assert abs(mean_local_clustering(g) - nx.average_clustering(h)) <= 1e-12
        assert abs(transitivity(g) - nx.transitivity(h)) <= 1e-12
        assert count_bridges(g) == sum(1 for _ in nx.bridges(h))


@pytest.mark.parametrize("cap", [None, 100])
def test_local_efficiency_chunked_stack(rng, monkeypatch, cap):
    if cap is not None:  # below one neighbourhood: one node per chunk
        monkeypatch.setattr(metrics, "NEIGHBOURHOOD_STACK_CAP", cap)
    g = random_er(rng, 120, 0.9)
    deg = g.degrees()
    # every node falls in the top bucket (degree 65..128, padded to n = 120),
    # whose stack holds more entries than one chunk may
    assert deg.min() > 64
    assert g.n * g.n * g.n > metrics.NEIGHBOURHOOD_STACK_CAP
    ref = reference_local_efficiency(g)
    assert abs(local_efficiency(g) - ref) <= 1e-12 * abs(ref)
