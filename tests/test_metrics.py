import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, FIXTURE_N7, FIXTURE_N8, cycle_graph, k4_plus_p3, random_er
from sdegraph import Graph, degree_sequence, generate, metric_suite, solve_bisection
from sdegraph import metrics
from sdegraph.errors import (ConstantSeries, DisconnectedInput, InputError, MalformedGraph6,
                             NumericalError, UndefinedAssortativity, WeightedUnsupported)
from sdegraph.families import parse_family
from sdegraph.graph import _dense, connected_components
from sdegraph.io import parse_graph6, read_graph6_file
from sdegraph.metrics import (METRIC_NAMES, _global_efficiency, assortativity,
                              bfs_distances, count_bridges, local_efficiency,
                              mean_local_clustering, pearson)
from sdegraph.spectral import full_spectrum
from sdegraph.study import ensemble_samples


def transitivity(g):
    """The record's global clustering of one graph: the stacked kernels'
    row on a stack of one."""
    return metrics._kernel_rows([g])[0]["transitivity"]


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
        assortativity(Graph.from_edges(3, []))
    with pytest.raises(WeightedUnsupported):
        assortativity(Graph.from_edges(3, [(0, 1, 2.0), (1, 2)]))


def exact_assortativity(g):
    """Newman's r as a Fraction, from the means over the links of j k,
    (j + k) / 2 and (j^2 + k^2) / 2 with j and k the end degrees; None when
    the denominator is 0."""
    deg = g._link_counts.tolist()
    ends = [(deg[i], deg[j]) for i, j in g.links()]
    if not ends:
        return None
    m = len(ends)
    mean = Fraction(sum(j + k for j, k in ends), 2 * m)
    square = Fraction(sum(j * j + k * k for j, k in ends), 2 * m)
    if square == mean * mean:
        return None
    return (Fraction(sum(j * k for j, k in ends), m) - mean * mean) / (square - mean * mean)


@st.composite
def small_unweighted_graphs(draw):
    """A random link set, a star with a link between two leaves or not, or a
    near-regular graph (a cycle with a chord, a complete graph without one
    link), each beside up to three isolated nodes."""
    kind = draw(st.sampled_from(["random", "star", "cycle", "complete"]))
    k = draw(st.integers(1 if kind == "random" else 4, 12))
    if kind == "random":
        pairs = list(itertools.combinations(range(k), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        links = [pair for pair, kept in zip(pairs, keep) if kept]
    elif kind == "star":
        links = [(0, i) for i in range(1, k)] + [(1, 2)] * draw(st.booleans())
    elif kind == "cycle":
        links = [(i, (i + 1) % k) for i in range(k)] + [(0, draw(st.integers(2, k - 2)))]
    else:
        links = [pair for pair in itertools.combinations(range(k), 2) if pair != (0, 1)]
    return Graph.from_edges(k + draw(st.integers(0, 3)), links)


@settings(max_examples=300, deadline=None)
@given(small_unweighted_graphs())
@example(Graph.from_edges(1, []))
@example(cycle_graph(5))
@example(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)]))  # C4 and an isolated node
@example(generate("star:6"))
def test_assortativity_is_the_correctly_rounded_fraction(g):
    want = exact_assortativity(g)
    if want is None:
        with pytest.raises(UndefinedAssortativity):
            assortativity(g)
    else:
        assert assortativity(g) == float(want)  # float(Fraction) rounds correctly


def test_assortativity_exactly_zero_on_n8_fixture():
    lines = FIXTURE_N8.read_text().split()
    for line in (118, 258):  # the Pearson route gave 2.6e-17 and -3.9e-17
        g = parse_graph6(lines[line - 1])
        assert exact_assortativity(g) == 0
        assert assortativity(g) == 0.0


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
        _, laplacian = full_spectrum(g)
        eig_based = n * (1.0 / laplacian[:-1]).sum()
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


def test_spanning_trees_past_e700_are_counted_then_infinite():
    # Cayley's n^(n-2): K_144 has 3.07e306 trees and K_150's count is past
    # the float range; both read exp(700) = 1.0142e304
    assert metric_suite(generate("complete:144"))["num_spanning_trees"] == pytest.approx(
        float(144 ** 142), rel=1e-9)
    assert metric_suite(generate("complete:150"))["num_spanning_trees"] == math.inf


def test_spanning_tree_count_rounds_near_integers_and_refuses_the_rest():
    assert metrics._spanning_tree_count(math.log(3.0000000001)) == 3.0
    assert metrics._spanning_tree_count(-math.inf) == 0.0
    with pytest.raises(NumericalError, match="spanning tree count 2.5 too far from an integer"):
        metrics._spanning_tree_count(math.log(2.5))


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
def hub_graphs(draw, n=None):
    """ER background, some isolated nodes, and one hub of a drawn degree
    (the degree-bucket edges 7/8/9, 16/17 and 32/33 included); n nodes, or
    a drawn 1..40."""
    if n is None:
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
@example(Graph.from_edges(1, []))
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


SEVEN_NODES = [generate("path:7"), cycle_graph(7), generate("lollipop:2"), k4_plus_p3()]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(hub_graphs(n), min_size=1, max_size=5)))
@example(SEVEN_NODES)
@example(SEVEN_NODES[:1])
@example(SEVEN_NODES[1:2])
@example(SEVEN_NODES[2:3])
@example(SEVEN_NODES[3:])
def test_stacked_bridges_match_reference(graphs):
    """The bridge forest run once on a stack of equal-n graphs, disconnected
    ones and n = 1 included."""
    rows = metrics._kernel_rows(graphs)
    assert [row["num_bridges"] for row in rows] == [reference_bridge_count(g) for g in graphs]


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


def reference_efficiency_sums(g):
    """Per node, 0.0 + c_1 / 1 + c_2 / 2 + ... in Python floats, c_d the
    ordered pairs of its neighbours at hop d in their induced subgraph: a
    breadth-first search from each neighbour."""
    nbrs = [set(g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()) for i in range(g.n)]
    sums = []
    for i in range(g.n):
        counts = Counter()  # hop -> ordered pairs first reached there
        for source in nbrs[i]:
            seen, frontier, d = {source}, {source}, 0
            while frontier:
                d += 1
                frontier = {v for u in frontier for v in nbrs[u] & nbrs[i]} - seen
                seen |= frontier
                counts[d] += len(frontier)
        total = 0.0
        for d in sorted(counts):
            total += counts[d] / d
        sums.append(total)
    return sums


def efficiency_sums(graphs):
    """``metrics._efficiency_sums`` on a stack of equal-n graphs, called as
    ``_kernel_rows`` calls it."""
    deg = np.array([g._link_counts for g in graphs])
    rows = np.repeat(np.arange(deg.size), deg.ravel())
    cols = np.concatenate([g.indices for g in graphs])
    adj = _dense(*deg.shape, rows, cols, 1.0).astype(np.float32)
    return metrics._efficiency_sums(adj, rows, cols, metrics._common_neighbours(adj, rows, cols))


# nodes 0, 1 and 2 see two triangles, a path of 3 and a path of 5 among their
# neighbours: searches that end at hops 1, 2 and 4, one chunk under a cap of
# three 8 x 8 subgraphs
MIXED_HOPS = Graph.from_edges(17, [(0, v) for v in range(3, 9)]
                              + [(3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)]
                              + [(1, 9), (1, 10), (1, 11), (9, 10), (10, 11)]
                              + [(2, v) for v in range(12, 17)]
                              + [(v, v + 1) for v in range(12, 16)])
# a hub joined to each node of a path: the hub's neighbourhood is P11
FAN_12 = Graph.from_edges(12, [(0, v) for v in range(1, 12)] + [(v, v + 1) for v in range(1, 11)])


@pytest.mark.parametrize("cap", [metrics.NEIGHBOURHOOD_STACK_CAP, 3 * metrics.MIN_BUCKET ** 2],
                         ids=["default-cap", "three-per-chunk"])
@settings(max_examples=60, deadline=None)
@given(graphs=st.integers(1, 40).flatmap(lambda n: st.lists(hub_graphs(n), min_size=1,
                                                            max_size=5)))
@example(graphs=[generate("star:9")])  # t = 0 at every node
@example(graphs=[Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])])  # t = 1
@example(graphs=[FAN_12, generate("wheel:12")])  # path and cycle neighbourhoods
@example(graphs=[generate("complete:17")])
@example(graphs=[MIXED_HOPS])
@example(graphs=[Graph.from_edges(1, [])])
def test_efficiency_sums_are_the_bits_of_a_per_node_search(cap, graphs):
    with mock.patch.object(metrics, "NEIGHBOURHOOD_STACK_CAP", cap):
        got = efficiency_sums(graphs)
    want = np.array([reference_efficiency_sums(g) for g in graphs])
    assert got.tobytes() == want.tobytes()


# stacked kernels: a stack's rows against lone graphs


def record_bits(record):
    """The record's names and the bytes of its values (NaN equals NaN)."""
    return list(record), np.array(list(record.values())).tobytes()


@pytest.mark.parametrize("cap", [None, 5 * 49])
def test_metric_records_match_lone_metric_suite(monkeypatch, cap):
    if cap is not None:  # five 7-node graphs per stack
        monkeypatch.setattr(metrics, "GRAPH_STACK_CAP", cap)
    graphs = read_graph6_file(FIXTURE_N7)
    # stacks of GRAPH_STACK_CAP // 49 graphs: boundaries inside the run of n = 7
    assert metrics.GRAPH_STACK_CAP // 49 < len(graphs)
    records = list(metrics.metric_records(graphs))
    assert len(records) == len(graphs)
    for g, record in zip(graphs, records):
        assert record_bits(record) == record_bits(metric_suite(g))


@pytest.mark.parametrize("cap", [None, 100 * 100])
@pytest.mark.parametrize("family", ["er:100:0.1", "ba:100:3"])
def test_metric_records_stack_ensemble_samples(monkeypatch, family, cap):
    if cap is not None:  # one 100-node graph per stack
        monkeypatch.setattr(metrics, "GRAPH_STACK_CAP", cap)
    graphs = list(ensemble_samples(parse_family(family), 1, 7))
    # at the default cap, stacks of three: two full stacks and one of one graph
    assert cap is not None or metrics.GRAPH_STACK_CAP // (100 * 100) == 3
    records = list(metrics.metric_records(graphs))
    assert len(records) == len(graphs)
    for g, record in zip(graphs, records):
        assert record_bits(record) == record_bits(metric_suite(g))


# the record columns that call no LAPACK: their digits do not depend on the
# numpy build
LAPACK_FREE_COLUMNS = ["num_links", "max_degree", "min_degree", "degree_variance",
                       "avg_shortest_path_length", "diameter", "clustering_coefficient",
                       "transitivity", "radius", "degree_assortativity", "num_bridges",
                       "local_efficiency", "global_efficiency", "num_leaf_nodes"]


def test_ensemble_records_match_the_pinned_columns():
    """``tests/data/reference/ensemble_records.json`` holds, for each spec at
    seed 1, the repr of every ``LAPACK_FREE_COLUMNS`` field of each of the
    ``count`` records ``sde ensemble`` computes, and the numpy version that
    wrote it. A change that moves one of these bits fails here, naming each
    spec, sample, column, old and new value."""
    pinned = json.loads((DATA_DIR / "reference" / "ensemble_records.json").read_text())
    changed = []
    for spec, columns in pinned["records"].items():
        assert list(columns) == LAPACK_FREE_COLUMNS
        samples = ensemble_samples(parse_family(spec), pinned["seed"], pinned["count"])
        for i, record in enumerate(metrics.metric_records(samples)):
            changed += [f"{spec} sample {i} {name}: {old[i]} -> {record[name]!r}"
                        for name, old in columns.items() if old[i] != repr(record[name])]
    assert not changed, (f"pinned with numpy {pinned['numpy']}, run with {np.__version__}:\n"
                         + "\n".join(changed))


def test_float32_products_give_the_float64_kernels_bits_on_a_dense_graph():
    # ER(1000, 0.95): the graph's sum of per-node triangle counts (~4e8) is
    # past 2**24, where a float32 sum would round
    n = 1000
    upper = np.triu(np.random.default_rng(7).random((n, n)) < 0.95, 1)
    adj = (upper | upper.T).astype(float)[None]  # the float64 link indicators
    deg = adj.sum(axis=2).astype(np.int64)
    links = adj.astype(np.float32)  # the products' operand in _kernel_rows
    rows, cols = np.nonzero(adj[0])  # the stored entries, rows b * n + i with b = 0
    want = ((adj @ adj) * adj).sum(axis=2) / 2.0
    common = metrics._common_neighbours(links, rows, cols)
    assert common.tobytes() == metrics._common_neighbours(adj, rows, cols).tobytes()
    triangles = metrics._triangles(common, rows, deg.shape)
    assert triangles.dtype == np.float64 and np.array_equal(triangles, want)
    assert metrics._transitivity(triangles, deg).tobytes() == \
        metrics._transitivity(want, deg).tobytes()
    assert metrics._node_means(triangles, deg).tobytes() == \
        metrics._node_means(want, deg).tobytes()
    dist = metrics._distances(links)
    assert dist.dtype == np.float64
    assert dist.tobytes() == metrics._distances(adj).tobytes()


def test_metric_records_keep_order_across_sizes_and_errors(monkeypatch):
    monkeypatch.setattr(metrics, "GRAPH_STACK_CAP", 2 * 25)  # two 5-node graphs
    weighted = Graph.from_edges(5, [(0, 1, 2.0), (1, 2), (2, 3), (3, 4)])
    graphs = [generate("path:5"), generate("star:5"), k4_plus_p3(), generate("wheel:5"),
              weighted, generate("fork:5"), generate("complete:2")]
    outcomes = list(metrics.metric_records(iter(graphs)))
    assert [type(o).__name__ for o in outcomes] == [
        "dict", "dict", "DisconnectedInput", "dict", "WeightedUnsupported", "dict", "dict"]
    for g, outcome in zip(graphs, outcomes):
        if isinstance(outcome, dict):
            assert record_bits(outcome) == record_bits(metric_suite(g))


def test_metric_records_pass_error_items_in_place(monkeypatch):
    monkeypatch.setattr(metrics, "GRAPH_STACK_CAP", 3 * 49)  # three 7-node graphs
    g7 = read_graph6_file(FIXTURE_N7)[:8]
    errors = [MalformedGraph6(f"line {k}") for k in range(6)]
    # errors first and last, one inside a stack of g7[0:3], two in a row
    # between runs of n = 7, and one between runs of n = 5 and n = 7
    items = [errors[0], g7[0], g7[1], errors[1], g7[2], g7[3], g7[4], g7[5], errors[2],
             errors[3], g7[6], generate("path:5"), errors[4], g7[7], errors[5]]
    outcomes = list(metrics.metric_records(iter(items)))
    assert len(outcomes) == len(items)
    graphs = [item for item in items if isinstance(item, Graph)]
    records = iter(metrics.metric_records(graphs))  # the same graphs without errors
    for item, outcome in zip(items, outcomes):
        if isinstance(item, Graph):
            assert record_bits(outcome) == record_bits(next(records))
            assert record_bits(outcome) == record_bits(metric_suite(item))
        else:
            assert outcome is item


# the record wiring: every field against its own reference


def reference_record(g):
    """The 25 fields rebuilt from ``g.weights`` alone: both spectra from
    eigvalsh, hop distances by Floyd-Warshall, Newman's assortativity in
    exact integers, the spanning trees from a Laplacian minor, the per-node
    reference kernels above and q from bisection."""
    w = g.weights
    adj = w > 0
    n = g.n
    deg = adj.sum(axis=1)
    links = int(deg.sum()) // 2
    ae = np.linalg.eigvalsh(w)[::-1]
    lap = np.diag(deg.astype(float)) - w
    mu = np.maximum(np.linalg.eigvalsh(lap)[::-1], 0.0)
    dist = np.where(adj, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    off = ~np.eye(n, dtype=bool)
    # r = (4M sum jk - S1^2) / (2M sum (j^2 + k^2) - S1^2) over the M links,
    # S1 = sum (j + k), with j and k the end degrees
    ends = [(int(deg[i]), int(deg[j])) for i, j in zip(*np.nonzero(np.triu(adj, 1)))]
    s1 = sum(a + b for a, b in ends)
    den = 2 * links * sum(a * a + b * b for a, b in ends) - s1 * s1
    rho = (4 * links * sum(a * b for a, b in ends) - s1 * s1) / den if den else math.nan
    regular = deg.min() == deg.max()
    return {
        "num_links": links,
        "max_degree": deg.max(),
        "min_degree": deg.min(),
        "degree_variance": deg.var(),
        "lambda1": ae[0],
        "lambda1_minus_lambda2": ae[0] - ae[1],
        "lambda1_minus_mean_degree": ae[0] - 2 * links / n,
        "dmax_minus_lambda1": deg.max() - ae[0],
        "algebraic_connectivity": mu[-2],
        "effective_graph_resistance": n * (1.0 / mu[:-1]).sum(),
        "avg_shortest_path_length": dist[off].mean(),
        "diameter": dist.max(),
        "clustering_coefficient": reference_mean_local_clustering(g),
        "transitivity": reference_transitivity(g),
        "radius": dist.max(axis=1).min(),
        "degree_assortativity": rho,
        "num_bridges": reference_bridge_count(g),
        "local_efficiency": reference_local_efficiency(g),
        "global_efficiency": (1.0 / dist[off]).mean(),
        "num_leaf_nodes": (deg == 1).sum(),
        "graph_energy": np.abs(ae).sum(),
        "estrada_index": np.exp(ae).sum(),
        "num_spanning_trees": round(np.linalg.det(lap[1:, 1:])),
        "max_laplacian_eigenvalue": mu[0],
        "sde_q": math.nan if regular else solve_bisection(degree_sequence(deg), ae[0]).q,
    }


INTEGRAL_FIELDS = {"num_links", "max_degree", "min_degree", "diameter", "radius",
                   "num_bridges", "num_leaf_nodes", "num_spanning_trees"}


def test_record_fields_match_references_on_n7():
    graphs = read_graph6_file(FIXTURE_N7)
    assert len(graphs) == 853
    for index, g in enumerate(graphs):
        rec = metric_suite(g)
        ref = reference_record(g)
        assert list(rec) == list(METRIC_NAMES)
        for name in METRIC_NAMES:
            got, want = rec[name], float(ref[name])
            where = f"graph {index}, {name}: {got!r} vs {want!r}"
            if math.isnan(want):
                assert math.isnan(got), where
            elif name in INTEGRAL_FIELDS:
                assert got == want, where
            elif name == "sde_q":  # Newton against bisection, each to tol_q
                assert abs(got - want) <= 2e-9, where
            else:
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), where
