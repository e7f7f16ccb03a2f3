import numpy as np
import pytest

from conftest import cycle_graph, k4_plus_p3, random_er
from sdegraph import (Biregular, Generic, Graph, InvalidGraph, LinkExists,
                      MaxCliqueComponent, Regular, RewireConflict, SelfLoop,
                      add_link, classify, connected_components, degree_sequence,
                      dpr_rewire, generate)


def test_degree_sequence_star():
    g = generate("star:5")
    ds = degree_sequence(g)
    assert ds.degrees.tolist() == [4, 1, 1, 1, 1]
    assert ds.c == 1
    assert ds.d2 == 1
    assert ds.d_max == 4 and ds.d_min == 1


def test_degree_sequence_complete():
    ds = degree_sequence(generate("complete:4"))
    assert ds.degrees.tolist() == [3, 3, 3, 3]
    assert ds.c == 4
    assert np.isnan(ds.d2)


def test_degree_sequence_weighted_triangle():
    # row sums by hand: node0 = 2+1, node1 = 2+1, node2 = 1+1
    g = Graph.from_edges(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)])
    ds = degree_sequence(g)
    assert ds.degrees.tolist() == [3, 3, 2]
    assert ds.c == 2
    assert ds.d2 == 2


def test_degree_sequence_tolerance_bounds():
    g = generate("star:5")
    with pytest.raises(InvalidGraph):
        degree_sequence(g, tol_deg=0.0)
    with pytest.raises(InvalidGraph):
        degree_sequence(g, tol_deg=1e-2)


def test_classify_cycle_regular():
    cls = classify(cycle_graph(6))
    assert isinstance(cls, Regular)
    assert cls.degree == 2


def test_classify_complete_bipartite_biregular():
    cls = classify(generate("kbip:2:3"))
    assert cls == Biregular(r1=3, r2=2)


def test_classify_max_clique_component():
    cls = classify(k4_plus_p3())
    assert isinstance(cls, MaxCliqueComponent)
    assert set(cls.clique) == {0, 1, 2, 3}


def test_classify_path4_generic():
    # P_4 is bipartite but each colour class mixes degrees 1 and 2
    assert isinstance(classify(generate("path:4")), Generic)


@pytest.mark.parametrize("g, cls, passes", [
    (cycle_graph(6), Regular, 0),
    (generate("kbip:2:3"), Biregular, 1),
    (k4_plus_p3(), MaxCliqueComponent, 1),
    (generate("path:4"), Generic, 1),
    (Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]), Generic, 1),
], ids=["cycle6", "kbip2_3", "k4_plus_p3", "path4", "star_plus_isolated"])
def test_classify_computes_components_once(monkeypatch, g, cls, passes):
    # the biregular and max-clique-component tests share one component pass
    import sdegraph.graph as graph_module
    calls = []

    def counted(graph):
        calls.append(graph)
        return connected_components(graph)

    monkeypatch.setattr(graph_module, "connected_components", counted)
    assert isinstance(graph_module.classify(g), cls)
    assert len(calls) == passes


def test_classify_weighted_biregular_scales():
    g = generate("kbip:2:3").scaled(2.5)
    assert classify(g) == Biregular(r1=7.5, r2=5.0)


def test_classify_isolated_node_breaks_biregularity():
    # star plus isolated node: three degree values, never biregular
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    assert isinstance(classify(g), Generic)


def test_classify_disconnected_biregular_same_pair():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    assert classify(g) == Biregular(r1=2, r2=1)


def test_classify_disconnected_mismatched_pairs_generic():
    # K_2 forces the pair {1, 1}; the star forces {3, 1}
    g = Graph.from_edges(6, [(0, 1), (2, 3), (2, 4), (2, 5)])
    assert isinstance(classify(g), Generic)


def test_classify_dmax_regular_non_clique_component_is_generic():
    # C_4 + P_3: lambda1 = d_max = 2 yet no clique component
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)]
    g = Graph.from_edges(7, edges)
    assert isinstance(classify(g), Generic)


def test_classify_priority_regular_first():
    assert isinstance(classify(generate("complete:4")), Regular)


def test_connected_components_partition():
    comps = connected_components(k4_plus_p3())
    assert sorted(len(c) for c in comps) == [3, 4]
    union = set().union(*comps)
    assert union == set(range(7))


def test_connected_components_single():
    comps = connected_components(generate("path:5"))
    assert len(comps) == 1 and comps[0] == set(range(5))


def test_connected_components_edgeless():
    comps = connected_components(Graph.empty(3))
    assert sorted(map(sorted, comps)) == [[0], [1], [2]]


def test_dpr_rewire_path():
    g = generate("path:4")
    h = dpr_rewire(g, (0, 1), (2, 3), orientation=0)
    assert sorted(h.degrees().tolist()) == sorted(g.degrees().tolist())
    assert h.weights[0, 2] == 1 and h.weights[1, 3] == 1
    assert h.weights[0, 1] == 0 and h.weights[2, 3] == 0


def test_dpr_rewire_complete_graph_conflict():
    # K_4: every alternative link already exists
    g = generate("complete:4")
    with pytest.raises(RewireConflict):
        dpr_rewire(g, (0, 1), (2, 3))


def test_dpr_rewire_cycle_single_feasible_orientation():
    # C_4 on 0-1-2-3: disjoint links are opposite edges; the (0,3),(1,2)
    # alternative is blocked but the diagonal one (0,2),(1,3) is free
    g = cycle_graph(4)
    h = dpr_rewire(g, (0, 1), (2, 3))
    assert h.weights[0, 2] == 1 and h.weights[1, 3] == 1
    assert sorted(h.degrees().tolist()) == [2, 2, 2, 2]
    with pytest.raises(RewireConflict):
        dpr_rewire(g, (0, 1), (2, 3), orientation=1)


def test_dpr_rewire_requires_distinct_nodes():
    g = generate("star:5")
    with pytest.raises(InvalidGraph):
        dpr_rewire(g, (0, 1), (0, 2))


def test_dpr_rewire_requires_existing_links():
    g = generate("path:4")
    with pytest.raises(InvalidGraph):
        dpr_rewire(g, (0, 2), (1, 3))


def test_dpr_rewire_weighted_rejected():
    g = Graph.from_edges(4, [(0, 1, 2.0), (2, 3, 1.0)])
    with pytest.raises(InvalidGraph):
        dpr_rewire(g, (0, 1), (2, 3))


def test_dpr_rewire_preserves_degrees_randomized(rng):
    for _ in range(50):
        g = random_er(rng, 10, 0.4)
        links = g.links()
        if len(links) < 2:
            continue
        idx = rng.choice(len(links), size=2, replace=False)
        (a, b), (c, d) = links[idx[0]], links[idx[1]]
        if len({a, b, c, d}) != 4:
            continue
        before = sorted(g.degrees().tolist())
        try:
            h = dpr_rewire(g, (a, b), (c, d), rng=rng)
        except RewireConflict:
            continue
        h.validate()
        assert sorted(h.degrees().tolist()) == before


def test_add_link():
    g = Graph.empty(2)
    h = add_link(g, 0, 1)
    assert h.weights[0, 1] == 1 and h.weights[1, 0] == 1
    with pytest.raises(LinkExists):
        add_link(h, 0, 1)
    with pytest.raises(SelfLoop):
        add_link(h, 1, 1)


def test_add_link_path_to_triangle():
    g = generate("path:3")
    h = add_link(g, 0, 2)
    assert h.num_links() == 3
    assert isinstance(classify(h), Regular)


def test_graph_validate_rejections():
    with pytest.raises(InvalidGraph):
        Graph(np.array([[0.0, 1.0], [0.5, 0.0]])).validate()  # asymmetric
    with pytest.raises(InvalidGraph):
        Graph(np.array([[1.0]])).validate()  # self-loop
    with pytest.raises(InvalidGraph):
        Graph(np.array([[0.0, -1.0], [-1.0, 0.0]])).validate()
    with pytest.raises(SelfLoop):
        Graph.from_edges(2, [(0, 0)])


def test_mutations_keep_invariants(rng):
    g = random_er(rng, 8, 0.5)
    g.validate()
    links = g.links()
    h = add_link(g, *next((i, j) for i in range(8) for j in range(i + 1, 8)
                          if g.weights[i, j] == 0))
    h.validate()
    assert np.array_equal(h.weights, h.weights.T)
    assert np.all(np.diag(h.weights) == 0)


def test_link_count_and_integrality_match_dense_formulas(rng):
    # num_links and has_integral_weights avoid n x n temporaries; they must
    # equal the triu / round formulas on unweighted, integer and real weights
    for _ in range(60):
        n = int(rng.integers(1, 30))
        w = np.triu(random_er(rng, n, float(rng.uniform(0.0, 0.7))).weights, 1)
        kind = rng.integers(3)
        if kind == 1:
            w = w * rng.integers(1, 5, size=(n, n))
        elif kind == 2:
            w = w * rng.uniform(0.1, 3.0, size=(n, n))
        g = Graph(w + w.T)
        g.validate()
        assert g.num_links() == int(np.count_nonzero(np.triu(g.weights, 1)))
        assert g.has_integral_weights() == bool(
            np.all(g.weights == np.round(g.weights)))
