import functools
import math
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_N7, FIXTURE_N8, cycle_graph, k4_plus_p3, random_er
from sdegraph import (Graph, add_link, classify, degree_sequence, generate,
                      parse_graph6, parse_weighted_edge_list, path_q_exact,
                      read_graph6_file, sde)
from sdegraph.errors import DegreeOverflow, InvalidGraph, LinkExists, SelfLoop, TooLargeForDense
from sdegraph.families import FamilySpec, analytic_lambda1, sample
from sdegraph.graph import (DENSE_CAP, SIZE_CAP, Biregular, Generic, MaxCliqueComponent, Regular,
                            connected_components)
from sdegraph.io import encode_graph6, load_edge_list
from sdegraph.metrics import metric_suite

TOL_DEG = 1e-9


def _two_color(adj, nodes):
    """Two-colouring of one connected component, or None on an odd cycle."""
    color = {nodes[0]: 0}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for v in np.nonzero(adj[u])[0].tolist():
            if v not in color:
                color[v] = 1 - color[u]
                stack.append(v)
            elif color[v] == color[u]:
                return None
    return [u for u in nodes if color[u] == 0], [u for u in nodes if color[u] == 1]


def partition(g):
    """The components of ``g`` as node sets, ordered by their smallest
    node, read off the labels of ``connected_components``."""
    labels = connected_components(g)
    return [set(np.flatnonzero(labels == root).tolist()) for root in np.unique(labels)]


def _reference_biregular_pair(g, comps, degs, tol):
    adj = g.weights > 0
    pair = None
    for comp in comps:
        nodes = sorted(comp)
        if len(nodes) < 2:
            return None  # an isolated node never pairs with a positive degree
        coloring = _two_color(adj, nodes)
        if coloring is None:
            return None
        part_degrees = []
        for part in coloring:
            d = degs[part]
            if d.max() - d.min() > tol:
                return None
            part_degrees.append(float(d[0]))
        a, b = sorted(part_degrees, reverse=True)
        if a - b <= tol:
            return None  # both parts equal: regular
        if pair is None:
            pair = (a, b)
        elif abs(pair[0] - a) > tol or abs(pair[1] - b) > tol:
            return None
    return pair


def _reference_max_clique(g, comps, degs, tol):
    if len(comps) < 2:
        return None
    for comp in comps:
        nodes = sorted(comp)
        if len(nodes) < 2:
            continue
        sub = g.weights[np.ix_(nodes, nodes)]
        complete = bool(np.all((sub > 0) | np.eye(len(nodes), dtype=bool)))
        if complete and np.all(np.abs(degs[nodes] - degs.max()) <= tol):
            return tuple(nodes)
    return None


def reference_classify(g, tol_deg=TOL_DEG):
    """The two-colouring classifier that ``classify`` replaced, kept as its
    oracle: every component is two-coloured by a depth-first search and
    must have two constant, distinct part degrees, each part represented by
    its lowest-numbered node, within tol of the first component's pair."""
    degs = g.degrees()
    d_max = float(degs.max())
    tol = tol_deg * d_max
    if d_max - degs.min() <= tol:
        return Regular(degree=d_max)
    comps = partition(g)
    pair = _reference_biregular_pair(g, comps, degs, tol)
    if pair is not None:
        return Biregular(r1=pair[0], r2=pair[1])
    clique = _reference_max_clique(g, comps, degs, tol)
    if clique is not None:
        return MaxCliqueComponent(clique=clique)
    return Generic()


def same_class(got, want, g):
    """Same class and clique tuple; r1/r2 equal when ``g`` has integral
    weights and within the classifier's tol otherwise."""
    if type(got) is not type(want):
        return False
    if not isinstance(want, Biregular) or np.all(g.weights == np.round(g.weights)):
        return got == want
    tol = TOL_DEG * float(g.degrees().max())
    return abs(got.r1 - want.r1) <= tol and abs(got.r2 - want.r2) <= tol


def relabel(g, order):
    """``g`` with node order[i] renumbered as i."""
    return Graph.from_dense(g.weights[np.ix_(order, order)])


def test_degree_sequence_star():
    g = generate("star:5")
    ds = degree_sequence(g.degrees())
    assert ds.values.tolist() == [4, 1] and ds.counts.tolist() == [1, 4]
    assert ds.n == 5
    assert ds.c == 1
    assert ds.d2 == 1
    assert ds.d_max == 4 and ds.d_min == 1


def test_degree_sequence_complete():
    ds = degree_sequence(generate("complete:4").degrees())
    assert ds.values.tolist() == [3] and ds.counts.tolist() == [4]
    assert ds.c == 4
    assert np.isnan(ds.d2)


def test_degree_sequence_weighted_triangle():
    # row sums by hand: node0 = 2+1, node1 = 2+1, node2 = 1+1
    g = Graph.from_edges(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)])
    ds = degree_sequence(g.degrees())
    assert ds.values.tolist() == [3, 2] and ds.counts.tolist() == [2, 1]
    assert ds.c == 2
    assert ds.d2 == 2


def _assert_same_histogram(a, b):
    """Two DegreeSequences with the same values, counts, dtypes, c, node count
    and Python lists (floats and ints, as the arrays' own ``tolist``)."""
    assert a.values.dtype == b.values.dtype and a.counts.dtype == b.counts.dtype
    assert a.values.tolist() == b.values.tolist() and a.counts.tolist() == b.counts.tolist()
    assert a.c == b.c and a.n == b.n == sum(b.counts.tolist())
    for ds in (a, b):
        values, counts = ds._lists
        assert values == ds.values.tolist() and counts == ds.counts.tolist()
        assert {type(v) for v in values} == {float} and {type(k) for k in counts} == {int}


def _assert_link_count_route(g):
    """An unweighted graph's link counts (the bincount route) and its float
    degrees (the sort route) give one histogram, ``g.histogram``, and its
    degrees are the bincount over its stored entries."""
    counts = g._link_counts
    assert counts.dtype.kind == "i"
    assert g.degrees().tolist() == np.bincount(g._rows, weights=g.data, minlength=g.n).tolist()
    assert g.degrees().dtype == float
    by_sort = degree_sequence(g.degrees())
    _assert_same_histogram(degree_sequence(counts), by_sort)
    _assert_same_histogram(g.histogram, by_sort)


def test_link_counts_give_the_histogram_of_every_n7_graph():
    for g in read_graph6_file(FIXTURE_N7):
        _assert_link_count_route(g)


@st.composite
def unweighted_graphs(draw):
    """An unweighted graph on 1..12 nodes, often with isolated nodes or no
    links at all, or a star on 1..30 nodes (n = 1 is a lone node)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 30))
        return Graph.from_edges(n, [(0, i) for i in range(1, n)])
    n = draw(st.integers(1, 12))
    p = draw(st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0)))
    return random_er(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n, p)


@settings(max_examples=300, deadline=None)
@given(unweighted_graphs())
def test_link_counts_give_the_histogram(g):
    _assert_link_count_route(g)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=41))
def test_integer_counts_give_the_histogram_of_their_floats(counts):
    _assert_same_histogram(degree_sequence(np.array(counts)),
                           degree_sequence(np.array(counts, dtype=float)))


def _assert_records_what_it_holds(g):
    """``g`` answers ``is_unweighted`` as a scan of its weights would, and its
    histogram is the sort route's on its float degrees."""
    assert g.is_unweighted() == bool((g.data == 1).all())
    _assert_same_histogram(g.histogram, degree_sequence(np.asarray(g.degrees(), dtype=float)))


@st.composite
def constructions(draw):
    """A graph from any route that builds one: graph6 in both size forms,
    ``from_edges`` with and without weights, ``add_link`` with w = 1 and
    w != 1 onto unit-weight and weighted parents, ``scaled``, the er and ba
    samplers, and raw arrays that ``validate`` passes."""
    route = draw(st.sampled_from(("graph6", "from_edges", "add_link", "scaled", "er", "ba",
                                  "raw")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if route in ("er", "ba"):
        n = draw(st.integers(2, 30))
        p = draw(st.sampled_from((0.0, 0.2, 0.7, 1.0)))
        return sample(FamilySpec(route, (n, p if route == "er" else draw(st.integers(1, n - 1)),
                                         None)), rng)
    # a graph6 string of 63 nodes or more takes the four-byte size form
    n = draw(st.sampled_from((1, 2, 3, 5, 8, 12, 62, 63, 70)))
    upper = np.triu(rng.random((n, n)) < draw(st.sampled_from((0.0, 0.1, 0.5, 1.0))), 1)
    weighted = draw(st.booleans())
    if weighted:  # some weights 1, so that only the scan can tell
        upper = upper * rng.choice((1.0, 1.0, 2.5, 0.25), size=(n, n))
    w = upper + upper.T
    links = [(int(i), int(j), float(w[i, j])) for i, j in zip(*np.nonzero(np.triu(w, 1)))]
    if route == "graph6":
        u = (w > 0).astype(float)
        return parse_graph6(_reference_graph6(u) if n <= 62 else encode_graph6(Graph.from_dense(u)))
    if route == "from_edges":
        return Graph.from_edges(n, links if weighted else [(i, j) for i, j, _ in links])
    # a unit-weight parent from _from_links without weights, else a weighted one
    g = Graph.from_dense(w) if weighted else Graph._from_links(n, *np.nonzero(np.triu(w, 1)))
    if route == "scaled":
        return g.scaled(draw(st.sampled_from((1.0, 2.0, 0.5))))
    if route == "raw":
        raw = Graph(g.n, g.indptr.copy(), g.indices.copy(), g.data.copy())
        raw.validate()
        return raw
    absent = [(i, j) for i in range(n) for j in range(i + 1, n) if w[i, j] == 0]
    if not absent:
        return g
    i, j = absent[int(rng.integers(len(absent)))]
    return add_link(g, i, j, draw(st.sampled_from((1.0, 1, True, np.float64(1), 2.0, 0.5))))


@settings(max_examples=300, deadline=None)
@given(constructions())
def test_every_constructor_records_what_its_graph_holds(g):
    _assert_records_what_it_holds(g)


def test_unit_weight_builds_are_never_scanned(monkeypatch):
    # graph6 in both size forms, the family builders, the er/ba samplers and
    # unit links added to them record unit weights: no check, query or metric
    # scans their data
    def scan(g):
        raise AssertionError("data scanned")

    unscanned = functools.cached_property(scan)
    unscanned.__set_name__(Graph, "_unweighted")
    monkeypatch.setattr(Graph, "_unweighted", unscanned)
    rng = np.random.default_rng(5)
    graphs = [parse_graph6("Dhc"), parse_graph6(encode_graph6(generate("star:100"))),
              generate("path:9"), generate("kbip:2:3"), generate("lollipop:4"),
              sample(FamilySpec("er", (9, 0.5, None)), rng),
              sample(FamilySpec("ba", (9, 2, None)), rng)]
    graphs.append(add_link(add_link(graphs[2], 0, 8), 1, 7, 1))
    for g in graphs:
        assert g.is_unweighted()
        classify(g)
        sde(g)
        if not connected_components(g).any():
            metric_suite(g)
    with pytest.raises(AssertionError, match="data scanned"):  # a raw build is scanned
        Graph(2, np.array([0, 1, 2]), np.array([1, 0]), np.ones(2)).is_unweighted()
    with pytest.raises(AssertionError, match="data scanned"):  # so is a weight != 1
        add_link(graphs[2], 0, 8, 2.0)


def test_a_star_of_a_million_leaves_records_its_histogram():
    # two distinct degrees, d_max = 10**6: the histogram's lists hold two entries
    g = generate(f"star:{10 ** 6 + 1}")
    _assert_records_what_it_holds(g)
    assert g.histogram._lists == ([1e6, 1.0], [1, 10 ** 6])


@pytest.mark.parametrize("counts", [[-1, 2, 2], [3, -5, 0, 0], [2 ** 40, 1, 1],
                                    [2 ** 62, 3, 0, 3], [-(2 ** 63), 1]])
def test_integers_outside_the_counts_are_sorted(monkeypatch, counts):
    # a negative count or one of len or more is not a link count: bincount
    # would raise or allocate up to the largest, so the sort route takes them
    monkeypatch.setattr(np, "bincount", lambda *a, **k: pytest.fail("bincount called"))
    _assert_same_histogram(degree_sequence(np.array(counts)),
                           degree_sequence(np.array(counts, dtype=float)))


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
    (generate("kbip:2:3"), Biregular, 0),
    (k4_plus_p3(), MaxCliqueComponent, 1),
    (generate("path:4"), Generic, 0),
    (Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]), Generic, 0),
    (Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)]), Generic, 1),
], ids=["cycle6", "kbip2_3", "k4_plus_p3", "path4", "star_plus_isolated", "c4_plus_p3"])
def test_classify_computes_components_once(monkeypatch, g, cls, passes):
    # biregularity is decided from the degrees and links; only the
    # max-clique-component test needs the components, computes them at most
    # once, and only when a high node has only high neighbours with its own
    # link count (the path's and the star's high nodes have low neighbours)
    import sdegraph.graph as graph_module
    calls = []
    labels = graph_module._component_labels

    def counted(n, rows, cols):
        calls.append(n)
        return labels(n, rows, cols)

    monkeypatch.setattr(graph_module, "_component_labels", counted)
    assert isinstance(graph_module.classify(g), cls)
    assert len(calls) == passes


def test_classify_clique_test_needs_every_link_inside():
    # on the path 0-1-2-3-4-5 (d_max = 2) only nodes 2 and 3 pass the
    # necessary condition, and their one candidate link makes a component
    # whose nodes have |C| - 1 = 1 link inside it, yet each has a second link
    # to a non-candidate: not a clique component
    g = generate("path:6")
    assert isinstance(classify(g), Generic)
    assert isinstance(reference_classify(g), Generic)
    # the same with a true clique component beside it: K3 is found
    w = np.zeros((9, 9))
    w[:6, :6] = g.weights
    w[6:, 6:] = 1 - np.eye(3)
    assert classify(Graph.from_dense(w)) == MaxCliqueComponent(clique=(6, 7, 8))


def test_classify_weighted_biregular_scales():
    g = generate("kbip:2:3").scaled(2.5)
    assert classify(g) == Biregular(r1=7.5, r2=5.0)


def test_classify_isolated_node_breaks_biregularity():
    # star plus isolated node: three degree values, never biregular
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    assert isinstance(classify(g), Generic)
    # links lighter than tol: the leaves' degrees lie within tol of the
    # isolated node's 0, and every link joins the two degree classes
    tiny = Graph.from_edges(6, [(0, k, 0.9e-9) for k in range(1, 5)])
    assert isinstance(classify(tiny), Generic)
    assert isinstance(reference_classify(tiny), Generic)


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


@pytest.mark.parametrize("a", [0.005, 0.05, 5.0])
def test_classify_tolerance_scales_with_the_weights(a):
    # a triangle with link weights a, a, a(1 + 1e-7): its degrees 2a and
    # 2a + 1e-7 a are 5e-8 apart relative to d_max, beyond TOL_DEG at every
    # scale, so the triangle is not regular at any a
    g = Graph.from_edges(3, [(0, 1, a), (0, 2, a), (1, 2, a * (1 + 1e-7))])
    assert isinstance(classify(g), Generic)
    assert isinstance(reference_classify(g), Generic)


def test_classify_priority_regular_first():
    assert isinstance(classify(generate("complete:4")), Regular)


@pytest.mark.parametrize("path", [FIXTURE_N7, FIXTURE_N8], ids=["n7", "n8"])
def test_classify_matches_reference_on_fixtures(path):
    for g in read_graph6_file(path):
        assert same_class(classify(g), reference_classify(g), g)


def _union(graphs):
    n = sum(h.n for h in graphs)
    w = np.zeros((n, n))
    start = 0
    for h in graphs:
        w[start:start + h.n, start:start + h.n] = h.weights
        start += h.n
    return Graph.from_dense(w)


NEAR_TIES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0)  # multiples of tol_deg


@st.composite
def components(draw):
    kind = draw(st.sampled_from(("random", "kbip", "bireg", "complete", "isolated")))
    if kind == "isolated":
        return Graph.from_edges(1, [])
    if kind == "random":
        n = draw(st.integers(2, 6))
        w = np.triu(np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                             dtype=float).reshape(n, n), 1)
        if draw(st.booleans()):
            w *= draw(st.integers(1, 3))
        g = Graph.from_dense(w + w.T)
    elif kind == "kbip":
        g = generate(f"kbip:{draw(st.integers(1, 3))}:{draw(st.integers(1, 4))}")
    elif kind == "bireg":
        g = generate(draw(st.sampled_from(("bireg:4:6:3", "bireg:2:4:2", "bireg:3:6:2"))))
    else:
        g = generate(f"complete:{draw(st.integers(2, 4))}")
    scale = draw(st.sampled_from((1.0, 1.0, 2.5, 0.3, 1000.0)))
    return g.scaled(scale * (1 + draw(st.sampled_from(NEAR_TIES)) * TOL_DEG))


@st.composite
def classify_cases(draw):
    """Unions of one to three components (weighted random graphs, scaled
    kbip/bireg/complete graphs, isolated nodes) at scales that tie within
    a few tol_deg, one link optionally perturbed by such a factor, and the
    nodes shuffled."""
    g = _union(draw(st.lists(components(), min_size=1, max_size=3)))
    links = g.links()
    if links and draw(st.booleans()):
        i, j = draw(st.sampled_from(links))
        w = g.weights.copy()
        w[i, j] = w[j, i] = w[i, j] * (1 + draw(st.sampled_from(NEAR_TIES)) * TOL_DEG)
        g = Graph.from_dense(w)
    return relabel(g, np.array(draw(st.permutations(range(g.n)))))


@settings(max_examples=400, deadline=None)
@given(classify_cases())
def test_classify_matches_reference(g):
    # The reference represents each part by its lowest-numbered node and
    # compares every component with the first, so where one degree class
    # spans more than tol its answer can depend on the node numbering;
    # classify's cannot. There the two must still agree for some
    # numbering, and classify must give the same class for every one.
    got = classify(g)
    if same_class(got, reference_classify(g), g):
        return
    orders = [np.roll(np.arange(g.n), r) for r in range(g.n)]
    orders += [np.argsort(-g.degrees(), kind="stable"), np.argsort(g.degrees(), kind="stable")]
    relabelled = [relabel(g, order) for order in orders]
    answers = [reference_classify(h) for h in relabelled]
    assert len({type(a) for a in answers}) > 1
    assert any(same_class(got, a, g) for a in answers)
    assert all(type(classify(h)) is type(got) for h in relabelled)


def test_classify_degree_classes_do_not_depend_on_numbering():
    # three K_{2,3} copies whose high degrees span 3.6 tol_deg: the degree
    # classes are not within tol of d_max and d_min, so the graph is
    # generic; the reference accepts it when the middle copy comes first
    copies = [generate("kbip:2:3").scaled(1 + k * TOL_DEG) for k in (0.0, 0.6, -0.6)]
    middle_first, top_first = _union(copies), _union(copies[1:] + copies[:1])
    assert isinstance(classify(middle_first), Generic)
    assert isinstance(classify(top_first), Generic)
    assert isinstance(reference_classify(middle_first), Biregular)
    assert isinstance(reference_classify(top_first), Generic)


def _bfs_components(g):
    """The components of ``g`` as sorted node lists, in order of their
    smallest node, by breadth-first search on the positive links."""
    adj = g.weights > 0
    seen, comps = set(), []
    for source in range(g.n):
        if source in seen:
            continue
        seen.add(source)
        comp, queue = [source], deque([source])
        while queue:
            for v in np.flatnonzero(adj[queue.popleft()]).tolist():
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def docstring_classify(g):
    """:func:`classify`'s docstring as code, on every node and every
    component: degrees within tol = TOL_DEG * d_max of d_max are high.
    Regular: d_max - d_min <= tol. Biregular: no isolated node, every degree
    within tol of d_max or of d_min, and in every component the high nodes
    are one colour class of a two-colouring. MaxCliqueComponent: the first
    component of two or more nodes, all high and all linked in pairs."""
    degs = g.degrees().tolist()
    d_max, d_min = max(degs), min(degs)
    tol = TOL_DEG * d_max
    if d_max - d_min <= tol:
        return Regular(degree=d_max)
    high = {u for u, d in enumerate(degs) if d_max - d <= tol}
    comps = _bfs_components(g)
    if d_min > 0 and all(u in high or d - d_min <= tol for u, d in enumerate(degs)):
        colourings = [_two_color(g.weights > 0, comp) for comp in comps]
        if all(parts is not None and sorted(high.intersection(comp)) in parts
               for parts, comp in zip(colourings, comps)):
            return Biregular(r1=d_max, r2=d_min)
    for comp in comps:
        if (len(comp) >= 2 and set(comp) <= high
                and all(g.weights[u, v] > 0 for u in comp for v in comp if u != v)):
            return MaxCliqueComponent(clique=tuple(comp))
    return Generic()


# multiples of TOL_DEG: ties within the tolerance and just outside it
TIES = (0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 1.5, -1.5)


@st.composite
def tied_parts(draw):
    """One component or isolated node: a weighted random graph, a complete
    graph, a biregular graph, or a biregular graph with one extra link, each
    scaled by 1 + t * TOL_DEG for a t from ``TIES``."""
    kind = draw(st.sampled_from(("random", "complete", "bireg", "bireg+link", "isolated")))
    if kind == "isolated":
        return Graph.from_edges(1, [])
    if kind == "random":
        n = draw(st.integers(2, 5))
        w = np.triu(np.array(draw(st.lists(st.sampled_from((0.0, 1.0, 2.0, 3.0)),
                                           min_size=n * n, max_size=n * n))).reshape(n, n), 1)
        g = Graph.from_dense(w + w.T)
    elif kind == "complete":
        g = generate(f"complete:{draw(st.integers(2, 4))}")
    else:
        g = generate(draw(st.sampled_from(("kbip:1:3", "kbip:2:3", "kbip:2:2",
                                           "bireg:4:6:3", "bireg:2:4:2"))))
        if kind == "bireg+link":
            absent = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                      if g.weights[i, j] == 0]
            g = add_link(g, *draw(st.sampled_from(absent)))
    scale = draw(st.sampled_from((1.0, 2.0, 0.25)))
    return g.scaled(scale * (1 + draw(st.sampled_from(TIES)) * TOL_DEG))


@settings(max_examples=400, deadline=None)
@given(st.lists(tied_parts(), min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_classify_matches_its_docstring(parts, random):
    # classify reads the degree classes off the histogram and scans the
    # links only where a biregular graph or a max-clique component is still
    # possible; the reference scans every node and every component
    g = _union(parts)
    order = list(range(g.n))
    random.shuffle(order)
    g = relabel(g, np.array(order))
    assert classify(g) == docstring_classify(g)


def test_connected_components_partition():
    # every label is the smallest node of its component
    assert connected_components(k4_plus_p3()).tolist() == [0, 0, 0, 0, 4, 4, 4]
    comps = partition(k4_plus_p3())
    assert sorted(len(c) for c in comps) == [3, 4]
    union = set().union(*comps)
    assert union == set(range(7))


def test_connected_components_single():
    assert connected_components(generate("path:5")).tolist() == [0] * 5
    comps = partition(generate("path:5"))
    assert len(comps) == 1 and comps[0] == set(range(5))


def test_connected_components_edgeless():
    assert connected_components(Graph.from_edges(3, [])).tolist() == [0, 1, 2]
    comps = partition(Graph.from_edges(3, []))
    assert sorted(map(sorted, comps)) == [[0], [1], [2]]


def test_add_link():
    g = Graph.from_edges(2, [])
    h = add_link(g, 0, 1)
    assert h.weights[0, 1] == 1 and h.weights[1, 0] == 1
    with pytest.raises(LinkExists):
        add_link(h, 0, 1)
    with pytest.raises(LinkExists):  # before the weight is checked
        add_link(h, 0, 1, float("nan"))
    with pytest.raises(SelfLoop):
        add_link(h, 1, 1)
    # ids outside [0, n) once wrapped around (-1) or raised IndexError, as did
    # non-integral ids, and NaN and inf weights were stored
    for i, j, w in [(-1, 2, 1.0), (0, -1, 1.0), (1, 5, 1.0), (3, 0, 1.0),
                    (0.5, 1, 1.0), (0, 1.9, 1.0), ("0", 1, 1.0),
                    (0, 1, 0.0), (0, 1, -1.0), (0, 1, float("nan")), (0, 1, float("inf"))]:
        with pytest.raises(InvalidGraph):
            add_link(Graph.from_edges(3, []), i, j, w)


def test_node_ids_must_be_integers():
    # non-integral ids were truncated to the link (0, 1), a malformed edge
    # tuple raised ValueError, and the weight "2.5" was stored as 2.5
    for edge in [(0.5, 1), (0, 1.9), (0, 1.5, 2.0), ("0", 1), (None, 1), (float("nan"), 1),
                 (0,), (0, 1, 1.0, 1.0), (0, 1, "2.5"), (0, 1, "x")]:
        with pytest.raises(InvalidGraph):
            Graph.from_edges(3, [edge])
    # integral ids and real weights keep working, numpy scalars and fractions included
    g = Graph.from_edges(3, [(np.int64(0), 1.0), (np.uint8(2), np.float64(1))])
    assert g.links() == [(0, 1), (1, 2)]
    g = Graph.from_edges(3, [(0, 1, Fraction(1, 2)), (1, 2, np.float32(2.5))])
    assert g.degrees().tolist() == [0.5, 3.0, 2.5]
    assert add_link(g, np.int32(0), 2.0).links() == [(0, 1), (0, 2), (1, 2)]


def test_add_link_and_from_edges_share_one_weight_rule():
    # add_link raised TypeError on Fraction(1, 2) and 10**400 and numpy's
    # UFuncTypeError on "x"; from_edges raised an untyped OverflowError on 10**400
    for w in ("x", "2.5", None, 1j, 10 ** 400, -(10 ** 400), Fraction(10 ** 400)):
        with pytest.raises(InvalidGraph):
            add_link(Graph.from_edges(3, []), 0, 1, w)
        with pytest.raises(InvalidGraph):
            Graph.from_edges(3, [(0, 1, w)])
    # a real weight is stored as a float64, as from_edges stores it
    for w in (Fraction(1, 2), np.float32(2.5), np.int64(3), 2, True):
        added = add_link(Graph.from_edges(3, []), 0, 1, w)
        built = Graph.from_edges(3, [(0, 1, w)])
        assert added.data.dtype == built.data.dtype == np.float64
        assert added.data.tolist() == built.data.tolist() == [float(w)] * 2


def test_validate_rejects_csr_fields_that_are_not_arrays():
    # a list field raised AttributeError: 'list' object has no attribute 'shape'
    fields = [[0, 2, 3, 4], [1, 2, 0, 0], [1e308] * 4]
    for k in range(3):
        args = [np.array(f) for f in fields]
        args[k] = fields[k]
        with pytest.raises(InvalidGraph, match="numpy arrays"):
            Graph(3, *args).validate()


def test_validate_rejects_float_index_arrays():
    # float indices passed, and sde then raised IndexError: arrays used as
    # indices must be of integer (or boolean) type
    with pytest.raises(InvalidGraph, match="integer"):
        Graph(3, np.array([0, 1, 2, 2]), np.array([1.0, 0.0]), np.array([1.0, 1.0])).validate()
    with pytest.raises(InvalidGraph, match="integer"):
        Graph(3, np.array([0.0, 1.0, 2.0, 2.0]), np.array([1, 0]), np.array([1.0, 1.0])).validate()
    # a float n passed with integer arrays, and sde raised the same IndexError
    with pytest.raises(InvalidGraph, match="integer"):
        Graph(3.0, np.array([0, 1, 2, 2]), np.array([1, 0]), np.array([1.0, 1.0])).validate()


@pytest.mark.parametrize("degrees", [[], np.array([], dtype=np.int64), [np.nan, 1.0],
                                     [np.inf, 2.0], [1.0, -np.inf]],
                         ids=["empty", "empty_int", "nan", "inf", "minus_inf"])
def test_degree_sequence_rejects_empty_and_non_finite_degrees(degrees):
    # [] raised IndexError: index 0 is out of bounds for axis 0 with size 0
    with pytest.raises(InvalidGraph):
        degree_sequence(degrees)


def test_entries_that_are_not_floats_raise_invalid_graph():
    # a list holding 10**400 becomes an object array, whose conversion to
    # float raised an untyped OverflowError: int too large to convert to float;
    # strings, non-numbers and ragged rows raised ValueError or TypeError
    for degrees in ([10**400], [3, 10**400, 1], [-(10**400), 2], ["x"], [2, {}]):
        with pytest.raises(InvalidGraph, match="float range"):
            degree_sequence(degrees)
    for weights in ([[0, 10**400], [10**400, 0]], [[0, 1, 0], [1, 0, -(10**400)], [0, 1, 0]],
                    [[0, "x"], ["x", 0]], [[0, 1], [1]], [[0, {}], [{}, 0]]):
        with pytest.raises(InvalidGraph, match="float range"):
            Graph.from_dense(weights)


def test_ragged_and_complex_entries_raise_invalid_graph():
    # a ragged list raised an untyped ValueError in degree_sequence's first
    # conversion; a complex array lost its imaginary parts: the histogram
    # [2, 0] and a unit-weight link
    for degrees in ([[1], [2, 3]], np.array([1j, 2]), [1 + 1j, 2],
                    np.array([2, 1], dtype=complex)):
        with pytest.raises(InvalidGraph, match="float range"):
            degree_sequence(degrees)
    for weights in (np.array([[0, 1 + 1j], [1 + 1j, 0]]), np.zeros((2, 2), dtype=complex)):
        with pytest.raises(InvalidGraph, match="float range"):
            Graph.from_dense(weights)
    # Python lists of integers take the float route, to the same histogram
    assert degree_sequence([3, 2, 2]).values.tolist() == [3.0, 2.0]
    assert degree_sequence([[3], [2]]).counts.tolist() == [1, 1]


def test_one_integer_rule_for_ids_and_counts():
    # a node count or id is an integral real in its range; the count has no
    # upper bound here, the size rule refuses 10**400
    for n in (math.nan, math.inf, 1.5, 0, -1, "3", None, 3 + 0j):
        with pytest.raises(InvalidGraph, match="node counts must be integers in"):
            Graph.from_edges(n, [])
    with pytest.raises(InvalidGraph, match="at most"):
        Graph.from_edges(10**400, [])
    assert Graph.from_edges(np.float64(3.0), [(Fraction(2), np.int8(1))]).links() == [(1, 2)]
    for i in (math.nan, math.inf, 1.5, 3, -1, 10**400, "0"):
        with pytest.raises(InvalidGraph, match=r"node ids must be integers in \[0, 3\)"):
            add_link(Graph.from_edges(3, []), i, 1)


def test_unit_weights_pass_the_check_and_bad_weights_beside_them_do_not():
    # the path 0 - 1 - 2 as raw CSR arrays: link (0, 1) of weight 1, link (1, 2)
    # of weight w; every weight is 1 only when w is
    def path(w):
        return Graph(3, np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]),
                     np.array([1.0, 1.0, w, w]))

    g = path(1.0)
    g.validate()
    assert g.is_unweighted() and g.degrees().tolist() == [1.0, 2.0, 1.0]
    for w in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324):
        with pytest.raises(InvalidGraph, match="positive and finite"):
            path(w).validate()
        with pytest.raises(InvalidGraph, match="positive and finite"):
            add_link(Graph.from_edges(3, [(0, 1)]), 1, 2, w)
        if w != 0:  # from_edges adds no link for a zero weight
            with pytest.raises(InvalidGraph, match="positive and finite"):
                Graph.from_edges(3, [(0, 1), (1, 2, w)])
    g = add_link(Graph.from_edges(4, [(0, 1), (1, 2)]), 0, 2, 1e308)
    with pytest.raises(DegreeOverflow, match="node 0 "):
        add_link(g, 0, 3, 1e308)
    with pytest.raises(DegreeOverflow, match="node 0 "):
        Graph.from_edges(4, [(0, 1), (0, 2, 1e308), (0, 3, 1e308)])


def test_from_edges_rejects_a_non_integral_node_count():
    # n = 2.5 once built a graph with float indices
    for n in (2.5, math.nan, math.inf, 0.0):
        with pytest.raises(InvalidGraph):
            Graph.from_edges(n, [(0, 1)])
    assert Graph.from_edges(3.0, [(0, 1)]).indices.dtype == np.int64


def test_scaled_rejects_bad_factors_and_overflow():
    # a NaN factor once reached sde as an untyped LinAlgError, 1e308 gave
    # infinite degrees that sde classified as regular (q = NaN), and a weight
    # that underflowed to 0 was stored, so sde answered q = inf
    g = generate("path:6")
    for s in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(InvalidGraph):
            g.scaled(s)
    with pytest.raises(InvalidGraph):
        Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 1.0)]).scaled(5e-324)
    with pytest.raises(DegreeOverflow, match="node 1 "):
        g.scaled(1e308)
    assert np.isfinite(g.scaled(8e307).degrees()).all()


def test_add_link_keeps_every_degree_finite():
    # two links of weight 1e308 at node 0 once gave it the degree inf, which
    # sde() then classified as regular (q = NaN); add_link now raises as
    # Graph.from_edges does on the same links, naming the same node
    with pytest.raises(DegreeOverflow) as added:
        add_link(add_link(Graph.from_edges(3, []), 0, 1, 1e308), 0, 2, 1e308)
    with pytest.raises(DegreeOverflow) as built:
        Graph.from_edges(3, [(0, 1, 1e308), (0, 2, 1e308)])
    assert "node 0 " in str(added.value)
    assert str(added.value) == str(built.value)
    # the larger end overflows; both ends overflow: the smaller is named
    with pytest.raises(DegreeOverflow, match="node 2 "):
        add_link(add_link(Graph.from_edges(3, []), 1, 2, 1e308), 0, 2, 1e308)
    both = Graph.from_edges(4, [(0, 2, 1e308), (1, 3, 1e308)])
    with pytest.raises(DegreeOverflow) as added:
        add_link(both, 1, 0, 1e308)
    with pytest.raises(DegreeOverflow) as built:
        Graph.from_edges(4, [(0, 2, 1e308), (1, 3, 1e308), (1, 0, 1e308)])
    assert "node 0 " in str(added.value) and str(added.value) == str(built.value)
    # a degree just inside the float64 range stays
    g = add_link(add_link(Graph.from_edges(3, []), 0, 1, 8e307), 0, 2, 8e307)
    assert math.isfinite(g.degrees()[0])


def test_add_link_path_to_triangle():
    g = generate("path:3")
    h = add_link(g, 0, 2)
    assert h.num_links() == 3
    assert isinstance(classify(h), Regular)


def _raw_csr(w):
    """The nonzero entries of ``w`` as CSR arrays, unchecked."""
    n = w.shape[0]
    keys = np.flatnonzero(w)
    return Graph(n, np.searchsorted(keys, np.arange(0, n * n + 1, n)), keys % n, w.ravel()[keys])


def test_graph_validate_rejections():
    with pytest.raises(InvalidGraph):
        _raw_csr(np.array([[0.0, 1.0], [0.5, 0.0]])).validate()  # asymmetric
    with pytest.raises(InvalidGraph):
        _raw_csr(np.array([[1.0]])).validate()  # self-loop
    with pytest.raises(InvalidGraph):
        _raw_csr(np.array([[0.0, -1.0], [-1.0, 0.0]])).validate()
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
    # num_links avoids n x n temporaries; it must equal the triu formula on
    # unweighted, integer and real weights, and integral degrees must keep
    # exact max-degree ties
    for _ in range(60):
        n = int(rng.integers(1, 30))
        w = np.triu(random_er(rng, n, float(rng.uniform(0.0, 0.7))).weights, 1)
        kind = rng.integers(3)
        if kind == 1:
            w = w * rng.integers(1, 5, size=(n, n))
        elif kind == 2:
            w = w * rng.uniform(0.1, 3.0, size=(n, n))
        g = Graph.from_dense(w + w.T)
        g.validate()
        assert g.num_links() == int(np.count_nonzero(np.triu(g.weights, 1)))
        degs = g.degrees()
        if kind < 2:
            assert degree_sequence(degs).c == int(np.sum(degs == degs.max()))


# CSR storage: every construction path against a dense reference


def _assert_matches_dense(g, w):
    """``g`` is valid CSR whose rows are the nonzero entries of ``w``."""
    g.validate()
    n = w.shape[0]
    rows, cols = np.nonzero(w)
    assert g.n == n
    assert g.indptr.tolist() == np.searchsorted(rows, np.arange(n + 1)).tolist()
    assert g.indices.tolist() == cols.tolist()
    assert g.data.tolist() == w[rows, cols].tolist()
    assert np.array_equal(g.weights, w)
    assert np.allclose(g.degrees(), w.sum(axis=1), rtol=1e-14, atol=0)
    assert g.num_links() == int(np.count_nonzero(np.triu(w, 1)))


def _reference_graph6(w):
    """graph6 of a small unweighted matrix, written bit by bit from the
    format: size byte, then the upper triangle column by column."""
    n = w.shape[0]
    bits = [int(w[i, j] > 0) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return bytes([63 + n] + body).decode("ascii")


@st.composite
def dense_graphs(draw):
    """A symmetric zero-diagonal weight matrix on 1..12 nodes, unweighted or
    with integer or real weights."""
    n = draw(st.integers(1, 12))
    p = draw(st.sampled_from((0.0, 0.2, 0.5, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < p, 1).astype(float)
    kind = draw(st.sampled_from(("unweighted", "integer", "real")))
    if kind == "integer":
        upper *= rng.integers(1, 5, size=(n, n))
    elif kind == "real":
        upper *= rng.uniform(0.01, 10.0, size=(n, n))
    return upper + upper.T, rng


@settings(max_examples=200, deadline=None)
@given(dense_graphs())
def test_every_construction_path_matches_dense_reference(case):
    w, rng = case
    n = w.shape[0]
    _assert_matches_dense(Graph.from_dense(w), w)
    iu, ju = np.nonzero(np.triu(w, 1))
    links = [(int(i), int(j), float(w[i, j])) for i, j in zip(iu, ju)]
    # any order and orientation
    shuffled = [links[k] for k in rng.permutation(len(links))]
    shuffled = [(j, i, x) if rng.random() < 0.5 else (i, j, x) for i, j, x in shuffled]
    _assert_matches_dense(Graph.from_edges(n, shuffled), w)
    text = f"n={n}\n" + "".join(f"{i} {j} {x!r}\n" for i, j, x in shuffled)
    _assert_matches_dense(parse_weighted_edge_list(text), w)
    unweighted = (w > 0).astype(float)
    _assert_matches_dense(parse_graph6(_reference_graph6(unweighted)), unweighted)
    assert encode_graph6(Graph.from_dense(unweighted)) == _reference_graph6(unweighted)
    g = Graph.from_dense(w)
    absent = [(i, j) for i in range(n) for j in range(i + 1, n) if w[i, j] == 0]
    if absent:
        i, j = absent[int(rng.integers(len(absent)))]
        x = float(rng.uniform(0.5, 2.0))
        expected = w.copy()
        expected[i, j] = expected[j, i] = x
        _assert_matches_dense(add_link(g, j, i, x) if rng.random() < 0.5
                              else add_link(g, i, j, x), expected)
    if n >= 3:
        # node a's two links of 1e308 make its degree overflow: every
        # construction path raises DegreeOverflow with one message
        a, b, c = (int(x) for x in rng.permutation(n)[:3])
        big = w.copy()
        big[a, b] = big[b, a] = big[a, c] = big[c, a] = 1e308
        iu, ju = np.nonzero(np.triu(big, 1))
        big_links = [(int(i), int(j), float(big[i, j])) for i, j in zip(iu, ju)]
        big_text = f"n={n}\n" + "".join(f"{i} {j} {x!r}\n" for i, j, x in big_links)
        without_ac = big.copy()
        without_ac[a, c] = without_ac[c, a] = 0.0
        builds = [lambda: Graph.from_dense(big), lambda: Graph.from_edges(n, big_links),
                  lambda: parse_weighted_edge_list(big_text),
                  lambda: add_link(Graph.from_dense(without_ac), c, a, 1e308),
                  lambda: Graph.from_dense(big / 4).scaled(4.0),
                  lambda: _raw_csr(big).validate()]
        messages = set()
        for build in builds:
            with pytest.raises(DegreeOverflow) as raised:
                build()
            messages.add(str(raised.value))
        assert messages == {f"the weighted degree of node {a} overflows float64 "
                            "(its link weights sum past 1.8e308)"}


@settings(max_examples=100, deadline=None)
@given(dense_graphs(), st.sampled_from(("asymmetric", "diagonal", "negative", "nan", "inf")))
def test_validate_rejects_invalid_matrices(case, fault):
    w, rng = case
    n = w.shape[0]
    w = w.copy()
    i, j = (int(x) for x in rng.integers(n, size=2))
    if fault == "diagonal" or n == 1:
        w[i, i] = 1.0
    elif fault == "asymmetric":
        j = (i + 1 + j % (n - 1)) % n  # j != i
        w[i, j] += 0.5
    else:
        w[i, j] = w[j, i] = {"negative": -1.0, "nan": np.nan, "inf": np.inf}[fault]
    with pytest.raises(InvalidGraph):
        Graph.from_dense(w)
    with pytest.raises(InvalidGraph):
        _raw_csr(w).validate()


def test_dense_view_is_capped():
    g = generate(f"path:{DENSE_CAP + 1}")
    with pytest.raises(TooLargeForDense):
        g.weights
    assert g.num_links() == DENSE_CAP and g.degrees().sum() == 2 * DENSE_CAP


@pytest.mark.parametrize("build", [
    lambda: Graph.from_edges(10**12, [(0, 1)]),
    lambda: Graph.from_edges(SIZE_CAP + 1, []),
    lambda: Graph.from_edges(10**20, [(0, 10**19)]),  # an id past int64
    lambda: Graph.from_edges(10**400, []),
], ids=["n=1e12", "one_past_the_cap", "id_past_int64", "n_past_float"])
def test_size_rule_refuses_before_allocating(build):
    # n = 1e12 once built its row offsets as an object array (n * n passes
    # int64) and ran out of memory; an id past int64 raised OverflowError
    with pytest.raises(InvalidGraph, match="at most"):
        build()


def test_path_edge_list_memory(tmp_path):
    # 2e5 nodes: a dense copy would take 320 GB; the CSR pipeline from file
    # to q stays within 100 MB of traced allocations
    n = 200_000
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    tracemalloc.start()
    try:
        result = sde(load_edge_list(path), lambda1=analytic_lambda1(f"path:{n}"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20, peak
    assert abs(result.q - path_q_exact(n)) <= 1e-7 * result.q
