import json
import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, random_er
from sdegraph import Graph, generate, spectral_radius
from sdegraph.errors import NoConvergence, TooLargeForDense
from sdegraph.families import ba_graph
from sdegraph.spectral import full_spectrum
from sdegraph import inertia, spectral
from sdegraph.cli import main
from sdegraph.graph import DENSE_CAP
from sdegraph.spectral import (DENSE_LAMBDA1_CAP, LANCZOS_BASIS, LANCZOS_KEEP,
                               TOL_LAMBDA1)


def ladder(n: int) -> Graph:
    """The 2 x n grid: no degree-1 node, so above the dense cap it takes
    Lanczos, and lambda1 = 1 + 2 cos(pi/(n+1)) has a gap of about
    3 pi^2/n^2, which makes Lanczos restart."""
    rails = [(a, a + 1) for a in range(n - 1)] + [(n + a, n + a + 1) for a in range(n - 1)]
    return Graph.from_edges(2 * n, rails + [(a, n + a) for a in range(n)])


def test_path5_radius():
    # closed form for the path: 2 cos(pi/(N+1))
    lam = spectral_radius(generate("path:5"))
    assert abs(lam - math.sqrt(3)) < 1e-10


def test_wheel7_radius():
    lam = spectral_radius(generate("wheel:7"))
    assert abs(lam - (1 + math.sqrt(7))) < 1e-10


def test_complete_bipartite_radius():
    lam = spectral_radius(generate("kbip:2:3"))
    assert abs(lam - math.sqrt(6)) < 1e-10


def test_fork_radius_exactly_two():
    # the double-fork family has spectral radius exactly 2 for every N
    for n in (5, 9):
        lam = spectral_radius(generate(f"fork:{n}"))
        assert abs(lam - 2.0) < 1e-9


def test_sparse_operator_matches_dense():
    # above the dense / Lanczos crossover: Lanczos on the stored CSR against
    # dense eigvalsh on the dense view of the same graph
    assert 40 <= DENSE_LAMBDA1_CAP < 400
    g = ladder(200)
    assert g.n > DENSE_LAMBDA1_CAP
    assert abs(spectral_radius(g) - np.linalg.eigvalsh(g.weights)[-1]) < 1e-11


def test_full_spectrum_k2():
    adjacency, laplacian = full_spectrum(generate("complete:2"))
    assert np.allclose(adjacency, [1, -1])
    assert np.allclose(laplacian, [2, 0])


def test_full_spectrum_k4():
    adjacency, _ = full_spectrum(generate("complete:4"))
    assert np.allclose(adjacency, [3, -1, -1, -1])


def test_full_spectrum_c4():
    # circulant eigenvalues 2 cos(2 pi k / 4)
    adjacency, _ = full_spectrum(cycle_graph(4))
    assert np.allclose(adjacency, [2, 0, 0, -2], atol=1e-10)


def test_full_spectrum_dense_cap():
    with pytest.raises(TooLargeForDense):
        full_spectrum(generate(f"path:{DENSE_CAP + 1}"))


def test_spectrum_invariants(rng):
    for _ in range(25):
        n = int(rng.integers(2, 40))
        g = random_er(rng, n, 0.4)
        adjacency, laplacian = full_spectrum(g)
        d_max = g.degrees().max()
        assert abs(adjacency.sum()) <= 1e-8 * max(1, n * d_max)  # zero trace
        assert np.all(laplacian >= 0)
        assert adjacency[0] <= d_max * (1 + 1e-10) + 1e-12


def test_lanczos_agrees_with_dense(rng):
    # n above the crossover: ER, BA, complete bipartite (spectrum symmetric
    # about 0), disconnected, wheel and star (a Krylov space of dimension 2
    # from the ones vector), two equal components (lambda1 repeated) and
    # weighted graphs against the dense full spectrum
    graphs = []
    for _ in range(12):
        n = int(rng.integers(DENSE_LAMBDA1_CAP + 1, 2 * DENSE_LAMBDA1_CAP))
        graphs.append(random_er(rng, n, float(rng.uniform(0.01, 0.3))))
        graphs.append(ba_graph(n, int(rng.integers(1, 5)), rng))
    graphs.append(generate(f"kbip:{DENSE_LAMBDA1_CAP}:{DENSE_LAMBDA1_CAP // 2}"))
    er, ba = random_er(rng, 150, 0.05), ba_graph(150, 3, rng)
    disjoint = np.zeros((300, 300))
    disjoint[:150, :150], disjoint[150:, 150:] = er.weights, ba.weights
    graphs.append(Graph.from_dense(disjoint))
    graphs += [generate(f"wheel:{DENSE_LAMBDA1_CAP + 1}"),
               generate(f"star:{2 * DENSE_LAMBDA1_CAP}")]
    twin = np.zeros((2 * 150, 2 * 150))
    twin[:150, :150] = twin[150:, 150:] = ba.weights
    graphs.append(Graph.from_dense(twin))
    for base in (random_er(rng, 250, 0.05), ba_graph(300, 2, rng)):
        w = np.triu(base.weights * rng.uniform(0.1, 5.0, base.weights.shape), 1)
        graphs.append(Graph.from_dense(w + w.T))
    # ladders restart, so they reach the checks made only at a restart
    graphs += [ladder(DENSE_LAMBDA1_CAP), ladder(DENSE_LAMBDA1_CAP // 2 + 7)]
    for g in graphs:
        assert g.n > DENSE_LAMBDA1_CAP
        lam_l = spectral_radius(g)
        lam_d = full_spectrum(g)[0][0]
        assert abs(lam_l - lam_d) <= 1e-8 * max(1.0, g.degrees().max())
    # uniform weights take the weighted product and scale lambda1
    plain = ladder(200)
    weighted = plain.scaled(2.5)
    assert plain.is_unweighted() and not weighted.is_unweighted()
    lam = spectral_radius(plain)
    assert abs(spectral_radius(weighted) - 2.5 * lam) <= 1e-12 * 2.5 * lam


@pytest.mark.parametrize("n", [2000, 5000])
def test_lanczos_wheel_within_ulps_of_closed_form(n):
    # the hub row holds n - 1 entries; summed in order inside A v, they put
    # v . A v 1e-12 from 1 + sqrt(n), while the sum over the stored entries
    # is exact up to the products' rounding
    want = 1.0 + math.sqrt(n)
    assert abs(spectral_radius(generate(f"wheel:{n}")) - want) <= 4 * math.ulp(want)


def counted_calls(monkeypatch, **targets):
    """Count the calls to each ``name=(owner, attribute)`` target; a target
    still calls through to the original."""
    calls = dict.fromkeys(targets, 0)
    for name, (owner, attr) in targets.items():
        def counted(*args, _name=name, _original=getattr(owner, attr)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_lanczos_checks_every_fourth_first_cycle_step_then_each_restart(monkeypatch):
    # the first cycle is checked every fourth step (12 eigh calls, its
    # restart included), each later cycle once, at its restart: 40 checks
    # and 833 products on the 2 x 1000 ladder, where checking every fourth
    # step of every cycle took 207 checks and 829 products; a check only
    # reads T, so the schedule moves only where Lanczos stops: the products
    # may pass 829 by one cycle, and that cycle costs one more check
    calls = counted_calls(monkeypatch, eigh=(np.linalg, "eigh"), matvec=(spectral, "_matvec"))
    spectral_radius(ladder(1000))
    assert calls["eigh"] <= 41
    assert calls["matvec"] <= 829 + LANCZOS_BASIS - LANCZOS_KEEP
    # the paper's trees and pendant trees take the sign tests: no product
    for spec in ("path:2000", "fork:500", "lollipop:100000"):
        calls["matvec"] = 0
        spectral_radius(generate(spec))
        assert calls["matvec"] == 0, spec


def test_large_inputs_finish_lanczos_in_their_first_cycle(monkeypatch, rng):
    # the check schedule after a restart never matters here: wheel:2000 takes
    # 3 products, this BA(5000, 2) 33 and the 1e5-node Chung-Lu graph 37, the
    # last one's sign-test route ruled out by its link count before any peel
    n, draws = 100_000, 440_000
    # Chung-Lu ends: node i drawn with probability proportional to (i + 1)^-0.5
    p = 1.0 / np.sqrt(np.arange(1.0, n + 1.0))
    ends = np.random.default_rng(20261018).choice(n, size=(draws, 2), p=p / p.sum())
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    keys = np.unique((lo * n + hi)[lo != hi])
    chung_lu = Graph._from_links(n, keys // n, keys % n)
    assert (chung_lu._link_counts == 1).any()
    calls = counted_calls(monkeypatch, matvec=(spectral, "_matvec"),
                          peel=(inertia.PendantTrees, "of"))
    for g in (generate("wheel:2000"), ba_graph(5000, 2, rng), chung_lu):
        calls["matvec"] = 0
        spectral_radius(g)
        assert 0 < calls["matvec"] <= LANCZOS_BASIS, g.n
    assert calls["peel"] == 0


def test_link_count_decides_whether_the_sign_tests_are_tried(monkeypatch):
    # a 2-core of k nodes has at most k(k - 3)/2 more links than the graph
    # has nodes: K_194 plus a pendant node (m - n = 18,527) cannot leave a
    # 2-core within the cap and is not peeled, while K_192 plus two pendant
    # nodes (m - n = 18,144, the bound) is, and takes the sign tests
    cap = DENSE_LAMBDA1_CAP
    calls = counted_calls(monkeypatch, matvec=(spectral, "_matvec"),
                          peel=(inertia.PendantTrees, "of"))
    for k, pendants, peeled in ((cap + 2, 1, False), (cap, 2, True)):
        links = [(a, b) for a in range(k) for b in range(a + 1, k)]
        g = Graph.from_edges(k + pendants, links + [(a, k + a) for a in range(pendants)])
        assert (g.num_links() - g.n <= cap * (cap - 3) // 2) is peeled
        calls.update(matvec=0, peel=0)
        lam = spectral_radius(g)
        assert calls["peel"] == int(peeled)
        assert (calls["matvec"] == 0) is peeled
        want = np.linalg.eigvalsh(g.weights)[-1]
        assert abs(lam - want) <= 1e-12 * g.degrees().max()


def test_rayleigh_and_gershgorin_bounds(rng):
    for _ in range(50):
        n = int(rng.integers(2, 30))
        g = random_er(rng, n, 0.5)
        if rng.random() < 0.5:  # weighted variant
            w = g.weights * rng.uniform(0.5, 3.0)
            g = Graph.from_dense((w + w.T) / 2)
        lam = spectral_radius(g)
        degs = g.degrees()
        assert degs.mean() <= lam + 1e-9
        assert lam <= degs.max() + 1e-9


def test_homogeneity(rng):
    g = random_er(rng, 20, 0.3)
    lam = spectral_radius(g)
    for s in (0.5, 3.7):
        assert abs(spectral_radius(g.scaled(s)) - s * lam) <= 1e-9 * max(1, s * lam)


def test_edgeless_and_tiny():
    assert spectral_radius(Graph.from_edges(3, [])) == 0.0
    assert spectral_radius(Graph.from_edges(1, [])) == 0.0
    assert abs(spectral_radius(generate("complete:2")) - 1.0) < 1e-12


def test_no_convergence_error(monkeypatch, tmp_path, capsys):
    # Lanczos running out of restarts is a NoConvergence in the library and
    # exit 3 from the CLI; the ladder's gap needs more than one cycle
    g = ladder(DENSE_LAMBDA1_CAP // 2 + 5)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_RESTARTS", 0)
    with pytest.raises(NoConvergence, match="Lanczos did not converge"):
        spectral_radius(g)
    path = tmp_path / "ladder.txt"
    path.write_text("".join(f"{i} {j}\n" for i, j in g.links()))
    assert main(["compute", "--edge-list", str(path)]) == 3
    assert "Lanczos did not converge" in capsys.readouterr().err


def test_lanczos_residual_check(monkeypatch):
    # a returned vector that is not an eigenvector fails the residual bound
    def not_an_eigenvector(g, bound):
        v = np.arange(g.n, dtype=float)
        return v / np.linalg.norm(v)

    monkeypatch.setattr(spectral, "_lanczos", not_an_eigenvector)
    with pytest.raises(NoConvergence, match="residual"):
        spectral_radius(ladder(DENSE_LAMBDA1_CAP // 2 + 5))


def test_no_scipy_import(monkeypatch, tmp_path, capsys):
    # the sign tests on a path edge list above the dense cap, and the
    # lollipop asymptotics (secular roots, no spectral code), with every
    # scipy module unimportable
    for name in ["scipy", *[m for m in sys.modules if m.startswith("scipy.")]]:
        monkeypatch.setitem(sys.modules, name, None)
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(399)))
    assert main(["compute", "--edge-list", str(path)]) == 0
    assert main(["asymptotics", "--family", "lollipop", "--n-list", "300,1000"]) == 0
    out = capsys.readouterr().out
    assert "lambda1: 1.9999386" in out  # 2 cos(pi / 401)
    assert "lollipop,300," in out and "lollipop,1000," in out


def test_bipartite_shift_correctness():
    # bipartite spectra are symmetric, so -lambda1 is an eigenvalue too;
    # the largest algebraic eigenvalue must be returned
    g = generate("kbip:4:5")
    assert abs(spectral_radius(g) - math.sqrt(20)) < 1e-10


def test_disconnected_radius_is_component_max():
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (4, 5), (5, 6)])
    assert abs(spectral_radius(g) - 3.0) < 1e-10


# the sign-test route: pendant trees eliminated leaves first


def _sign_tests(g):
    trees = inertia.PendantTrees.of(g, float(g.degrees().max()))
    assert trees is not None
    return trees.mu_star()


def _json_lambda1(tmp_path, capsys, g):
    path = tmp_path / "links.txt"
    path.write_text("".join(f"{i} {j}\n" for i, j in g.links()))
    assert main(["compute", "--edge-list", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)["lambda1"]


@pytest.mark.parametrize("n", [500, 2000, 10000])
def test_sign_tests_bracket_the_path(n, tmp_path, capsys):
    # mu* = 2 - 2 cos(pi/(N+1)) = 4 sin^2(pi/(2N+2)), free of cancellation
    g = generate(f"path:{n}")
    mu, low, high = _sign_tests(g)
    truth = 4 * math.sin(math.pi / (2 * n + 2)) ** 2
    assert low <= truth <= high and low <= mu <= high
    assert high - low <= 2 * TOL_LAMBDA1
    lam = 2 * math.cos(math.pi / (n + 1))
    assert abs(spectral_radius(g) - lam) <= 2 * TOL_LAMBDA1
    assert abs(_json_lambda1(tmp_path, capsys, g) - lam) <= 2 * TOL_LAMBDA1


def test_sign_tests_bracket_the_fork_and_the_star():
    # the fork's lambda1 is 2 (mu* = 1); the star's is sqrt(N - 1), summed
    # over 4,999 leaves at the hub
    for n in (500, 4000):
        mu, low, high = _sign_tests(generate(f"fork:{n}"))
        assert low <= 1.0 <= high
        assert spectral_radius(generate(f"fork:{n}")) == 2.0
    mu, low, high = _sign_tests(generate("star:5000"))
    truth = float(4999 - Decimal(4999).sqrt())
    assert low <= truth <= high
    assert abs(spectral_radius(generate("star:5000")) - math.sqrt(4999)) <= 4999 * TOL_LAMBDA1


def test_a_weighted_hub_past_the_rounding_bound_takes_lanczos(monkeypatch):
    # 600 weighted links summed at the hub: the sweeps' rounding bound,
    # 10 delta ~ 1.4e-12 d_max, would not meet TOL_LAMBDA1, so the route refuses
    weights = [1 + k % 7 / 8 for k in range(600)]
    g = Graph.from_edges(601, [(0, k + 1, w) for k, w in enumerate(weights)])
    d_max = float(g.degrees().max())
    assert inertia.PendantTrees.of(g, d_max) is None
    calls = []
    lanczos = spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos", lambda *a: calls.append(a) or lanczos(*a))
    lam = spectral_radius(g)
    assert len(calls) == 1
    assert abs(lam - math.sqrt(math.fsum(w * w for w in weights))) <= TOL_LAMBDA1 * d_max


def test_sign_tests_keep_their_pinned_bits():
    # lambda1 of edge-list graphs whose chains repeat one float state node
    # after node, pinned while sweeps still skipped such repeats: a sweep
    # that visits every node gives the same bits
    pinned = {"lollipop:100000": "2.9021160153529353", "path:100000": "1.9999999990130592",
              "fork:100000": "2.0", "star:1000": "31.606961258558158",
              "weighted path": "3.999999802647386"}
    graphs = {"weighted path": Graph.from_edges(10000, [(i, i + 1, 2.0) for i in range(9999)])}
    for spec in list(pinned)[:4]:
        g = generate(spec)
        graphs[spec] = Graph.from_edges(g.n, g.links())
    for name, g in graphs.items():
        assert inertia.PendantTrees.of(g, float(g.degrees().max())) is not None, name
        assert repr(spectral_radius(g)) == pinned[name], name


@pytest.mark.parametrize("n", [DENSE_LAMBDA1_CAP, 700, DENSE_CAP - 5])
def test_sign_tests_match_dense_on_the_lollipop(n):
    g = generate(f"lollipop:{n}")
    assert g.n > DENSE_LAMBDA1_CAP
    assert abs(spectral_radius(g) - np.linalg.eigvalsh(g.weights)[-1]) <= 3 * TOL_LAMBDA1


@st.composite
def pendant_graphs(draw):
    """A forest, or a small core (a cycle with chords) with pendant trees;
    the last node always hangs by one link, so there is a leaf."""
    n = draw(st.integers(3, 40))
    core = draw(st.sampled_from((0, 0, 3, 4, 6, 9)))
    core = core if core < n else 0
    links = [(i, (i + 1) % core) for i in range(core)]
    links += [(i, j) for i in range(core) for j in range(i + 2, core)
              if (i, j) != (0, core - 1) and draw(st.booleans())]
    for v in range(max(core, 1), n):
        if v == n - 1 or draw(st.integers(0, 4)):  # else v starts a new tree
            links.append((draw(st.integers(0, v - 1)), v))
    if draw(st.booleans()):
        weights = st.sampled_from((0.5, 1.0, 2.0, 3.7)) | st.floats(0.1, 10.0)
        links = [(i, j, draw(weights)) for i, j in links]
    return Graph.from_edges(n, links)


@settings(max_examples=150, deadline=None)
@given(pendant_graphs())
def test_sign_tests_match_dense_eigvalsh(g):
    d_max = float(g.degrees().max())
    mu, low, high = _sign_tests(g)
    lam = float(np.linalg.eigvalsh(g.weights)[-1])
    assert abs((d_max - mu) - lam) <= TOL_LAMBDA1 * max(1.0, d_max)
    # eigvalsh's own error is a few ulps of d_max per node at most
    slack = 8 * g.n * 2.0 ** -52 * d_max
    assert low - slack <= d_max - lam <= high + slack


def test_tree_beside_a_large_core():
    # a 300-node ladder is a 2-core above the cap, so the whole graph takes
    # Lanczos, which returns the largest lambda1 of the two components
    big = ladder(150)
    ladder_lambda1 = 1 + 2 * math.cos(math.pi / 151)
    for tree, tree_lambda1 in ((generate("star:60"), math.sqrt(59)),
                               (generate("path:300"), 2 * math.cos(math.pi / 301))):
        links = big.links() + [(big.n + i, big.n + j) for i, j in tree.links()]
        g = Graph.from_edges(big.n + tree.n, links)
        d_max = float(g.degrees().max())
        expected = max(ladder_lambda1, tree_lambda1)
        assert abs(spectral_radius(g) - expected) <= TOL_LAMBDA1 * d_max


def test_sign_tests_no_convergence_exit_3(monkeypatch, tmp_path, capsys):
    # sweeps that do not bracket lambda1 are a NoConvergence, exit 3
    monkeypatch.setattr(inertia, "MAX_SWEEPS", 1)
    g = generate(f"path:{DENSE_LAMBDA1_CAP + 10}")
    with pytest.raises(NoConvergence, match="pivot sweeps"):
        spectral_radius(g)
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {j}\n" for i, j in g.links()))
    assert main(["compute", "--edge-list", str(path)]) == 3
    assert "pivot sweeps" in capsys.readouterr().err
