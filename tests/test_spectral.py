import math
import sys

import numpy as np
import pytest

from conftest import cycle_graph, random_er
from sdegraph import Graph, generate, lollipop_limit_lambda1, spectral_radius
from sdegraph.errors import NoConvergence, TooLargeForDense
from sdegraph.families import ba_graph
from sdegraph.spectral import full_spectrum
from sdegraph import spectral
from sdegraph.cli import main
from sdegraph.graph import DENSE_CAP
from sdegraph.spectral import DENSE_LAMBDA1_CAP, LANCZOS_BASIS, LANCZOS_KEEP


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
    g = generate("lollipop:400")
    assert g.n > DENSE_LAMBDA1_CAP
    assert abs(spectral_radius(g) - np.linalg.eigvalsh(g.weights)[-1]) < 1e-11


def test_full_spectrum_k2():
    s = full_spectrum(generate("complete:2"))
    assert np.allclose(s.adjacency, [1, -1])
    assert np.allclose(s.laplacian, [2, 0])


def test_full_spectrum_k4():
    s = full_spectrum(generate("complete:4"))
    assert np.allclose(s.adjacency, [3, -1, -1, -1])


def test_full_spectrum_c4():
    # circulant eigenvalues 2 cos(2 pi k / 4)
    s = full_spectrum(cycle_graph(4))
    assert np.allclose(s.adjacency, [2, 0, 0, -2], atol=1e-10)


def test_full_spectrum_dense_cap():
    with pytest.raises(TooLargeForDense):
        full_spectrum(generate(f"path:{DENSE_CAP + 1}"))


def test_spectrum_invariants(rng):
    for _ in range(25):
        n = int(rng.integers(2, 40))
        g = random_er(rng, n, 0.4)
        s = full_spectrum(g)
        d_max = g.degrees().max()
        assert abs(s.adjacency.sum()) <= 1e-8 * max(1, n * d_max)  # zero trace
        assert np.all(s.laplacian >= 0)
        assert s.adjacency[0] <= d_max * (1 + 1e-10) + 1e-12


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
    # the path and the fork restart, so they reach the cycles whose
    # convergence checks are skipped
    graphs += [generate(f"path:{2 * DENSE_LAMBDA1_CAP}"),
               generate(f"fork:{DENSE_LAMBDA1_CAP}")]
    for g in graphs:
        assert g.n > DENSE_LAMBDA1_CAP
        lam_l = spectral_radius(g)
        lam_d = full_spectrum(g).lambda1
        assert abs(lam_l - lam_d) <= 1e-8 * max(1.0, g.degrees().max())
    # uniform weights take the weighted product and scale lambda1
    plain = generate("path:400")
    weighted = plain.scaled(2.5)
    assert plain.is_unweighted() and not weighted.is_unweighted()
    lam = spectral_radius(plain)
    assert abs(spectral_radius(weighted) - 2.5 * lam) <= 1e-12 * 2.5 * lam


def test_lanczos_checks_only_near_convergence(monkeypatch):
    # an eigh check of T every fourth step of every cycle took 379 checks
    # and 1,517 products on the 2000-node path; checking a restarted cycle
    # only near convergence may cost at most one more cycle of products
    calls = {"eigh": 0, "matvec": 0}
    eigh, matvec = np.linalg.eigh, spectral._matvec

    def counted_eigh(a):
        calls["eigh"] += 1
        return eigh(a)

    def counted_matvec(g, x):
        calls["matvec"] += 1
        return matvec(g, x)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(spectral, "_matvec", counted_matvec)
    spectral_radius(generate("path:2000"))
    assert calls["eigh"] <= 130
    assert calls["matvec"] <= 1517 + LANCZOS_BASIS - LANCZOS_KEEP
    # the lollipop converges within its first cycle, in 37 products
    calls["matvec"] = 0
    spectral_radius(generate("lollipop:100000"))
    assert calls["matvec"] <= 37


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
    assert spectral_radius(Graph.empty(3)) == 0.0
    assert spectral_radius(Graph.empty(1)) == 0.0
    assert abs(spectral_radius(generate("complete:2")) - 1.0) < 1e-12


def test_no_convergence_error(monkeypatch, tmp_path, capsys):
    # Lanczos running out of restarts is a NoConvergence in the library and
    # exit 3 from the CLI; the path's 1/N^2 gap needs more than one cycle
    n = DENSE_LAMBDA1_CAP + 10
    monkeypatch.setattr(spectral, "LANCZOS_MAX_RESTARTS", 0)
    with pytest.raises(NoConvergence, match="Lanczos did not converge"):
        spectral_radius(generate(f"path:{n}"))
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    assert main(["compute", "--edge-list", str(path)]) == 3
    assert "Lanczos did not converge" in capsys.readouterr().err


def test_lanczos_residual_check(monkeypatch):
    # a returned vector that is not an eigenvector fails the residual bound
    def not_an_eigenvector(g, bound):
        v = np.arange(g.n, dtype=float)
        return v / np.linalg.norm(v)

    monkeypatch.setattr(spectral, "_lanczos", not_an_eigenvector)
    with pytest.raises(NoConvergence, match="residual"):
        spectral_radius(generate(f"path:{DENSE_LAMBDA1_CAP + 10}"))


def test_no_scipy_import(monkeypatch, tmp_path, capsys):
    # lambda1 above the dense cap, from an edge list and for the lollipop
    # family (which has no closed form), with every scipy module unimportable
    for name in ["scipy", *[m for m in sys.modules if m.startswith("scipy.")]]:
        monkeypatch.setitem(sys.modules, name, None)
    lollipop_limit_lambda1.cache_clear()
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
