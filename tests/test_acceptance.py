"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them inline) and asserts its runtime budget. The exhaustive order-7 corpus
is the checked-in graph6 fixture; random corpora are seeded and
deterministic.
"""
import functools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import FIXTURE_N7, FIXTURE_N8, random_er
from sdegraph import (Graph, classify, degree_sequence, family_q, fork_q_constant,
                      generate, lollipop_limit_lambda1, metric_records, parse_graph6,
                      path_q_asymptotic, path_q_exact, read_graph6_file, sde,
                      solve_bisection, solve_recursion, spectral_radius)
from sdegraph.cli import main as cli_main
from sdegraph.errors import SdegraphError
from sdegraph.graph import Biregular, MaxDegreeComponent, Regular
from sdegraph.io import encode_graph6
from sdegraph.metrics import bfs_distances, metric_suite
from sdegraph.spectral import full_spectrum
from sdegraph.study import correlation_report


@contextmanager
def criterion(num, budget_s, description):
    t0 = time.perf_counter()
    try:
        yield
    except AssertionError:
        print(f"\nACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"\nACCEPTANCE {num}: FAIL - {description} "
              f"(runtime {elapsed:.1f}s exceeded budget {budget_s}s)")
        raise AssertionError(f"criterion {num} runtime budget exceeded")
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.1f}s < {budget_s}s) - {description}")


@functools.lru_cache(maxsize=1)
def fixture_data():
    graphs = read_graph6_file(FIXTURE_N7)
    data = []
    for g in graphs:
        ds = degree_sequence(g.degrees())
        lam = full_spectrum(g)[0][0]
        data.append((g, ds, lam, classify(g)))
    return data


def test_criterion_1_biregular_implies_q2():
    with criterion(1, 5.0, "biregular graphs solve to q = 2 within 1e-6"):
        specs = [f"kbip:{m}:{n}" for m in range(1, 10)
                 for n in range(m + 1, 11)]
        for m in range(1, 30):
            for n in range(1, 31 - m):
                if n == m:
                    continue  # r1 == r2 would be regular
                for r1 in range(1, n + 1):
                    if (m * r1) % n:
                        continue
                    r2 = (m * r1) // n
                    if r2 < 1 or r2 == r1:
                        continue
                    specs.append(f"bireg:{m}:{n}:{r1}")
        assert len(specs) > 100
        for spec in specs:
            g = generate(spec)
            ds = degree_sequence(g.degrees())
            lam = full_spectrum(g)[0][0]
            r = solve_bisection(ds, lam)
            assert abs(r.q - 2.0) <= 1e-6, (spec, r.q)


def test_criterion_2_q2_implies_biregular_on_n7():
    with criterion(2, 10.0, "on the exhaustive N=7 corpus, q <= 2+1e-6 "
                            "exactly for the biregular graphs"):
        solved_two = set()
        biregular = set()
        for idx, (g, ds, lam, cls) in enumerate(fixture_data()):
            if isinstance(cls, Regular):
                continue
            q = solve_bisection(ds, lam).q
            if q <= 2 + 1e-6:
                solved_two.add(idx)
            else:
                assert q > 2 + 1e-4, idx  # clear separation from 2
            if isinstance(cls, Biregular):
                biregular.add(idx)
        assert solved_two == biregular
        assert len(biregular) == 3  # K_{1,6}, K_{2,5}, K_{3,4}


def _random_component(rng, max_degree):
    """Random small graph whose degrees stay below max_degree."""
    while True:
        n = int(rng.integers(2, 8))
        g = random_er(rng, n, float(rng.uniform(0.2, 0.8)))
        if g.degrees().max() <= max_degree:
            return g


def _disjoint_union(parts):
    n = sum(p.n for p in parts)
    w = np.zeros((n, n))
    off = 0
    for p in parts:
        w[off:off + p.n, off:off + p.n] = p.weights
        off += p.n
    return Graph.from_dense(w)


def test_criterion_3_infinite_iff_max_clique_component():
    with criterion(3, 60.0, "max-clique component <=> infinite q, exact"):
        rng = np.random.default_rng(20250811)
        built = 0
        while built < 50:
            k = int(rng.integers(3, 8))
            parts = [generate(f"complete:{k}"),
                     _random_component(rng, max_degree=k - 1)]
            if rng.random() < 0.5:
                parts.append(_random_component(rng, max_degree=k - 1))
            g = _disjoint_union(parts)
            if g.degrees().min() == k - 1:
                continue  # accidental regular union: resample
            assert isinstance(classify(g), MaxDegreeComponent)
            assert sde(g).is_infinite
            built += 1
        for _ in range(50):
            k = int(rng.integers(5, 10))
            parts = [generate(f"star:{k}"),
                     _random_component(rng, max_degree=k - 3)]
            if rng.random() < 0.5:
                parts.append(_random_component(rng, max_degree=k - 3))
            g = _disjoint_union(parts)
            assert not isinstance(classify(g), (Regular, MaxDegreeComponent))
            result = sde(g)
            assert result.is_finite, "no d_max-regular component: q is finite"


def _er_pool(count, n=50, p=0.2, seed=42):
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < count:
        g = random_er(rng, n, p)
        degs = g.degrees()
        if degs.max() == degs.min():
            continue
        pool.append(g)
    return pool


def test_criterion_4_bounds_sandwich():
    with criterion(4, 60.0, "lower <= q <= sharpened_upper <= upper "
                            "(2 tol_q slack) on N=7 corpus + 1000 ER(50,0.2)"):
        from sdegraph import bounds
        slack = 2e-9
        cases = [(ds, lam) for (_, ds, lam, cls) in fixture_data()
                 if not isinstance(cls, Regular)]
        for g in _er_pool(1000):
            ds = degree_sequence(g.degrees())
            lam = full_spectrum(g)[0][0]
            cases.append((ds, lam))
        for ds, lam in cases:
            r = solve_bisection(ds, lam)
            if not r.is_finite:
                continue
            b = bounds(ds, lam)
            assert b.lower - slack <= r.q <= b.upper + slack
            if b.sharpened_upper is not None:
                assert r.q <= b.sharpened_upper + slack
                assert b.sharpened_upper <= b.upper + 1e-12


def test_criterion_5_solver_cross_validation():
    with criterion(5, 60.0, "bisection vs recursion within 2e-9; recursion "
                            "hits 1e-6 in <= 20 evaluations on >= 95% of ER"):
        for (g, ds, lam, cls) in fixture_data():
            if isinstance(cls, Regular):
                continue
            qb = solve_bisection(ds, lam)
            qr = solve_recursion(ds, lam)
            if qb.is_infinite or qr.is_infinite:
                assert qb.is_infinite == qr.is_infinite
                continue
            assert abs(qb.q - qr.q) <= 2e-9
        fast = 0
        total = 0
        for g in _er_pool(1000, seed=12345):
            ds = degree_sequence(g.degrees())
            lam = full_spectrum(g)[0][0]
            q_ref = solve_bisection(ds, lam, tol_q=1e-9).q
            r = solve_recursion(ds, lam, tol_q=1e-6)
            total += 1
            if r.iterations <= 20 and abs(r.q - q_ref) <= 1e-6:
                fast += 1
        assert fast >= 0.95 * total, (fast, total)


def test_criterion_6_fork_constant():
    with criterion(6, 5.0, "fork family solves to the 3*2^q = 2+3^q root "
                           "(~2.36864) for N in {5,20,100,1000}"):
        q_eq = fork_q_constant()
        assert abs(3 * 2 ** q_eq - 2 - 3 ** q_eq) <= 1e-9
        assert abs(q_eq - 2.36864) <= 1e-4
        for n in (5, 20, 100, 1000):
            q = family_q(f"fork:{n}").q
            assert abs(q - q_eq) <= 1e-6, n
        # full numeric pipeline at small N (computed lambda1)
        assert abs(sde(generate("fork:5")).q - q_eq) <= 1e-6


def test_criterion_7_path_asymptotics():
    with criterion(7, 30.0, "path: exact oracle matches solver to 1e-8; "
                            "asymptotic within 2% for N >= 50, improving"):
        for n in (5, 10, 25):
            q_solver = sde(generate(f"path:{n}")).q
            assert abs(q_solver - path_q_exact(n)) <= 1e-8, n
        rels = []
        for n in (50, 100, 200):
            q_solver = family_q(f"path:{n}").q
            rel = abs(q_solver - path_q_asymptotic(n)) / q_solver
            rels.append(rel)
            assert rel <= 0.02, (n, rel)
        assert rels[0] > rels[1] > rels[2]


def test_criterion_8_wheel_limit():
    with criterion(8, 30.0, "wheel gap q - 2 positive and strictly "
                            "decreasing over N in {10, 1e2, 1e3, 1e4}"):
        from sdegraph import wheel_limit_check
        gaps = [wheel_limit_check(n) for n in (10, 100, 1000, 10000)]
        assert all(gap > 0 for gap in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_criterion_9_lollipop_asymptotics():
    with criterion(9, 300.0, "lollipop: lambda1 -> 2.902 by N=1e3; q-vs-logN "
                             "slope within 5% of 1/(log3 - log lambda1)"):
        lam_1000 = spectral_radius(generate("lollipop:1000"))
        assert abs(lam_1000 - 2.902) <= 1e-3
        qs = []
        ns = (1000, 10000, 100000)
        for n in ns:
            g = generate(f"lollipop:{n}")
            lam = spectral_radius(g)
            ds = degree_sequence(g.degrees())
            qs.append(solve_bisection(ds, lam).q)
        slope = np.polyfit(np.log(np.array(ns, dtype=float)), np.array(qs), 1)[0]
        target = 1.0 / (math.log(3.0) - math.log(lollipop_limit_lambda1()))
        assert abs(slope - target) / target <= 0.05, (slope, target)
        assert abs(target - 30.11) / 30.11 <= 0.01  # published rounded value


def measured(graphs):
    """The metric records of ``graphs``, from stacked kernels
    (:func:`metric_records`); none of them may be an error."""
    records = list(metric_records(graphs))
    assert not any(isinstance(rec, SdegraphError) for rec in records)
    return records


@functools.lru_cache(maxsize=1)
def fixture_records():
    return measured(g for g, *_ in fixture_data())


def test_criterion_10_exhaustive_correlations():
    with criterion(10, 120.0, "N=7 pipeline: assortativity r = 0.765 +- 0.02; "
                              "d_max gap r = -0.535 +- 0.02"):
        records = fixture_records()
        assert len(records) == 853
        report = correlation_report(records, corpus="graph7c")
        assert report.graph_count == 849
        r_assort = report.correlations["degree_assortativity"]
        assert abs(r_assort - 0.765) <= 0.02, r_assort
        r_gap = report.correlations["dmax_minus_lambda1"]
        assert abs(r_gap - (-0.535)) <= 0.02, r_gap
        # the largest exponent on 7 nodes belongs to the N=2 lollipop
        finite = [rec for rec in records if math.isfinite(rec["sde_q"])]
        top = max(finite, key=lambda rec: rec["sde_q"])
        assert abs(top["sde_q"] - family_q("lollipop:2").q) <= 2e-9
        assert top["num_leaf_nodes"] == 1 and top["max_degree"] == 3


@pytest.mark.skipif(not FIXTURE_N8.exists(),
                    reason="optional N=8 fixture not present")
def test_criterion_10b_n8_optional():
    with criterion("10b", 600.0, "optional N=8 corpus: assortativity "
                                 "r = 0.749 +- 0.02"):
        graphs = read_graph6_file(FIXTURE_N8)
        assert len(graphs) == 11117
        records = measured(graphs)
        report = correlation_report(records, corpus="graph8c")
        assert report.graph_count == 11100
        r_assort = report.correlations["degree_assortativity"]
        assert abs(r_assort - 0.749) <= 0.02, r_assort
        finite = [rec for rec in records if math.isfinite(rec["sde_q"])]
        top = max(finite, key=lambda rec: rec["sde_q"])
        assert abs(top["sde_q"] - family_q("lollipop:3").q) <= 2e-9


def _stochastic_records(kind, n, param, count, master_seed):
    from sdegraph.families import FamilySpec
    from sdegraph.study import ensemble_samples
    spec = FamilySpec(kind, (n, param, None))
    return measured(ensemble_samples(spec, master_seed, count))


def test_criterion_11_stochastic_correlations():
    with criterion(11, 600.0, "ER(100,0.1) x1000 assortativity r = 0.856 "
                              "+- 0.05; BA(100,3) x1000 r = 0.712 +- 0.07"):
        er_records = _stochastic_records("er", 100, 0.1, 1000, master_seed=2025)
        r_er = correlation_report(er_records, "er").correlations[
            "degree_assortativity"]
        assert abs(r_er - 0.856) <= 0.05, r_er
        ba_records = _stochastic_records("ba", 100, 3, 1000, master_seed=2025)
        r_ba = correlation_report(ba_records, "ba").correlations[
            "degree_assortativity"]
        assert abs(r_ba - 0.712) <= 0.07, r_ba


def test_criterion_12_nonmonotonic(tmp_path):
    with criterion(12, 120.0, "star-to-complete fills at n=11: some strictly "
                              "decreasing q step; every start at q = 2"):
        out = tmp_path / "traj.csv"
        code = cli_main(["nonmonotonic", "--n", "11", "--trials", "200",
                         "--seed", "0", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        starts = [float(r[3]) for r in rows if r[1] == "0"]
        assert len(starts) == 200
        assert all(abs(q - 2.0) <= 1e-6 for q in starts)
        assert any(r[4] == "1" for r in rows)


def test_criterion_13_property_suites(rng):
    with criterion(13, 120.0, "graph6 round-trip, scale invariance, "
                              "lambda1-monotonicity, R_G duality, "
                              "spanning-tree enumeration"):
        # graph6 round-trip on 1000 random graphs
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            g = random_er(rng, n, float(rng.random()))
            assert np.array_equal(parse_graph6(encode_graph6(g)).weights,
                                  g.weights)
        # scale invariance of q
        count = 0
        while count < 10:
            g = random_er(rng, 25, 0.3)
            if g.degrees().max() == g.degrees().min() or g.num_links() == 0:
                continue
            base = sde(g)
            if not base.is_finite:
                continue
            for s in (0.5, 3.7):
                assert abs(sde(g.scaled(s)).q - base.q) <= 2e-9
            count += 1
        # monotonicity of q in lambda1 at fixed degrees, 100 synthetic pairs
        count = 0
        while count < 100:
            g = random_er(rng, 30, 0.3)
            ds = degree_sequence(g.degrees())
            if ds.c == ds.n:
                continue
            rms = math.sqrt(float((np.asarray(ds.counts) * np.asarray(ds.values) ** 2).sum())
                            / ds.n)
            if rms >= ds.d_max * 0.999:
                continue
            lam_lo = float(rng.uniform(rms * 1.0001, ds.d_max * 0.999))
            lam_hi = float(rng.uniform(lam_lo, ds.d_max * 0.999))
            if lam_hi <= lam_lo:
                continue
            q_lo = solve_bisection(ds, lam_lo).q
            q_hi = solve_bisection(ds, lam_hi).q
            assert q_hi > q_lo
            count += 1
        # effective-resistance duality on 100 connected ER graphs
        count = 0
        while count < 100:
            n = int(rng.integers(4, 31))
            g = random_er(rng, n, 0.35)
            if not np.isfinite(bfs_distances(g.weights > 0)).all():
                continue
            _, laplacian = full_spectrum(g)
            eig_based = n * (1.0 / laplacian[:-1]).sum()
            pinv = np.linalg.pinv(np.diag(g.degrees()) - g.weights)
            pair_sum = sum(pinv[i, i] + pinv[j, j] - 2 * pinv[i, j]
                           for i in range(n) for j in range(i + 1, n))
            assert abs(eig_based - pair_sum) <= 1e-6 * max(1.0, eig_based)
            count += 1
        # spanning-tree counts match explicit enumeration for n <= 5
        import itertools
        for n in range(2, 6):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for mask in range(1, 2 ** len(pairs)):
                edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
                g = Graph.from_edges(n, edges)
                if not np.isfinite(bfs_distances(g.weights > 0)).all():
                    continue
                trees = 0
                links = g.links()
                for subset in itertools.combinations(links, n - 1):
                    sub = Graph.from_edges(n, subset)
                    if np.isfinite(bfs_distances(sub.weights > 0)).all():
                        trees += 1
                assert metric_suite(g)["num_spanning_trees"] == trees
