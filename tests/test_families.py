import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest

from sdegraph import (Graph, classify, family_q, fork_q_constant, generate,
                      lollipop_limit_lambda1, lollipop_q_asymptotic,
                      path_q_asymptotic, path_q_exact, sde, spectral_radius,
                      wheel_limit_check)
from sdegraph.errors import BadSpec, InvalidGraph
from sdegraph.families import (FAMILIES, FAMILY_KINDS, FamilySpec, analytic_lambda1,
                               parse_family)
from sdegraph import graph
from sdegraph.graph import Biregular, connected_components


def degree_multiset(g):
    return Counter(int(round(d)) for d in g.degrees())


def test_fork5_profile():
    g = generate("fork:5")
    assert g.n == 9
    assert degree_multiset(g) == Counter({1: 4, 3: 2, 2: 3})


def test_lollipop3_profile():
    g = generate("lollipop:3")
    assert g.n == 8
    assert degree_multiset(g) == Counter({3: 5, 2: 2, 1: 1})


def test_wheel7_profile():
    g = generate("wheel:7")
    degs = sorted(g.degrees().tolist(), reverse=True)
    assert degs == [6, 3, 3, 3, 3, 3, 3]


def test_path_star_complete_profiles():
    assert degree_multiset(generate("path:6")) == Counter({2: 4, 1: 2})
    assert degree_multiset(generate("star:7")) == Counter({6: 1, 1: 6})
    assert degree_multiset(generate("complete:5")) == Counter({4: 5})
    assert degree_multiset(generate("kbip:2:3")) == Counter({3: 2, 2: 3})


def test_biregular_generator_profiles():
    g = generate("bireg:4:6:3")  # r2 = 2
    assert degree_multiset(g) == Counter({3: 4, 2: 6})
    assert classify(g) == Biregular(r1=3, r2=2)
    g2 = generate("bireg:5:10:4")  # r2 = 2
    assert degree_multiset(g2) == Counter({4: 5, 2: 10})
    assert isinstance(classify(g2), Biregular)


def test_biregular_generator_rejections():
    with pytest.raises(BadSpec):
        generate("bireg:3:5:2")  # 6 not divisible by 5
    with pytest.raises(BadSpec):
        generate("bireg:3:4:5")  # r1 > n
    with pytest.raises(BadSpec):
        generate("bireg:0:4:1")
    # degenerate but valid: two part-A nodes sharing one part-B node is K_{1,2}
    assert degree_multiset(generate("bireg:2:1:1")) == Counter({2: 1, 1: 2})


def test_generate_checks_the_row_profile(monkeypatch):
    wrong = dataclasses.replace(FAMILIES["path"], profile=lambda n: [(2, n - 1), (1, 1)])
    monkeypatch.setitem(FAMILIES, "path", wrong)
    with pytest.raises(InvalidGraph):
        generate("path:5")


def test_generate_then_sde_builds_one_histogram(monkeypatch):
    """generate checks the family's degree profile on ``Graph.histogram``,
    which sde then reuses: one DegreeSequence per family graph."""
    original = graph.degree_sequence
    calls = []

    def counting(degrees):
        calls.append(len(degrees))
        return original(degrees)

    for name, module in list(sys.modules.items()):  # every binding of the original
        if name.startswith("sdegraph") and getattr(module, "degree_sequence", None) is original:
            monkeypatch.setattr(module, "degree_sequence", counting)
    for spec in ("path:9", "fork:9", "lollipop:300", "wheel:400", "bireg:4:6:3"):
        calls.clear()
        sde(generate(spec))
        assert len(calls) == 1, (spec, calls)


def test_family_minimums():
    for bad in ("path:1", "wheel:3", "star:1", "complete:1", "fork:1",
                "lollipop:0"):
        with pytest.raises(BadSpec):
            generate(bad)


def test_parse_family_errors():
    with pytest.raises(BadSpec):
        parse_family("torus:5")
    with pytest.raises(BadSpec):
        parse_family("path:five")
    with pytest.raises(BadSpec):
        parse_family("kbip:3")


# examples of every deterministic family, degenerate sizes included
SPECS = [
    "path:2", "path:3", "path:50", "wheel:4", "wheel:5", "wheel:40",
    "star:2", "star:30", "complete:2", "complete:3", "complete:12",
    "kbip:1:1", "kbip:2:3", "kbip:7:4", "bireg:2:1:1", "bireg:4:6:3",
    "bireg:5:10:4", "bireg:6:4:2", "fork:2", "fork:3", "fork:40",
    "lollipop:1", "lollipop:2", "lollipop:60"]
RANDOM_SPECS = ["er:100:0.1:42", "er:30:0.25", "ba:50:3:7", "ba:50:3"]


def test_examples_cover_every_kind():
    assert {parse_family(s).kind for s in SPECS} == set(FAMILIES)
    assert {parse_family(s).kind for s in SPECS + RANDOM_SPECS} == set(FAMILY_KINDS)


def test_parse_family_roundtrip():
    for text in SPECS + RANDOM_SPECS:
        spec = parse_family(text)
        assert str(spec) == text
        assert parse_family(str(spec)) == spec


def test_parse_family_random_models():
    assert parse_family("er:100:0.1:42") == FamilySpec("er", (100, 0.1, 42))
    assert parse_family("ba:50:3") == FamilySpec("ba", (50, 3, None))
    assert str(FamilySpec("er", (100, 0.1, None))) == "er:100:0.1"


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_parse_family_wrong_argument_count(kind):
    allowed = {FAMILIES[kind].arity} if kind in FAMILIES else {2, 3}
    for count in set(range(5)) - allowed:
        with pytest.raises(BadSpec):
            parse_family(":".join([kind] + ["3"] * count))
    for count in allowed:
        assert len(parse_family(":".join([kind] + ["3"] * count)).args) == max(allowed)


def test_er_reproducibility():
    a = generate("er:40:0.2:7")
    b = generate("er:40:0.2:7")
    c = generate("er:40:0.2:8")
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_ba_reproducibility_and_structure():
    a = generate("ba:100:3:5")
    b = generate("ba:100:3:5")
    assert np.array_equal(a.weights, b.weights)
    assert not connected_components(a).any()
    degs = a.degrees()
    assert np.all(degs[3:] >= 3)  # every arriving node brings m distinct links
    assert a.num_links() == 3 + 97 * 3


def test_generate_lollipop_matches_dense_reference():
    # K4 minus (2, 3), both loose ends joined to node 4, then the path 4..54
    n = 50
    dense = np.zeros((n + 5, n + 5))
    for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]:
        dense[i, j] = dense[j, i] = 1.0
    for k in range(4, n + 4):
        dense[k, k + 1] = dense[k + 1, k] = 1.0
    g = generate(f"lollipop:{n}")
    g.validate()
    assert np.array_equal(g.weights, dense)


def _reference_links(kind, *args):
    """(node count, link tuples) of a deterministic family, built by loops."""
    if kind == "path":
        (n,) = args
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "wheel":
        (n,) = args
        return n, ([(0, i) for i in range(1, n)]
                   + [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)])
    if kind == "star":
        (n,) = args
        return n, [(0, i) for i in range(1, n)]
    if kind == "complete":
        (n,) = args
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "kbip":
        m, n = args
        return m + n, [(i, m + j) for i in range(m) for j in range(n)]
    if kind == "bireg":
        m, n, r1 = args
        return m + n, [(i, m + (i * r1 + j) % n) for i in range(m) for j in range(r1)]
    if kind == "fork":
        (n,) = args
        return n + 4, ([(i, i + 1) for i in range(n - 1)]
                       + [(0, n), (0, n + 1), (n - 1, n + 2), (n - 1, n + 3)])
    (n,) = args  # lollipop
    return n + 5, ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
                   + [(k, k + 1) for k in range(4, n + 4)])


@pytest.mark.parametrize("spec", SPECS)
def test_generate_matches_tuple_reference(spec):
    spec = parse_family(spec)
    n, links = _reference_links(spec.kind, *spec.args)
    ref, g = Graph.from_edges(n, links), generate(spec)
    assert g.n == ref.n
    for got, want in ((g.indptr, ref.indptr), (g.indices, ref.indices), (g.data, ref.data)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_analytic_lambda1_against_spectral_radius():
    for spec in SPECS:
        lam_exact = analytic_lambda1(spec)
        if FAMILIES[parse_family(spec).kind].lambda1 is None:
            assert lam_exact is None, spec
        else:
            lam_num = spectral_radius(generate(spec))
            assert abs(lam_exact - lam_num) <= 1e-9 * max(1.0, lam_exact), spec


# path oracles


def test_path_exact_n3_is_two():
    assert abs(path_q_exact(3) - 2.0) <= 1e-12


def test_path_exact_agrees_with_solver():
    for n in (5, 10):
        q_solver = sde(generate(f"path:{n}")).q
        assert abs(path_q_exact(n) - q_solver) <= 1e-8


def test_path_asymptotic_terms():
    # leading coefficient 4/pi^2
    slope = path_q_asymptotic(10001) - path_q_asymptotic(10000)
    assert abs(slope - 4 / math.pi ** 2) <= 1e-6
    # frozen value, computed from the three-term formula
    assert abs(path_q_asymptotic(100) - 41.76522333247) <= 1e-9


def test_path_exact_approaches_asymptotic():
    errs = [abs(path_q_exact(n) - path_q_asymptotic(n)) for n in (50, 100, 200)]
    assert errs[0] > errs[1] > errs[2]


# fork oracle


def test_fork_constant_satisfies_equation():
    q = fork_q_constant()
    assert abs(3 * 2 ** q - 2 - 3 ** q) <= 1e-9
    assert abs(q - 2.36864) <= 1e-4
    # sign check: at q=2 the left side exceeds the right, so the root is above 2
    assert 3 * 2 ** 2 - 2 - 3 ** 2 > 0
    assert q > 2


def test_fork_family_q_independent_of_n():
    q_ref = fork_q_constant()
    for n in (5, 20):
        assert abs(family_q(f"fork:{n}").q - q_ref) <= 1e-6


# lollipop oracles


def test_lollipop_limit_lambda1():
    lam = lollipop_limit_lambda1()
    # frozen from an independent dense eigensolve at N=1000
    assert abs(lam - 2.9021160153529) <= 1e-9
    assert abs(lam - 2.902) <= 1e-3


def test_lollipop_asymptotic_constants():
    # with the published rounded lambda1 = 2.902 the coefficients round to
    # 30.11 and -48.46
    a = 1 / (math.log(3) - math.log(2.902))
    b = math.log(5) / math.log(2.902 / 3)
    assert abs(a - 30.11) <= 0.01
    assert abs(b + 48.46) <= 0.01
    val = lollipop_q_asymptotic(1000, lambda1=2.902)
    assert abs(val - (a * math.log(1000) + b)) <= 1e-9


def test_lollipop_asymptotic_singularity_guard():
    with pytest.raises(BadSpec):
        lollipop_q_asymptotic(100, lambda1=3.0)
    with pytest.raises(BadSpec):
        lollipop_q_asymptotic(100, lambda1=1.5)


def test_lollipop_solver_vs_asymptotic_n1000():
    q_solver = family_q("lollipop:1000").q
    q_asym = lollipop_q_asymptotic(1000)
    assert abs(q_solver - q_asym) / q_solver <= 0.05


# wheel


def test_wheel_limit_gap_positive_and_decreasing():
    gaps = [wheel_limit_check(n) for n in (10, 50, 200)]
    assert all(gap > 0 for gap in gaps)
    assert gaps[0] > gaps[1] > gaps[2]


def test_wheel7_lambda1_consistency():
    # the check itself asserts the power-iteration value against 1+sqrt(N)
    gap = wheel_limit_check(7)
    assert gap > 0


def test_family_q_regular_is_undefined():
    assert family_q("complete:6").is_undefined


def test_family_q_rejects_random_models():
    with pytest.raises(BadSpec):
        family_q("er:10:0.5:1")
