"""The input contract: a value of a documented type gives a result in its
documented range or an ``SdegraphError``, never another exception.

API half: a table over ``sdegraph.__all__`` and the ``Graph`` constructors
and methods. Each numeric parameter is fed, one at a time, every value of
``NUMBERS`` (huge ints, subnormals, a fraction below the float range, NaN,
+-inf, zeros, negatives) while the others keep a valid value; array
parameters get the numpy arrays and Python lists of ``ARRAYS`` (empty,
non-finite, negative, complex and integral float arrays, ragged rows, and
lists holding ints past the float range or a string). A q must be NaN, inf
or in [2, Q_MAX], a law's value finite, a bracket must have lower <= upper,
and a returned ``Graph`` must keep the invariants
(``conftest.assert_graph_invariants``) and then answer every query. Raw CSR
arrays are no input: ``Graph(...)`` raises TypeError for any arguments. The
integer parameters (family arguments, seeds, growth sizes and trials, node
counts and ids) are also fed two junk values at a time, drawn by hypothesis
with a fixed seed, and so are the real ones (er's p, q, lambda1, tol_q and
the laws' arguments), strings, None, complex numbers and decimals among the
values. CLI half:
every subcommand, run with small mutated numeric arguments, exits 0, 2 or 3
without a traceback. Both halves are deterministic.
"""
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdegraph
from conftest import assert_graph_invariants, cycle_graph
from sdegraph import (Graph, add_link, bounds, classify, degree_sequence, f1, family_q,
                      fork_q_constant, generate, lollipop_limit_lambda1,
                      lollipop_q_asymptotic, metric_records, metric_suite, parse_graph6,
                      parse_weighted_edge_list, path_q_asymptotic, path_q_exact,
                      read_graph6_file, sde, solve_bisection, solve_recursion,
                      spectral_radius, wheel_limit_check)
from sdegraph.cli import main
from sdegraph.errors import SdegraphError
from sdegraph.families import FamilySpec, analytic_lambda1
from sdegraph.graph import DegreeSequence
from sdegraph.solver import Q_MAX, SdeBounds, SdeResult, solve_newton
from sdegraph.study import growth_trajectories

HUGE = 10**400  # past the float range
# and values inside most domains, so that each check sees results too
NUMBERS = (HUGE, -HUGE, 2**63, 10**12, 1e308, 5e-324, -5e-324, 1e-300, math.nan,
           math.inf, -math.inf, 0, 0.0, -1, -2.5, 1.9, 2.000000000002, 3, 3.0, 7,
           Fraction(1, HUGE))  # a positive real that converts to the float 0.0
# the same as command-line text, and a few spellings argparse or int() refuse
WORDS = ("1" + "0" * 400, "9223372036854775808", "1000000000000", "1e308", "5e-324",
         "nan", "inf", "-inf", "0", "-1", "-2.5", "", "0x10")


def q_ok(q):
    assert math.isnan(q) or q == math.inf or 2.0 <= q <= Q_MAX, q


def q_in_range(r):
    assert isinstance(r, SdeResult)
    q_ok(r.q)


def record(row):
    q_ok(row["sde_q"])


def bracket(b):
    assert isinstance(b, SdeBounds)
    assert 2.0 <= b.lower <= b.upper, b
    assert b.sharpened_upper is None or b.lower <= b.sharpened_upper <= b.upper, b


def real(x):
    assert isinstance(x, float)


def finite(x):
    assert isinstance(x, float) and math.isfinite(x), x


def histogram(ds):
    assert isinstance(ds, DegreeSequence)
    assert ds.n >= 1 and np.isfinite(ds.values).all()


def graph(g):
    """A returned graph keeps the invariants, and every query on it answers
    in range or with an SdegraphError."""
    assert_graph_invariants(g)
    assert g.degrees().shape == (g.n,) and len(g.links()) == g.num_links()
    histogram(g.histogram)
    for query, check in ((lambda: classify(g), None), (lambda: sde(g), q_in_range),
                         (lambda: spectral_radius(g), real), (lambda: g.weights, None),
                         (lambda: metric_suite(g), record)):
        try:
            result = query()
        except SdegraphError:
            continue
        if check is not None:
            check(result)


def records(items):
    for row in items:
        if not isinstance(row, SdegraphError):
            record(row)


P6 = generate("path:6")
# histograms with a valid lambda1 each: generic, biregular, with isolated
# nodes, regular, edgeless and weighted with a near-tie at d_max
HISTOGRAMS = [(P6.histogram, spectral_radius(P6)),
              (generate("star:6").histogram, math.sqrt(5)),
              (Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]).histogram, math.sqrt(3)),
              (cycle_graph(5).histogram, 2.0),
              (Graph.from_edges(3, []).histogram, 1.0),
              (degree_sequence([10.5, 10.5 * (1 - 1e-10), 7.25]), 10.5 * (1 - 6e-7))]
WEIGHTED = Graph.from_edges(4, [(0, 1, 2.5), (1, 2), (2, 3, 0.5)])
GRAPHS = [P6, WEIGHTED, Graph.from_edges(3, []), cycle_graph(4), Graph.from_edges(1, [])]
SPECS = [f"{kind}:{{}}" for kind in ("path", "wheel", "star", "complete", "fork", "lollipop")]
SPECS += ["kbip:{}:3", "kbip:2:{}", "bireg:{}:6:3", "bireg:4:{}:3", "bireg:4:6:{}"]
RANDOM_SPECS = ["er:{}:0.5:1", "er:8:{}:1", "er:8:0.5:{}", "ba:{}:2:1", "ba:8:{}:1",
                "ba:8:2:{}"]


def spec_text(x):
    return str(x) if isinstance(x, (int, Fraction)) else format(x, "g")


def lambda1_and_tol_calls():
    """(call of one junk value, check) for every function of lambda1 or tol_q."""
    calls = []
    for ds, lam in HISTOGRAMS:
        calls.append((lambda x, ds=ds: bounds(ds, x), bracket))
        # a numpy scalar, as eigvalsh gives, divides with numpy's warnings
        calls.append((lambda x, ds=ds: bounds(ds, np.float64(x) if isinstance(x, float) else x),
                      bracket))
        calls.append((lambda x, ds=ds: f1(2.5, ds, x), real))
        calls.append((lambda x, ds=ds, lam=lam: f1(x, ds, lam), real))
        for solve in (solve_newton, solve_bisection, solve_recursion):
            calls.append((lambda x, ds=ds, solve=solve: solve(ds, x), q_in_range))
            calls.append((lambda x, ds=ds, lam=lam, solve=solve: solve(ds, lam, tol_q=x),
                          q_in_range))
    return calls


API = {
    "lambda1_and_tol_q": lambda1_and_tol_calls(),
    "sde": [(lambda x: sde(P6, lambda1=x), q_in_range),
            (lambda x: sde(P6, lambda1=x, verify=True), q_in_range),
            (lambda x: sde(WEIGHTED, lambda1=x), q_in_range)],
    "family_q": [(lambda x, s=s: family_q(s.format(spec_text(x))), q_in_range)
                 for s in SPECS],
    "generate": [(lambda x, s=s: generate(s.format(spec_text(x))), graph)
                 for s in SPECS + RANDOM_SPECS],
    "path_and_wheel_laws": [(path_q_asymptotic, finite), (path_q_exact, finite),
                            (wheel_limit_check, finite)],
    "lollipop_q_asymptotic": [(lambda x: lollipop_q_asymptotic(x, 2.9), finite),
                              (lambda x: lollipop_q_asymptotic(100, x), finite)],
    "parse_weighted_edge_list": [
        (lambda x, t=t: parse_weighted_edge_list(t.format(spec_text(x))), graph)
        for t in ("n={}\n0 1\n", "0 {}\n", "{} 1 2\n", "0 1 {}\n1 2\n", "n=3\n0 2 {}\n")],
    "parse_graph6": [(lambda x: parse_graph6(spec_text(x)), graph)],
    "Graph.from_edges": [(lambda x: Graph.from_edges(x, [(0, 1), (1, 2)]), graph),
                         (lambda x: Graph.from_edges(x, []), graph),
                         (lambda x: Graph.from_edges(4, [(x, 1)]), graph),
                         (lambda x: Graph.from_edges(4, [(0, 1, x), (1, 2)]), graph)],
    "Graph.scaled": [(lambda x, g=g: g.scaled(x), graph) for g in GRAPHS],
    "add_link": [(lambda x: add_link(P6, x, 3), graph), (lambda x: add_link(P6, 0, x), graph),
                 (lambda x: add_link(P6, 0, 3, x), graph),
                 (lambda x: add_link(WEIGHTED, 0, 3, x), graph)],
}


@pytest.mark.parametrize("name", API)
def test_numeric_parameters_answer_in_range_or_raise_typed(name):
    for call, check in API[name]:
        for x in NUMBERS:
            try:
                result = call(x)
            except SdegraphError:
                continue
            check(result)


ARRAYS = [np.array([]), np.array([], dtype=np.int64), np.array([np.nan, 1.0]),
          np.array([np.inf, 1.0]), np.array([1.0, -np.inf]), np.array([-1, 2]),
          np.array([3, 2, 2]), np.array([1.0, 0.0]), np.array([2**62, 1]),
          np.array([5e-324, 1.0]), np.array([1e308, 1e308]), np.array([-2.5, 0.0]),
          np.array([2**63, 1], dtype=np.uint64),
          # Python lists: one holding an int past the float range is an object array
          [HUGE, 1], [1.0, -HUGE], [0, HUGE], [3, 2, 2], ["x", 1],
          # ragged rows, and complex entries that numpy would cast to their real parts
          [[1], [2, 3]], np.array([1j, 2]), np.array([1 + 1j, 1 + 1j]), [1 + 1j, 2]]


@pytest.mark.parametrize("index", range(len(ARRAYS)))
def test_array_parameters_answer_in_range_or_raise_typed(index):
    a = ARRAYS[index]
    try:
        values = np.asarray(a)
    except ValueError:  # ragged rows: an object array of the rows
        values = np.asarray(a, dtype=object)
    size = values.size
    # w_ij = a_min(i,j)
    symmetric = values[np.minimum.outer(np.arange(size), np.arange(size))]
    np.fill_diagonal(symmetric, 0)
    calls = [
        (lambda: degree_sequence(a), histogram),
        (lambda: Graph.from_dense(np.diag(values)), graph),
        (lambda: Graph.from_dense(symmetric), graph),
        (lambda: Graph.from_dense(symmetric.tolist()), graph),
        (lambda: Graph.from_edges(3, [a]), graph),
    ]
    for call, check in calls:
        try:
            result = call()
        except SdegraphError:
            continue
        check(result)


# integer parameters, two junk values at a time: integral and not, numpy
# scalars, fractions, decimals, strings, None and complex numbers
JUNK = st.one_of(st.sampled_from(NUMBERS), st.integers(-3, 40), st.floats(-50, 50),
                 st.sampled_from((np.int64(6), np.float64(4.0), np.float64(math.nan),
                                  Fraction(9, 2), Fraction(6), Decimal("5"), Decimal("5.5"),
                                  Decimal("nan"), True, "5", None, 3 + 0j)))
# a count of work (trials) that the rules admit stays small
TRIALS = st.one_of(st.integers(-3, 3), st.sampled_from((math.nan, math.inf, -math.inf, 1.5,
                                                        2.0, np.int64(2), "2", None, 1j)))


# real parameters: reals, and the non-real values that reached a range test
# as an untyped TypeError (strings, None, complex numbers and decimals)
REALS = st.one_of(st.sampled_from(NUMBERS), st.floats(-10, 10),
                  st.sampled_from(("0.5", "x", "", None, 1j, 2.5 + 0j, np.complex128(0.5),
                                   Decimal("0.5"), Decimal("nan"), Fraction(1, 2),
                                   np.float64(0.5), np.float32(2.5), np.int64(3), True)))
INDEX = st.integers(0, len(HISTOGRAMS) - 1)


def rows(items):
    for row in items:
        q_ok(row[3])


def closed_form(lam):
    assert lam is None or (isinstance(lam, float) and math.isfinite(lam)), lam


PAIRS = {
    "kbip": (lambda x, y: family_q(FamilySpec("kbip", (x, y))), JUNK, JUNK, q_in_range),
    "bireg": (lambda x, y: generate(FamilySpec("bireg", (x, 6, y))), JUNK, JUNK, graph),
    "bireg_lambda1": (lambda x, y: analytic_lambda1(FamilySpec("bireg", (4, x, y))), JUNK, JUNK,
                      closed_form),
    "er_size_and_seed": (lambda x, y: generate(FamilySpec("er", (x, 0.5, y))), JUNK, JUNK, graph),
    "ba_size_and_m": (lambda x, y: generate(FamilySpec("ba", (x, y, 1))), JUNK, JUNK, graph),
    "ba_m_and_seed": (lambda x, y: generate(FamilySpec("ba", (9, x, y))), JUNK, JUNK, graph),
    "growth_n_and_trials": (lambda x, y: growth_trajectories(x, y, 0), JUNK, TRIALS, rows),
    "growth_trials_and_seed": (lambda x, y: growth_trajectories(5, x, y), TRIALS, JUNK, rows),
    "from_edges_n_and_id": (lambda x, y: Graph.from_edges(x, [(y, 0)]), JUNK, JUNK, graph),
    "from_edges_ids": (lambda x, y: Graph.from_edges(4, [(x, y)]), JUNK, JUNK, graph),
    "add_link_ids": (lambda x, y: add_link(P6, x, y), JUNK, JUNK, graph),
    # the real parameters
    "er_p_and_seed": (lambda x, y: generate(FamilySpec("er", (8, x, y))), REALS, JUNK, graph),
    "f1_q_and_lambda1": (lambda x, y: f1(x, P6.histogram, y), REALS, REALS, real),
    "bounds_lambda1": (lambda x, y: bounds(HISTOGRAMS[y][0], x), REALS, INDEX, bracket),
    "newton_lambda1_and_tol_q": (lambda x, y: solve_newton(P6.histogram, x, tol_q=y), REALS,
                                 REALS, q_in_range),
    "bisection_tol_q": (lambda x, y: solve_bisection(*HISTOGRAMS[y], tol_q=x), REALS, INDEX,
                        q_in_range),
    "recursion_tol_q": (lambda x, y: solve_recursion(*HISTOGRAMS[y], tol_q=x), REALS, INDEX,
                        q_in_range),
    "sde_lambda1": (lambda x, y: sde(GRAPHS[y % len(GRAPHS)], lambda1=x), REALS, INDEX,
                    q_in_range),
    "lollipop_law": (lambda x, y: lollipop_q_asymptotic(x, y), REALS, REALS, finite),
    "path_laws": (lambda x, y: path_q_asymptotic(x) + path_q_exact(y), REALS, REALS, finite),
}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_integer_parameters_answer_pairs_of_junk_in_range_or_raise_typed(data):
    for name, (call, xs, ys, check) in PAIRS.items():
        x, y = data.draw(xs, label=f"{name} x"), data.draw(ys, label=f"{name} y")
        try:
            result = call(x, y)
        except SdegraphError:
            continue
        check(result)


def test_argument_free_names_and_item_streams(tmp_path):
    real(fork_q_constant())
    real(lollipop_limit_lambda1())
    records(metric_records([P6, WEIGHTED, Graph.from_edges(3, []), cycle_graph(4),
                            SdegraphError("kept in place")]))
    for g in GRAPHS:
        try:
            records([metric_suite(g)])
        except SdegraphError:
            pass
    path = tmp_path / "junk.g6"
    for text in ("", "E?\n", "~??~\n", "Bw\nB\n", ">>graph6<<A_\n", "A" * 3):
        path.write_text(text)
        try:
            for g in read_graph6_file(path):
                graph(g)
        except SdegraphError:
            pass


def test_every_public_name_is_swept():
    swept = {"bounds", "f1", "solve_bisection", "solve_recursion", "sde", "degree_sequence",
             "family_q", "generate", "path_q_asymptotic", "path_q_exact",
             "wheel_limit_check", "lollipop_q_asymptotic", "parse_weighted_edge_list",
             "parse_graph6", "Graph", "add_link", "fork_q_constant",
             "lollipop_limit_lambda1", "metric_records", "metric_suite",
             "read_graph6_file", "classify", "spectral_radius"}
    assert swept == set(sdegraph.__all__)


# CLI half


def cli_argvs(tmp_path):
    """Every subcommand with one numeric argument mutated at a time."""
    batch = tmp_path / "batch.g6"
    batch.write_text("Bw\nCr\nnot-a-graph\nDQc\n")
    argvs = []
    for w in WORDS:
        argvs += [["compute", "--family", s.format(w)] for s in SPECS + RANDOM_SPECS]
        for text in (f"n={w}\n0 1\n", f"0 {w}\n", f"0 1 {w}\n1 2\n"):
            path = tmp_path / f"edges-{len(argvs)}.txt"
            path.write_text(text)
            argvs.append(["compute", "--edge-list", str(path), "--json"])
        argvs.append(["compute", "--graph6", w or "?"])
        csv = tmp_path / f"rows-{len(argvs)}.csv"
        csv.write_text(f"a,sde_q\n1,2\n{w},3.5\n3,{w}\n4,5\n")
        argvs.append(["correlate", str(csv), "--json"])
        argvs.append(["asymptotics", "--family", "path", "--n-list", f"10,{w}"])
        argvs.append(["asymptotics", "--family", "lollipop", "--n-list", w])
        argvs.append(["ensemble", "--family", "er:8:0.5", "--count", "3", "--seed", w])
        argvs.append(["ensemble", "--family", f"ba:{w}:2", "--count", "2"])
        argvs.append(["ensemble", "--family", f"er:8:{w}", "--count", "2"])
        argvs.append(["nonmonotonic", "--n", "5", "--trials", "1", "--seed", w])
    # counts, trials, star sizes and workers stay small: each is work to do; a
    # star size past the size rule is refused before anything is allocated
    for w in WORDS[:3]:
        argvs.append(["nonmonotonic", "--n", w, "--trials", "1"])
    for w in ("-1", "0", "1", "2", "nan", ""):
        argvs.append(["batch", str(batch), "--jobs", w])
        argvs.append(["ensemble", "--family", "er:8:0.5", "--count", w])
        argvs.append(["nonmonotonic", "--n", w or "4", "--trials", "1"])
        argvs.append(["nonmonotonic", "--n", "5", "--trials", w])
    return argvs


def test_cli_exits_0_2_or_3_without_traceback(tmp_path, capsys):
    for argv in cli_argvs(tmp_path):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the text: usage, exit 2
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
