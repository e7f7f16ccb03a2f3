import math
import threading
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sdegraph.solver as solver_module
from conftest import FIXTURE_N7, cycle_graph, k4_plus_p3, random_er
from sdegraph import (Graph, bounds, classify, degree_sequence, f1, fork_q_constant,
                      generate, read_graph6_file, sde, solve_bisection, solve_recursion,
                      spectral_radius)
from sdegraph.errors import AllDegreesZero, InvalidGraph, NoConvergence, RegularGraph
from sdegraph.graph import Generic
from sdegraph.solver import Q_MAX, SdeResult, _f1_on_histogram, _prepare, solve_newton
from sdegraph.spectral import full_spectrum


def _ds_lam(g, lam=None):
    ds = degree_sequence(g.degrees())
    if lam is None:
        lam = full_spectrum(g)[0][0]
    return ds, lam


def rms_degree(ds):
    return math.sqrt(float((ds.counts * ds.values ** 2).sum()) / ds.n)


def connected_er(rng, n, p):
    from sdegraph.graph import connected_components
    while True:
        g = random_er(rng, n, p)
        degs = g.degrees()
        if degs.max() == degs.min():
            continue
        if not connected_components(g).any():
            return g


# f1


def test_f1_regular_is_identically_zero():
    ds, _ = _ds_lam(cycle_graph(4))
    for q in (2.0, 5.0, 17.0):
        assert abs(f1(q, ds, 2.0)) < 1e-12


def test_f1_star_zero_at_two():
    g = generate("star:6")
    ds = degree_sequence(g.degrees())
    assert abs(f1(2.0, ds, math.sqrt(5))) < 1e-12


def test_f1_p3_arithmetic():
    # 2 log sqrt2 + log 3 - log 6 == 0
    ds = degree_sequence(generate("path:3").degrees())
    assert abs(f1(2.0, ds, math.sqrt(2))) < 1e-12


def test_f1_errors():
    with pytest.raises(AllDegreesZero):
        f1(2.0, degree_sequence(Graph.from_edges(3, []).degrees()), 1.0)
    ds = degree_sequence(generate("path:3").degrees())
    with pytest.raises(InvalidGraph):
        f1(2.0, ds, 0.0)


def test_f1_ignores_zero_degrees():
    # star plus isolated node: the isolated node adds to N but not the sum
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    ds = degree_sequence(g.degrees())
    val = f1(3.0, ds, 2.0)
    manual = 3 * math.log(2.0) + math.log(5) - math.log(3.0 ** 3 + 3 * 1.0)
    assert abs(val - manual) < 1e-12


# bounds


def test_bounds_star10_upper():
    g = generate("star:10")
    ds = degree_sequence(g.degrees())
    b = bounds(ds, 3.0)  # lambda1 = sqrt(9) = 3 exactly
    assert abs(b.upper - math.log(10) / math.log(3)) < 1e-12
    assert b.lower == 2.0  # biregular: raw lower bound clamps to 2
    assert b.sharpened_upper is not None
    assert 2.0 <= b.sharpened_upper <= b.upper


def test_bounds_sandwich_p5():
    g = generate("path:5")
    ds, lam = _ds_lam(g)
    b = bounds(ds, lam)
    q = solve_bisection(ds, lam).q
    assert b.lower <= q <= b.upper
    assert b.sharpened_upper is not None and q <= b.sharpened_upper + 1e-12


def test_bounds_errors():
    ds, _ = _ds_lam(cycle_graph(5))
    with pytest.raises(RegularGraph):
        bounds(ds, 2.0)
    ds2 = degree_sequence(k4_plus_p3().degrees())
    with pytest.raises(RegularGraph):
        bounds(ds2, 3.0)  # lambda1 at d_max


@pytest.mark.parametrize("r", [6e-7, 8e-7, 1e-6])
def test_bounds_upper_counts_only_exact_top_degree(r):
    # a non-integral near-tie merged into ds.c must not pull the upper
    # bounds below the root (675,774.98 < 675,831.30 at r = 6e-7 when they
    # counted ds.c = 2 instead of the one node at exactly d_max)
    ds = degree_sequence([10.5, 10.5 * (1 - 1e-10), 7.25])
    assert ds.c == 2 and ds.counts[0] == 1
    lam = 10.5 * (1 - r)
    b = bounds(ds, lam)
    q = solve_newton(ds, lam).q
    assert b.lower <= q <= b.upper
    assert q <= b.sharpened_upper


def test_bounds_no_sharpened_with_isolated_node():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    ds, lam = _ds_lam(g)
    assert ds.d_min == 0
    assert bounds(ds, lam).sharpened_upper is None


# bisection


def test_bisection_biregular_k34():
    ds = degree_sequence(generate("kbip:3:4").degrees())
    r = solve_bisection(ds, math.sqrt(12))
    assert abs(r.q - 2.0) <= 1e-9
    assert r.method == "bisection"


def test_bisection_fork_constant():
    g = generate("fork:9")
    ds = degree_sequence(g.degrees())
    r = solve_bisection(ds, 2.0)
    assert abs(r.q - fork_q_constant()) <= 2e-9
    assert abs(r.q - 2.36864) <= 1e-4


def test_bisection_infinite_on_clique_component():
    ds = degree_sequence(k4_plus_p3().degrees())
    r = solve_bisection(ds, 3.0)
    assert r.is_infinite


def test_bisection_infinite_on_dmax_regular_component():
    # C_4 + P_3: lambda1 = d_max = 2 but no clique; numerically infinite
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)])
    ds, lam = _ds_lam(g)
    assert abs(lam - 2.0) < 1e-12
    assert solve_bisection(ds, lam).is_infinite


def test_bisection_residual_small(rng):
    g = connected_er(rng, 30, 0.2)
    ds, lam = _ds_lam(g)
    r = solve_bisection(ds, lam)
    assert r.residual <= 1e-8
    assert r.iterations > 0


def test_bisection_stops_at_the_float_spacing():
    # tol_q far below the float spacing at q (4.4e-16 near 2.37): halving
    # stops once the midpoint equals an end of the bracket
    g = generate("fork:9")
    ds, lam = degree_sequence(g.degrees()), spectral_radius(g)
    results = []
    worker = threading.Thread(
        target=lambda: results.append(solve_bisection(ds, lam, tol_q=1e-17)), daemon=True)
    worker.start()
    worker.join(timeout=20)
    assert not worker.is_alive(), "bisection did not return"
    r = results[0]
    assert r.iterations <= 60
    assert abs(r.q - solve_newton(ds, lam).q) <= 1e-9


def test_bisection_tol_validation():
    ds = degree_sequence(generate("path:5").degrees())
    with pytest.raises(InvalidGraph):
        solve_bisection(ds, 1.7, tol_q=1e-3)


@pytest.mark.parametrize("tol_q", [1e-9, 1e-6])
@pytest.mark.parametrize("solve", [solve_bisection, solve_newton, solve_recursion])
def test_solvers_iterate_on_numpy_reals_as_python_floats(solve, tol_q):
    # np.float32 lambda1 and tol_q give the q of the Python floats they hold;
    # iterating on the raw np.float32 tol_q, Newton did not certify q at 1e-9
    # and the recursion returned an np.float32 q at 1e-6
    ds = degree_sequence(generate("path:6").degrees())
    lam, tol = np.float32(2 * math.cos(math.pi / 7)), np.float32(tol_q)
    got = solve(ds, lam, tol_q=tol)
    assert type(got.q) is float
    assert got.q.hex() == solve(ds, float(lam), tol_q=float(tol)).q.hex()


# newton

TOL_Q = 1e-9


@st.composite
def histograms_and_lambda1(draw):
    """A non-regular degree sequence from (degree, count) pairs, integral or
    weighted, and lambda1 between sqrt(mean d^2) (where q = 2) and d_max."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 160), st.integers(1, 25)),
                          min_size=2, max_size=12, unique_by=lambda p: p[0]))
    degs = np.repeat([float(d) for d, _ in pairs], [k for _, k in pairs])
    if draw(st.booleans()):  # weighted: quarter steps times an arbitrary scale
        degs = degs / 4.0 * draw(st.floats(0.01, 100.0))
    assume(degs.max() > 0)
    ds = degree_sequence(degs)
    assume(ds.c < ds.n)
    m2 = math.sqrt(float(np.mean(degs ** 2)))
    return ds, m2 + draw(st.floats(0.0, 1.0)) * (ds.d_max - m2)


def newton_evaluations(ds, lam):
    """solve_newton's result (or its NoConvergence) and every q at which it
    evaluated f1, in order, the f1(2) test first."""
    calls = []
    real = solver_module._f1_on_histogram

    def spy(ds_, lam_):
        evaluate, q_top = real(ds_, lam_)

        def recorded(q):
            calls.append(q)
            return evaluate(q)
        return recorded, q_top

    with mock.patch.object(solver_module, "_f1_on_histogram", spy):
        try:
            result = solve_newton(ds, lam, tol_q=TOL_Q)
        except NoConvergence as exc:
            result = exc
    return result, calls


def newton_iterates(ds, lam):
    """solve_newton's result (or its NoConvergence) and its iterates: the
    evaluations after the f1(2) test without the certificate evaluations
    at q - tol_q, which follow only an iterate reached by a step of at
    most tol_q (a longer step can itself land exactly tol_q lower)."""
    result, calls = newton_evaluations(ds, lam)
    iterates = []
    for q in calls[calls.index(2.0) + 1:] if 2.0 in calls else []:
        if not (len(iterates) >= 2 and q == iterates[-1] - TOL_Q
                and abs(iterates[-2] - iterates[-1]) <= TOL_Q):
            iterates.append(q)
    return result, iterates


def documented_refusal(ds, lam, iterates):
    """Whether the iterates of a Newton run that raised NoConvergence show
    a refusal that solve_newton documents: f1 changing by at most twice
    its rounding r across tol_q at the last iterate, or the step cap."""
    evaluate, _ = solver_module._f1_on_histogram(ds, lam)
    _, slope, rounding = evaluate(iterates[-1])
    return (-slope * TOL_Q <= 2.0 * rounding
            or len(iterates) > solver_module._MAX_STEPS)


@settings(max_examples=300, deadline=None)
@given(histograms_and_lambda1())
# a root near Q_MAX: the converged iterates alternate between two floats,
# neither certifies, and Newton refuses at the step cap
@example((degree_sequence([10.0] * 2 + [8.0] * 6), 9.999985440037452))
# the start lies on the root within rounding: Newton's first step moves up
@example((degree_sequence([10.0] * 3 + [8.0]), 9.999995393920141))
def test_newton_matches_bisection_and_certifies(case):
    ds, lam = case
    newton, iterates = newton_iterates(ds, lam)
    bisection = solve_bisection(ds, lam, tol_q=TOL_Q)
    if isinstance(newton, NoConvergence):
        assert documented_refusal(ds, lam, iterates)
        return
    assert newton.method == "newton"
    assert newton.is_infinite == bisection.is_infinite
    if newton.is_infinite:
        assert newton.note == bisection.note
        return
    assert (newton.q == 2.0) == (bisection.q == 2.0)
    assert abs(newton.q - bisection.q) <= TOL_Q
    if newton.iterations == 0:
        return
    q = newton.q
    # the certificate: the root lies in [q - tol_q, q]
    assert f1(q, ds, lam) <= 0.0
    assert q - TOL_Q <= 2.0 or f1(q - TOL_Q, ds, lam) > 0.0
    # descent from the start to q; near the root rounding can move an
    # iterate up, by a Newton step within the aim band (1.5 r / |slope|)
    # or by the one-ulp nextafter move, and below q by at most tol_q
    _, slope, rounding = solver_module._f1_on_histogram(ds, lam)[0](q)
    rise = max(4 * math.ulp(q), 1.5 * rounding / abs(slope))
    near = next(i for i, x in enumerate(iterates) if x <= q + rise)
    descent = iterates[:near + 1]
    assert all(b <= a for a, b in zip(descent, descent[1:]))
    assert all(q - TOL_Q <= x <= q + rise for x in iterates[near:])
    assert newton.iterations == len(iterates) - 1


STAR6 = degree_sequence(generate("star:6").degrees())
K4_P3 = degree_sequence(k4_plus_p3().degrees())
P5 = degree_sequence(generate("path:5").degrees())


@pytest.mark.parametrize("ds, lam, tol_q", [
    (K4_P3, 3.0, TOL_Q),                        # lambda1 at d_max: inf
    (K4_P3, 3.0 * (1 - 1e-8), TOL_Q),           # q0 above Q_MAX: inf
    (STAR6, math.sqrt(5) * (1 - 1e-6), TOL_Q),  # f1(2) < 0: exactly 2
    (degree_sequence(Graph.from_edges(3, []).degrees()), 1.0, TOL_Q),  # all degrees zero
    (P5, 1.7, 1e-3),                            # tol_q out of range
    (P5, 1.7, 0.0),
    (P5, 0.0, TOL_Q),                           # lambda1 not positive
    (degree_sequence(cycle_graph(5).degrees()), 1.5, TOL_Q),  # regular
], ids=["lambda1_at_dmax", "q_max", "exactly_2", "all_zero", "tol_high",
        "tol_zero", "lambda1_zero", "regular"])
def test_newton_edge_cases_match_bisection(ds, lam, tol_q):
    outcomes = []
    for solve in (solve_newton, solve_bisection):
        try:
            r = solve(ds, lam, tol_q=tol_q)
            outcomes.append((r.q, r.iterations, r.note))
        except (InvalidGraph, RegularGraph, AllDegreesZero) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


FORK9 = degree_sequence(generate("fork:9").degrees())


@pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda ds, lam: sde(generate("fork:9"), lambda1=lam),
    solve_newton, solve_bisection, solve_recursion, bounds,
    lambda ds, lam: f1(2.5, ds, lam),
], ids=["sde", "newton", "bisection", "recursion", "bounds", "f1"])
def test_non_finite_lambda1_is_invalid(call, lam):
    # NaN once gave q = 2 from bisection, NaN bounds and NoConvergence from
    # Newton; inf gave q = inf ("lambda1 at d_max") and a ZeroDivisionError in f1
    with pytest.raises(InvalidGraph):
        call(FORK9, lam)


P6 = degree_sequence(generate("path:6").degrees())


@pytest.mark.parametrize("lam", [5e-324, 1e-300, 1e308, 10**400],
                         ids=["subnormal", "tiny", "huge", "past_float"])
def test_lambda1_witness_gets_one_answer_from_every_entry_point(lam):
    # at 5e-324 f1 gave NaN, bounds an upper 0.0 below the lower 2.0,
    # bisection q = 1.0 and Newton and the recursion NoConvergence; at 1e-300
    # bounds gave upper 5.9e-4 below lower 2; at 1e308 f1 raised
    # ZeroDivisionError while the solvers gave inf; 10**400 raised
    # OverflowError everywhere
    calls = {"f1": lambda: f1(2.0, P6, lam), "bounds": lambda: bounds(P6, lam),
             **{s.__name__: lambda s=s: s(P6, lam)
                for s in (solve_newton, solve_bisection, solve_recursion)}}
    outcomes = {}
    for name, call in calls.items():
        try:
            outcomes[name] = call()
        except InvalidGraph as exc:
            outcomes[name] = type(exc)
    if InvalidGraph in outcomes.values():  # outside lambda1's domain: every one refuses
        assert set(outcomes.values()) == {InvalidGraph}, outcomes
        return
    # inside it: f1(2) <= 0, so every solver gives exactly 2, inside [2, 2]
    b = outcomes.pop("bounds")
    assert outcomes.pop("f1") <= 0.0
    assert {r.q for r in outcomes.values()} == {2.0}
    assert b.lower == b.upper == b.sharpened_upper == 2.0


def test_newton_fork_constant():
    r = solve_newton(FORK9, 2.0)
    assert r.method == "newton" and r.iterations > 0
    assert abs(r.q - 2.36864027979053) <= 1e-12


def exact_f1(q, ds, lam):
    """f1 in 50-digit decimal arithmetic on the exact binary values of q,
    lambda1 and the degrees."""
    with localcontext() as ctx:
        ctx.prec = 50
        log_lam = Decimal(lam).ln()
        total = sum(int(k) * (Decimal(q) * (Decimal(float(d)).ln() - log_lam)).exp()
                    for d, k in zip(ds.values, ds.counts) if d > 0)
        return float(Decimal(ds.n).ln() - total.ln())


@st.composite
def near_regular_and_lambda1(draw):
    """Weighted degrees within 10^-k relative of d_max = 5 (k in 2..9) and
    lambda1 between sqrt(mean d^2) and d_max: f1 and its slope are tiny at
    the root, and the rounding of f1 decides whether q can be certified."""
    spread = 10.0 ** -draw(st.integers(2, 9))
    below = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=30))
    degs = np.array([5.0] * draw(st.integers(1, 30)) + [5.0 * (1 - spread * u) for u in below])
    ds = degree_sequence(degs)
    assume(ds.c < ds.n)
    m2 = math.sqrt(float(np.mean(degs ** 2)))
    return ds, m2 + draw(st.floats(0.0, 1.0)) * (ds.d_max - m2)


@settings(max_examples=150, deadline=None)
@given(near_regular_and_lambda1())
# q0 above Q_MAX with f1(Q_MAX) <= 0: Newton starts at Q_MAX and reaches a
# root near 114.7 where f1 moves by 1/700 of its rounding across tol_q
@example((degree_sequence([5.0, 4.9999999875]), 4.99999999375))
# Newton settles on one float near 844,226 that fails the certificate, and
# the step cap refuses it
@example((degree_sequence([5.0, 4.99995625]), 4.999995898446472))
# f1 changes by 2.1r across tol_q: Newton aims at the window's centre
@example((degree_sequence([5.0, 5.0, 4.999981005475942]), 4.999994703393727))
def test_newton_certificate_holds_in_exact_arithmetic(case):
    # Newton certifies with a margin of the rounding estimate r on each
    # side, so the exact f1 keeps the certificate's signs unless its float
    # value is off by more than r; this checks them to within 2r (errors
    # against the exact f1 stayed below 1.3r on ~5,000 such inputs). Where
    # f1 is flat across tol_q Newton says so at once; the step cap refuses
    # only iterates that have settled within tol_q without a certificate
    # (there f1 changes by 2r to 3.3r across tol_q: about 0.5% of uniform
    # draws of these inputs).
    ds, lam = case
    result, calls = newton_evaluations(ds, lam)
    if isinstance(result, NoConvergence):
        if "rounding" in str(result):
            assert len(calls) < 60
        else:
            assert f"within {solver_module._MAX_STEPS} steps" in str(result)
            _, iterates = newton_iterates(ds, lam)
            assert max(iterates[-10:]) - min(iterates[-10:]) <= TOL_Q
        return
    if not result.is_finite or result.q == 2.0:
        return
    evaluate, _ = solver_module._f1_on_histogram(ds, lam)
    q = result.q
    assert exact_f1(q, ds, lam) <= evaluate(q)[2]
    assert q - TOL_Q <= 2.0 or exact_f1(q - TOL_Q, ds, lam) > -evaluate(q - TOL_Q)[2]


# f1 changes by 2r to 2.5r across tol_q at the root (r its rounding
# estimate): the aim f1 = -1.5r lies outside the window where q certifies,
# and Newton aimed there ran to the step cap
NARROW_WINDOWS = [
    (degree_sequence([5.0, 5.0, 4.999981005475942]), 4.999994703393727),
    (degree_sequence([5.0, 4.999970101518717, 4.999992944779249, 4.999955583066125]),
     4.999993402444939),
]


@pytest.mark.parametrize("ds, lam", NARROW_WINDOWS, ids=["q138k", "q846k"])
def test_newton_aims_inside_a_narrow_window(ds, lam):
    bisection = solve_bisection(ds, lam, tol_q=TOL_Q)
    _, slope, rounding = _f1_on_histogram(ds, lam)[0](bisection.q)
    assert 2.0 * rounding < -slope * TOL_Q <= 2.5 * rounding
    newton = solve_newton(ds, lam, tol_q=TOL_Q)  # aimed at the window's centre
    assert abs(newton.q - bisection.q) <= TOL_Q


@settings(max_examples=150, deadline=None)
@given(st.one_of(histograms_and_lambda1(), near_regular_and_lambda1()))
@example(NARROW_WINDOWS[0])
# f1 is linear (one positive degree), with its root at 2 up to rounding
@example((degree_sequence([1.0] * 12 + [0.0]), 0.9607689228305228))
def test_tangent_start_is_an_upper_bound(case):
    # f1 is concave, so its tangent at q = 2 lies above it and crosses zero
    # at or above the root. The tangent is drawn from the computed f1(2),
    # so at the start f1 is at most the rounding of f1(2) plus its own
    ds, lam = case
    early, evaluate, start, _, _ = _prepare(ds, lam, TOL_Q, "newton")
    if early is not None:
        return
    value, _, rounding = evaluate(start)
    assert value <= rounding + evaluate(2.0)[2]
    assert start <= min(_f1_on_histogram(ds, lam)[1], Q_MAX)


# the sum of SdeResult.iterations over the N=7 corpus when Newton started at
# q_top, before it started at the tangent bound (3,901 since)
N7_ITERATIONS_FROM_Q_TOP = 4828


def test_tangent_start_on_the_n7_corpus():
    iterations = 0
    for g in read_graph6_file(FIXTURE_N7):
        lam = full_spectrum(g)[0][0]
        result = sde(g, lambda1=lam)
        iterations += result.iterations
        if result.method == "newton":
            early, evaluate, start, _, _ = _prepare(g.histogram, lam, TOL_Q, "newton")
            if early is None:
                value, _, rounding = evaluate(start)
                assert value <= rounding
    assert iterations < N7_ITERATIONS_FROM_Q_TOP


@pytest.mark.parametrize("spread", [1e-3, 1e-5, 1e-7])
def test_f1_rounding_follows_distance_from_lambda1(spread):
    # degrees 5 and 5(1 - spread): relative to lambda1 the rounding of f1
    # shrinks with the spread (relative to d_max it stays ~1e-16), and the
    # estimate returned with f1 tracks the error against the exact value
    ds = degree_sequence([5.0] * 3 + [5.0 * (1 - spread)] * 4)
    m2 = rms_degree(ds)
    lam = m2 + 0.3 * (ds.d_max - m2)
    evaluate, _ = solver_module._f1_on_histogram(ds, lam)
    for q in (2.0, 3.0, 10.0):
        value, _, rounding = evaluate(q)
        assert abs(value - exact_f1(q, ds, lam)) <= 2 * rounding
        assert rounding <= 1e-14 * spread


def complete_with_heavy_link(n, weight):
    adjacency = np.ones((n, n)) - np.eye(n)
    adjacency[0, 1] = adjacency[1, 0] = weight
    return Graph.from_dense(adjacency)


def test_newton_certifies_perturbed_complete_graph():
    # K5 with one link of weight 1 + 1e-3: f1 changes ~70 times its
    # rounding across tol_q, so Newton certifies the root and agrees with
    # bisection
    g = complete_with_heavy_link(5, 1 + 1e-3)
    r = sde(g)
    assert r.method == "newton" and r.is_finite
    ds, lam = degree_sequence(g.degrees()), spectral_radius(g)
    assert f1(r.q, ds, lam) <= 0.0 < f1(r.q - TOL_Q, ds, lam)
    assert abs(r.q - solve_bisection(ds, lam).q) <= TOL_Q
    assert 2.6 < r.q < 2.6003


def test_newton_refuses_perturbed_complete_graph_it_cannot_certify():
    # K5 with one link of weight 1 + 1e-5: across tol_q f1 changes by less
    # than twice its rounding (~0.7 of it), so no float64 evaluation
    # certifies [q - tol_q, q]. The default solver, and so sde() and
    # `sde compute`, raise NoConvergence (exit 3) on the first converged
    # iterate; bisection still returns an uncertified q.
    g = complete_with_heavy_link(5, 1 + 1e-5)
    ds, lam = degree_sequence(g.degrees()), spectral_radius(g)
    result, calls = newton_evaluations(ds, lam)
    assert isinstance(result, NoConvergence) and "rounding" in str(result)
    assert len(calls) < 40
    with pytest.raises(NoConvergence):
        sde(g)
    assert solve_bisection(ds, lam).is_finite


@pytest.mark.xfail(strict=True, reason="f1(2) <= 0 from lambda1's rounding returns "
                                       "an uncertified q = 2")
@pytest.mark.parametrize("n, truth", [(15, 2.86666674746), (20, 2.900000062)])
def test_perturbed_complete_graph_is_not_pinned_to_two(n, truth):
    # K_n with one link of weight 1 + 1e-6 is not biregular, so q > 2. The
    # truths are the root of the defining equation at 60 digits (mpmath),
    # with lambda1 the top eigenvalue of the equitable partition's 2x2
    # quotient matrix [[w, n - 2], [2, n - 3]], w the stored weight. Today
    # the computed lambda1 makes f1(2) about -1e-15, far beyond f1's own
    # rounding estimate (~1e-23), and every solver returns exactly 2.
    assert abs(sde(complete_with_heavy_link(n, 1 + 1e-6)).q - truth) <= 1e-6


def exact_root(ds, lam):
    """The root of the 50-digit f1 (see exact_f1) in [2, 10], bisected to 1e-12."""
    lo, hi = 2.0, 10.0
    assert exact_f1(lo, ds, lam) > 0.0 >= exact_f1(hi, ds, lam)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if exact_f1(mid, ds, lam) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n, eps, above", [(8, 1e-5, True), (30, 1e-4, False),
                                           (50, 1e-4, True)])
def test_q0_above_q_max_gives_inf_only_on_evidence(n, eps, above):
    # K_n with one link of weight 1 + eps: the root is below 3 while the
    # bound q0 is near or above Q_MAX. f1(Q_MAX) <= 0, so no solver reports
    # inf; bisection finds the exact root, and Newton and the recursion
    # certify it or say that they cannot
    g = complete_with_heavy_link(n, 1 + eps)
    ds, lam = degree_sequence(g.degrees()), spectral_radius(g)
    assert (bounds(ds, lam).upper > Q_MAX) == above
    root = exact_root(ds, lam)
    assert abs(solve_bisection(ds, lam).q - root) <= TOL_Q
    try:
        assert not solve_recursion(ds, lam).is_infinite
    except NoConvergence as exc:
        assert "recursion" in str(exc)
    try:
        q = solve_newton(ds, lam).q
    except NoConvergence as exc:
        assert "rounding" in str(exc)
        return
    assert q - TOL_Q <= root <= q


# 10.5 and 10.5(1 - 1e-10) merged by degree_sequence into c = 2 top nodes
NEAR_TIE = degree_sequence([10.5, 10.5 * (1 - 1e-10), 7.25])


@pytest.mark.parametrize("r", [6e-7, 8e-7, 1e-6])
def test_solvers_agree_where_near_ties_are_merged(r):
    # log(N/c)/log(d_max/lambda1) with the merged c is no upper bound here
    # (675,775 against the root 675,831 at r = 6e-7); every solver starts
    # from the count at exactly d_max, so none reports inf or stops short
    assert NEAR_TIE.c == 2
    lam = 10.5 * (1 - r)
    qs = [solve(NEAR_TIE, lam, tol_q=TOL_Q).q
          for solve in (solve_newton, solve_bisection, solve_recursion)]
    assert all(math.isfinite(q) for q in qs)
    assert max(qs) - min(qs) <= TOL_Q
    assert f1(qs[0], NEAR_TIE, lam) <= 0.0 < f1(qs[0] - TOL_Q, NEAR_TIE, lam)


# recursion


def test_recursion_matches_bisection_er(rng):
    for _ in range(10):
        g = connected_er(rng, 50, 0.2)
        ds, lam = _ds_lam(g)
        qb = solve_bisection(ds, lam).q
        rr = solve_recursion(ds, lam)
        assert rr.method == "recursion"
        assert abs(rr.q - qb) <= 2e-9
        assert rr.iterations <= 20


def test_recursion_biregular_reaches_two():
    ds = degree_sequence(generate("kbip:2:5").degrees())
    r = solve_recursion(ds, math.sqrt(10))
    assert abs(r.q - 2.0) <= 2e-9


def test_recursion_star_starts_at_upper_bound():
    ds = degree_sequence(generate("star:10").degrees())
    q0 = math.log(10) / math.log(3)  # 2.0959...
    r = solve_recursion(ds, 3.0)
    assert abs(r.q - 2.0) <= 2e-9
    assert q0 > r.q  # the start value is an upper bound


def test_recursion_infinite_guard():
    ds = degree_sequence(k4_plus_p3().degrees())
    assert solve_recursion(ds, 3.0).is_infinite


@pytest.mark.parametrize("spec", ["fork:9", "ER(50, 0.2)"])
def test_recursion_map_is_the_papers_formula(spec, rng):
    # the paper's recursion, with the degrees d_1 >= ... >= d_N and the c
    # nodes at d_max first, is
    # q_k = [log N - log(c + sum_{i > c} (d_i/d_max)^q_{k-1})] / log(d_max/lambda1);
    # its right-hand side equals q + f1(q)/log(d_max/lambda1), the map
    # solve_recursion iterates, and the solved q is its fixed point
    if spec == "fork:9":
        g, lam = generate(spec), 2.0
    else:
        g = connected_er(rng, 50, 0.2)
        lam = full_spectrum(g)[0][0]
    ds = degree_sequence(g.degrees())
    d = sorted(g.degrees().tolist(), reverse=True)
    n, d_max = len(d), d[0]
    c = d.count(d_max)

    def paper(q):
        return ((math.log(n) - math.log(c + sum((d_i / d_max) ** q for d_i in d[c:])))
                / math.log(d_max / lam))

    for q in (2.0, 3.0, 7.0):
        assert abs(q + f1(q, ds, lam) / math.log(d_max / lam) - paper(q)) <= 1e-12 * paper(q)
    r = solve_recursion(ds, lam)
    assert abs(paper(r.q) - r.q) <= 2e-9


@pytest.mark.parametrize("n, eps", [(8, 1e-5), (50, 1e-4), (5, 1e-3), (10, 1e-2)])
def test_recursion_certifies_or_raises(n, eps):
    # near-regular degrees: the map's rate is near 1, and a step of at most
    # tol_q once returned q 3.2e-4 from the root on K8/1e-5; a returned q
    # now carries Newton's certificate, so it is within tol_q of bisection
    g = complete_with_heavy_link(n, 1 + eps)
    ds, lam = degree_sequence(g.degrees()), spectral_radius(g)
    try:
        r = solve_recursion(ds, lam)
    except NoConvergence as exc:
        assert "recursion" in str(exc)
        return
    assert abs(r.q - solve_bisection(ds, lam).q) <= TOL_Q
    f, _, rounding = _f1_on_histogram(ds, lam)[0](r.q)
    assert f <= -rounding


def test_recursion_raises_where_it_does_not_converge():
    # K50 with one link of weight 1 + 1e-5 (q near 3 - 2/50): the map's
    # rate is near 1 and its rounding swamps the steps, so the recursion
    # raises instead of returning an uncertified number
    g = complete_with_heavy_link(50, 1 + 1e-5)
    ds, lam = degree_sequence(g.degrees()), spectral_radius(g)
    with pytest.raises(NoConvergence, match="recursion"):
        solve_recursion(ds, lam)


# sde orchestration


def test_sde_regular_undefined():
    r = sde(cycle_graph(8))
    assert r.is_undefined and r.method == "classified"


def test_sde_biregular_classified():
    r = sde(generate("kbip:2:3"))
    assert r.q == 2.0 and r.method == "classified"


def test_sde_max_clique_infinite():
    assert sde(k4_plus_p3()).is_infinite


def test_sde_regular_max_degree_component_infinite():
    # C5 beside P3: no clique, yet the 2-regular component puts lambda1 at
    # d_max, so the solver (not the classifier) reports q = inf
    c5_p3 = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7)])
    assert isinstance(classify(c5_p3), Generic)
    r = sde(c5_p3)
    assert r.is_infinite and r.method == "newton" and r.note == "lambda1 at d_max"


def test_sde_wheel_1000_range():
    r = sde(generate("wheel:1000"))
    assert 2.0 < r.q < 2.5


def test_sde_verify_cross_check(rng):
    g = connected_er(rng, 40, 0.25)
    r = sde(g, verify=True)
    assert r.is_finite


def test_sde_verify_compares_newton_with_bisection(monkeypatch):
    g = generate("fork:9")
    assert sde(g, verify=True).method == "newton"
    shifted = lambda ds, lam: SdeResult(  # noqa: E731
        solve_bisection(ds, lam).q + 1e-6, "bisection")
    monkeypatch.setattr(solver_module, "solve_bisection", shifted)
    with pytest.raises(NoConvergence):
        sde(g, verify=True)


def test_sde_defaults_to_newton(rng):
    g = connected_er(rng, 25, 0.3)
    r = sde(g)
    assert r.method == "newton" and r.iterations > 0
    ds, lam = _ds_lam(g, spectral_radius(g))
    assert solve_bisection(ds, lam).method == "bisection"
    assert solve_recursion(ds, lam).method == "recursion"
    assert abs(r.q - solve_bisection(ds, lam).q) <= TOL_Q


def test_sde_methods_agree(rng):
    g = connected_er(rng, 25, 0.3)
    ds, lam = _ds_lam(g, spectral_radius(g))
    qb = solve_bisection(ds, lam).q
    qr = solve_recursion(ds, lam).q
    assert abs(qb - qr) <= 2e-9


# probabilistic form: |q*log(lambda1) - log(sum_k Pr[D=k] k^q)|, with the
# empirical degree distribution Pr[D=k], is |f1(q)| on the degree histogram


def probabilistic_residual(g, q, lam):
    return abs(f1(q, degree_sequence(g.degrees()), lam))


def test_probabilistic_residual_at_root(rng):
    g = connected_er(rng, 30, 0.25)
    lam = full_spectrum(g)[0][0]
    q = sde(g, lambda1=lam).q
    assert probabilistic_residual(g, q, lam) <= 1e-8


def test_probabilistic_residual_biregular():
    g = generate("kbip:2:3")
    assert probabilistic_residual(g, 2.0, math.sqrt(6)) <= 1e-12


def test_probabilistic_residual_off_root():
    g = generate("path:5")
    assert probabilistic_residual(g, 10.0, spectral_radius(g)) > 0.1


# theory-level properties


def test_f1_nonnegative_at_two_and_strictly_decreasing(rng):
    for _ in range(20):
        g = connected_er(rng, int(rng.integers(5, 40)), 0.3)
        ds, lam = _ds_lam(g)
        assert f1(2.0, ds, lam) >= -1e-12
        b = bounds(ds, lam)
        grid = np.linspace(2.0, max(b.upper * 1.5, 3.0), 100)
        vals = [f1(q, ds, lam) for q in grid]
        diffs = np.diff(vals)
        assert np.all(diffs < 1e-12)


def test_monotone_in_lambda1_at_fixed_degrees(rng):
    for _ in range(10):
        g = connected_er(rng, 30, 0.25)
        ds = degree_sequence(g.degrees())
        rms = rms_degree(ds)
        lams = np.linspace(rms * 1.001, ds.d_max * 0.999, 5)
        qs = [solve_bisection(ds, lam).q for lam in lams]
        assert all(b > a for a, b in zip(qs, qs[1:]))


def test_scale_invariance(rng):
    g = connected_er(rng, 20, 0.3)
    q = sde(g).q
    for s in (0.5, 3.7):
        qs = sde(g.scaled(s)).q
        assert abs(qs - q) <= 2e-9


def test_synthetic_degree_sequence_interface():
    ds = degree_sequence([5, 3, 3, 2, 1])
    assert ds.d_max == 5 and ds.c == 1 and ds.d2 == 3
    r = solve_bisection(ds, 4.0)
    assert r.is_finite and r.q >= 2.0
