"""Spectral degree exponent: the unique q >= 2 with lambda1 = ((1/N) sum d_i^q)^(1/q).

All equation work happens in the log domain: the defining equation is
recast as f1(q) = q*log(lambda1) + log(N) - log(sum d_i^q), evaluated on
the degree histogram (:class:`DegreeSequence`: distinct degrees and their
counts) relative to lambda1, so degree powers never overflow, rounding
stays in proportion to how far the degrees are from lambda1, and each
evaluation costs O(distinct degrees). f1 is concave, because log-sum-exp is
convex, and f1 <= 0 at two upper bounds: q_top from the nodes at exactly
d_max, and the zero of f1's tangent at q = 2. Newton's method started at
the smaller of the two decreases monotonically to the root and stops on a
certified bracket [q - tol_q, q]. q_top is only a bound: q is reported
infinite only where lambda1 reaches d_max or f1(Q_MAX) > 0.
:func:`_bracket` checks lambda1 and takes rho_max and q_top, once, for
:func:`bounds` and for :func:`_prepare`, which gives every solver its early
exits and its start. :func:`sde` classifies the graph first (a regular
graph, a biregular one and one with a component at d_max need no solve)
and runs Newton otherwise. Bisection (the test oracle) and the paper's
fixed-point recursion (with Aitken extrapolation, on the same f1) are
callable on a degree histogram, next to the bounds, each a step of the
paper's map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AllDegreesZero, InvalidGraph, NoConvergence, RegularGraph
from .graph import (Biregular, DegreeSequence, Graph, MaxDegreeComponent, Regular, _real,
                    classify)
from .spectral import spectral_radius

Q_MAX = 1e6
DEFAULT_TOL_Q = 1e-9
# lambda1 this close to d_max means a d_max-regular component: q is infinite
_INF_GUARD = 1e-11
_EPS = 2.0 ** -52  # float64 machine epsilon
# steps of Newton's method or of the recursion before NoConvergence
_MAX_STEPS = 100

METHOD_NEWTON = "newton"
METHOD_BISECTION = "bisection"
METHOD_RECURSION = "recursion"
METHOD_CLASSIFIED = "classified"


@dataclass(frozen=True)
class SdeResult:
    """Solved exponent. q is NaN for regular graphs (undefined) and inf
    when some component has every weighted degree at d_max, so lambda1 =
    d_max: ``sde`` gets every such component from ``classify`` (note
    "max-degree component"). The solvers, called on a degree histogram,
    report a lambda1 at d_max as inf with the note "lambda1 at d_max", and
    a root certified above Q_MAX as inf with the note "q_max exceeded".
    ``residual`` is |f1(q)| at the returned root."""

    q: float
    method: str
    iterations: int = 0
    residual: float = 0.0
    note: str = ""

    @property
    def is_undefined(self) -> bool:
        return math.isnan(self.q)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.q)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.q)


@dataclass(frozen=True)
class SdeBounds:
    """Bracket for q from :func:`bounds`: ``upper`` is the solvers' q_top,
    ``lower`` and ``sharpened_upper`` one step of the paper's map each;
    ``sharpened_upper`` exists only when d_min > 0."""

    lower: float
    upper: float
    sharpened_upper: float | None = None


def _lambda1_checked(ds: DegreeSequence, lambda1: float) -> float:
    """``lambda1`` as a float where q is defined: AllDegreesZero without a
    positive degree, else InvalidGraph unless it is a real number (:func:`_real`)
    with 0 < lambda1 <= d_max (1 + ``_INF_GUARD``), float(lambda1) > 0 (a
    real below the float range converts to 0.0) and d_max/lambda1 finite,
    tested before the conversion."""
    d_max = ds.d_max
    if not d_max > 0:
        raise AllDegreesZero("every weighted degree is zero")
    lambda1 = _real(lambda1, "lambda1")
    if not (0 < lambda1 <= d_max * (1.0 + _INF_GUARD) and float(lambda1) > 0
            and d_max / float(lambda1) < math.inf):
        raise InvalidGraph(f"lambda1 must lie in (0, d_max = {d_max!r}] with d_max/lambda1 finite")
    return float(lambda1)


def _f1_on_degrees(values: tuple[float, ...], counts: tuple[int, ...], n: int,
                   lambda1: float):
    """f1 on the distinct positive degrees, and rho_max = log(d_max/lambda1).

    With w_k = n_k/N for the distinct positive degrees d_k (n_k times each),
    rho_k = log(d_k/lambda1) and N_0 zero degrees,
    f1(q) = -log(sum_k w_k exp(q*rho_k)) = -log1p(S(q)) where
    S(q) = sum_k w_k expm1(q*rho_k) - N_0/N (the weights sum to 1). Relative
    to lambda1 each term of S is as small as its degree is close to lambda1,
    and so is its rounding: for near-regular degrees, where f1 and its slope
    are tiny at the root, f1 stays resolved across ``tol_q``. A shift by
    q*rho_max above 700 keeps exp from overflowing. The returned function
    gives f1(q), its slope and an estimate of the rounding error of f1(q)
    (from the size of each term and of its argument; valid where
    q*rho_max <= 700, the range the solvers evaluate), in O(distinct
    degrees). rho_max is the log1p form of d_max's rho, as the terms take it.
    ``values`` are the distinct degrees in descending order, ``counts`` the
    nodes at each, of ``n`` nodes in all; ``lambda1`` has passed
    :func:`_lambda1_checked` for them.
    """
    k = sum(v > 0 for v in values)  # the positive degrees come first
    values, counts = values[:k], counts[:k]
    zero_weight = (n - sum(counts)) / n
    # per distinct degree: w, rho, w*rho, |w*rho|, and w signed like expm1(q*rho)
    terms = []
    for count, v in zip(counts, values):
        w = count / n
        x = (v - lambda1) / lambda1
        # x rounds to -1, outside log1p's domain, for v below about lambda1 * 2**-53
        r = math.log1p(x) if x > -1.0 else math.log(v) - math.log(lambda1)
        terms.append((w, r, w * r, abs(w * r), math.copysign(w, r)))
    rho_max = terms[0][1]

    def evaluate(q: float) -> tuple[float, float, float]:
        shift = q * rho_max - 700.0  # exp overflows above ~709.8
        if shift < 0.0:
            shift = 0.0
        s = s_abs = s_rho = s_rho_abs = 0.0
        for w, r, w_r, w_r_abs, w_sign in terms:
            e = math.expm1(q * r - shift)
            t = e + 1.0
            s += w * e
            s_abs += w_sign * e
            s_rho += w_r * t
            s_rho_abs += w_r_abs * t
        s -= zero_weight
        # each term of S carries about an ulp of its size and of its argument
        rounding = _EPS * (shift + (s_abs + q * s_rho_abs + zero_weight) / (1.0 + s))
        return -shift - math.log1p(s), -s_rho / (1.0 + s), rounding

    return evaluate, rho_max


def f1(q: float, ds: DegreeSequence, lambda1: float) -> float:
    """Log-domain root function, q in [0, Q_MAX]: q*log(lambda1) + log(N) - log(sum d_i^q).

    Zero degrees contribute nothing to the power sum (0^q = 0 for q > 0).
    Concave in q, and strictly decreasing from its root on for non-regular
    degree sequences; its unique root on [2, inf) is the SDE. Evaluated on
    the degree histogram, relative to lambda1 (see :func:`_f1_on_degrees`).
    """
    if not 0 <= _real(q, "q") <= Q_MAX:
        raise InvalidGraph(f"q must lie in [0, {Q_MAX:g}]")
    return _f1_on_degrees(ds.values, ds.counts, ds.n, _lambda1_checked(ds, lambda1))[0](q)[0]


def _bracket(ds: DegreeSequence, lambda1: float):
    """What :func:`bounds` and every solver share: None where the checked
    lambda1 (:func:`_lambda1_checked`) reaches d_max (q is infinite),
    RegularGraph on a regular histogram (``c == n``), else (lambda1,
    evaluate, rho_max, q_top): f1 and rho_max from :func:`_f1_on_degrees`,
    and q_top = log1p((N - c_top)/c_top)/rho_max, with c_top the nodes at
    exactly d_max, an upper bound where f1 <= 0 (sum d^q >= c_top d_max^q)."""
    lambda1 = _lambda1_checked(ds, lambda1)
    if lambda1 >= ds.d_max * (1.0 - _INF_GUARD):
        return None
    if ds.c >= ds.n:
        raise RegularGraph("degree sequence is constant")
    evaluate, rho_max = _f1_on_degrees(ds.values, ds.counts, ds.n, lambda1)
    c_top = ds.counts[0]
    return lambda1, evaluate, rho_max, math.log1p((ds.n - c_top) / c_top) / rho_max


def bounds(ds: DegreeSequence, lambda1: float) -> SdeBounds:
    """The paper's bracket for q, each end clamped at 2 (an upper one below
    2 means f1(2) <= 0, where the solvers return 2). ``upper`` is q_top of
    :func:`_bracket`; ``lower`` and ``sharpened_upper`` are one step each of
    the paper's map F(q) = q + f1(q)/rho_max on a two-degree histogram with
    the same rho_max. Raises RegularGraph where lambda1 reaches d_max or the
    histogram is regular.

    With d_max on top, F(q) = h(q)/rho_max with h(q) = log N - log(sum
    (d_i/d_max)^q) increasing, and the root is F's fixed point. Raising the
    degrees below ``ds.c``'s nodes to d2 lowers h, so the root is at least
    F_d2(2) = 2 + g/rho_max, g the d2-substituted f1(2): ``lower`` is
    2 + (g - r)/rho_max, r g's rounding estimate, where g > r, else 2 (g is
    0 for a biregular graph, q = 2; a smaller g is rounding, of lambda1 too).
    Lowering the degrees below the nodes at exactly d_max to d_min raises h,
    so the root is at most F_dmin(upper): ``sharpened_upper``, capped at
    ``upper``, where d_min > 0. ``ds.c`` merges near-ties that lie below
    d_max, so the upper ends count only the nodes at exactly d_max."""
    bracket = _bracket(ds, lambda1)
    if bracket is None:
        raise RegularGraph("lambda1 reaches d_max: q is infinite")
    lambda1, _, rho_max, q_top = bracket
    n, c, c_top = ds.n, ds.c, ds.counts[0]
    upper = max(q_top, 2.0)
    g, _, rounding = _f1_on_degrees((ds.d_max, ds.d2), (c, n - c), n, lambda1)[0](2.0)
    lower = 2.0 + (g - rounding) / rho_max if g > rounding else 2.0
    sharpened = None
    if ds.d_min > 0:
        f = _f1_on_degrees((ds.d_max, ds.d_min), (c_top, n - c_top), n, lambda1)[0](upper)[0]
        sharpened = max(min(upper + f / rho_max, upper), 2.0)
    return SdeBounds(lower=lower, upper=upper, sharpened_upper=sharpened)


def _prepare(ds: DegreeSequence, lambda1: float, tol_q: float, method: str):
    """What every solver does before it iterates: (result, None, nan, tol_q,
    nan) where no iteration is needed, else (None, evaluate, q_start, tol_q,
    rho_max), with ``tol_q`` checked and a Python float, as the solvers use it.

    Checks ``tol_q``, then takes :func:`_bracket`: lambda1 at d_max gives
    inf (``sde`` classifies such graphs first, so this serves calls on a
    bare histogram or with a lambda1 passed in at d_max), and a regular
    histogram raises. The start is the smaller of two upper bounds on the
    root. One is q_top, from the nodes at exactly d_max. It may exceed
    Q_MAX with a small root: inf is reported only when f1(Q_MAX) > 0
    certifies the root above Q_MAX, and otherwise this bound is Q_MAX. The
    other is the zero of f1's tangent at 2, 2 - f1(2)/f1'(2), wherever
    f1'(2) < 0: f1 is concave, so the tangent lies above it, and f1 is at
    most about its rounding there. A non-positive f1(2) returns exactly 2,
    with no rounding check. Only a biregular graph has q = 2, yet f1(2) <= 0
    happens on others through the rounding of lambda1, which f1's own
    rounding estimate does not include: on K15 with one link of weight
    1 + 1e-6, f1(2) = -1.1e-15 against an estimate of 1.5e-23, and 2 is
    returned where q = 2.8667.
    """
    tol_q = _real(tol_q, "tol_q")
    if not 0 < tol_q <= 1e-4:
        raise InvalidGraph("tol_q must be in (0, 1e-4]")
    tol_q, bracket = float(tol_q), _bracket(ds, lambda1)
    done = None, math.nan, tol_q, math.nan  # follows a result without iteration
    if bracket is None:
        return (SdeResult(math.inf, method, note="lambda1 at d_max"), *done)
    _, evaluate, rho_max, q = bracket
    if q > Q_MAX:
        if evaluate(Q_MAX)[0] > 0.0:
            return (SdeResult(math.inf, method, note="q_max exceeded"), *done)
        q = Q_MAX
    f2, slope2, _ = evaluate(2.0)
    if f2 <= 0.0:
        return (SdeResult(2.0, method, iterations=0, residual=abs(f2)), *done)
    if slope2 < 0.0:  # f1 is concave: its tangent at 2 crosses zero above the root
        q = min(q, 2.0 - f2 / slope2)
    return None, evaluate, q, tol_q, rho_max


def _bisect(h, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Midpoint of the bracket [lo, hi], with h(lo) > 0 >= h(hi), halved
    down to width ``tol`` or to the float spacing at the root, and the
    number of halvings."""
    halvings = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # tol is finer than the float spacing at the root
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        halvings += 1
    return 0.5 * (lo + hi), halvings


def solve_bisection(ds: DegreeSequence, lambda1: float,
                    tol_q: float = DEFAULT_TOL_Q) -> SdeResult:
    """Bisect f1 on [2, U] down to ``tol_q`` or to the float spacing at the
    root, with U a relative 1e-12 above the start of :func:`_prepare`, whose
    results without iteration it returns as they are."""
    early, evaluate, q, tol_q, _ = _prepare(ds, lambda1, tol_q, METHOD_BISECTION)
    if early is not None:
        return early
    q, iters = _bisect(lambda x: evaluate(x)[0], 2.0, q * (1 + 1e-12), tol_q)
    return SdeResult(q, METHOD_BISECTION, iterations=iters, residual=abs(evaluate(q)[0]))


def _certifies(evaluate, q: float, tol_q: float, at_q: tuple[float, float, float]) -> bool:
    """Whether the signs certify the root in [q - tol_q, q] despite
    rounding: f1(q) <= -r and f1(q - tol_q) > r (or q - tol_q <= 2, where
    f1(2) > 0 already holds), with ``at_q`` = evaluate(q) and r each
    evaluation's rounding estimate."""
    f, _, rounding = at_q
    if f > -rounding:
        return False
    if q - tol_q <= 2.0:
        return True
    below, _, rounding = evaluate(q - tol_q)
    return below > rounding


def solve_newton(ds: DegreeSequence, lambda1: float,
                 tol_q: float = DEFAULT_TOL_Q) -> SdeResult:
    """Newton's method on f1, from the start and the results without
    iteration of :func:`_prepare`: the smaller of q_top and the zero of
    f1's tangent at q = 2.

    f1 is concave (log-sum-exp is convex) and f1 <= 0 at the start, so
    every Newton step moves left and never passes the root: the iterates
    decrease monotonically to it (up to rounding at the root), with no
    bracket to grow and no fallback. Newton aims at f1 = -1.5r, with r the
    rounding estimate of f1 (see :func:`_f1_on_degrees`), and stops at
    the first iterate q reached by a step of at most ``tol_q`` with
    f1(q) <= -r and f1(q - tol_q) > r (or q - tol_q <= 2, where f1(2) > 0
    already holds): the signs hold despite rounding, which certifies the
    root in [q - tol_q, q]; ``iterations`` counts the steps. Where f1
    changes by at most 2.5r across ``tol_q`` the aim -1.5r lies outside
    that window, and Newton aims at its centre, f1 = f1' * tol_q / 2. A
    step under half an ulp that is still short of the aim moves q up by
    one ulp. Where f1 changes by less than 2r across ``tol_q`` no float64
    evaluation can certify the root, and it raises NoConvergence at the
    first iterate that is converged or within 2r of its aim. Otherwise it
    raises after ``_MAX_STEPS`` steps, which also ends iterates that settle
    within ``tol_q`` on floats that fail the certificate.
    """
    early, evaluate, q, tol_q, _ = _prepare(ds, lambda1, tol_q, METHOD_NEWTON)
    if early is not None:
        return early
    step = math.inf
    for k in range(_MAX_STEPS + 1):
        at_q = evaluate(q)
        f, slope, rounding = at_q
        # aim at f1 = -1.5*rounding, inside the band where f1 <= -rounding
        # holds despite rounding (f1 moves in steps of up to its rounding);
        # where f1 changes by at most 2.5*rounding across tol_q that lies
        # outside the window f1 <= -rounding, f1(q - tol_q) > rounding, so
        # aim at the window's centre, f1 = slope*tol_q/2
        drop = -slope * tol_q
        g = f + (1.5 * rounding if drop > 2.5 * rounding else 0.5 * drop)
        converged = abs(step) <= tol_q
        if converged and _certifies(evaluate, q, tol_q, at_q):
            return SdeResult(q, METHOD_NEWTON, iterations=k, residual=abs(f))
        # f1 changing by under 2r across tol_q cannot certify, once the
        # iterate is converged or within rounding of the aim
        if drop <= 2.0 * rounding and (converged or abs(g) <= 2.0 * rounding):
            raise NoConvergence(
                f"f1 changes by about its rounding across tol_q near q = {q!r}: "
                "the root cannot be certified")
        step = g / slope
        q_next = q - step
        # a step under half an ulp: move up an ulp if still short of the aim
        q = math.nextafter(q, math.inf) if q_next == q and g > 0.0 else q_next
    raise NoConvergence(
        f"Newton's method did not certify q within {_MAX_STEPS} steps")


def solve_recursion(ds: DegreeSequence, lambda1: float,
                    tol_q: float = DEFAULT_TOL_Q) -> SdeResult:
    """The paper's fixed-point recursion
    q_k = [log N - log(c + sum (d_i/d_max)^q_{k-1})] / log(d_max/lambda1),
    from the start and the results without iteration of :func:`_prepare`,
    with Aitken's delta-squared extrapolation at each step (Steffensen's
    method), since the plain map contracts only linearly, at rates that can
    approach 1.

    The numerator equals f1(q) + q*log(d_max/lambda1), so the map is
    F(q) = q + f1(q)/log(d_max/lambda1), evaluated on the degree histogram
    relative to lambda1 like f1 itself. A step that moves q by at most
    ``tol_q`` is returned only with :func:`solve_newton`'s certificate: for
    q' = q + tol_q/2, f1(q') <= -r and f1(q' - tol_q) > r (or q' - tol_q
    <= 2), with r the rounding estimate of f1, so the root lies in
    [q' - tol_q, q'] and q' is returned; otherwise the iteration goes on.
    ``iterations`` counts map evaluations. Raises NoConvergence after
    ``_MAX_STEPS`` steps.
    """
    early, evaluate, p0, tol_q, rho_max = _prepare(ds, lambda1, tol_q, METHOD_RECURSION)
    if early is not None:
        return early

    def F(q: float) -> float:
        return q + evaluate(q)[0] / rho_max

    for k in range(1, _MAX_STEPS + 1):
        p1 = F(p0)
        p2 = F(p1)
        d2 = p2 - 2.0 * p1 + p0
        p_new = p2 if d2 == 0.0 else p0 - (p1 - p0) ** 2 / d2
        p_new = max(p_new, 2.0)
        q = p_new + 0.5 * tol_q
        if abs(p_new - p0) <= tol_q:
            at_q = evaluate(q)
            if _certifies(evaluate, q, tol_q, at_q):
                return SdeResult(q, METHOD_RECURSION, iterations=2 * k,
                                 residual=abs(at_q[0]))
        p0 = p_new
    raise NoConvergence(
        f"the recursion did not certify q within {_MAX_STEPS} steps")


def sde(g: Graph, *, lambda1: float | None = None) -> SdeResult:
    """Spectral degree exponent of a graph, solved to ``DEFAULT_TOL_Q``.

    Orchestration: regular graphs are Undefined (NaN), a component with
    every degree at d_max gives Infinite, biregular graphs are classified to
    exactly 2; anything else computes lambda1 (spectral_radius unless
    supplied) and runs :func:`solve_newton`, whose q is certified to lie
    within ``DEFAULT_TOL_Q`` above the root or refused with NoConvergence.
    """
    cls = classify(g)
    if isinstance(cls, Regular):
        return SdeResult(math.nan, METHOD_CLASSIFIED, note="regular")
    if isinstance(cls, MaxDegreeComponent):
        return SdeResult(math.inf, METHOD_CLASSIFIED, note="max-degree component")
    if isinstance(cls, Biregular):
        return SdeResult(2.0, METHOD_CLASSIFIED, note="biregular")
    lam = spectral_radius(g) if lambda1 is None else lambda1
    return solve_newton(g.histogram, lam)  # the histogram classify built
