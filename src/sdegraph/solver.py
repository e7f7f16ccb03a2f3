"""Spectral degree exponent: the unique q >= 2 with lambda1 = ((1/N) sum d_i^q)^(1/q).

All equation work happens in the log domain: the defining equation is
recast as f1(q) = q*log(lambda1) + log(N) - log(sum d_i^q) with the power
sum evaluated by max-factored log-sum-exp, so degree powers never overflow.
Two solvers are provided — bracketing bisection and the fixed-point
recursion started from the closed-form upper bound q0 — plus the bound
computations and the structural-classification shortcuts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AllDegreesZero, InvalidGraph, NoConvergence, RegularGraph
from .graph import (Biregular, DegreeSequence, Graph, MaxCliqueComponent, Regular,
                    classify, degree_sequence)
from .spectral import spectral_radius

Q_MAX = 1e6
DEFAULT_TOL_Q = 1e-9
# lambda1 this close to d_max means a d_max-regular component: q is infinite
_INF_GUARD = 1e-11

METHOD_BISECTION = "bisection"
METHOD_RECURSION = "recursion"
METHOD_CLASSIFIED = "classified"
METHOD_FALLBACK = "bisection_fallback"


@dataclass(frozen=True)
class SdeResult:
    """Solved exponent. q is NaN for regular graphs (undefined) and inf for
    the max-clique-component case; ``residual`` is |f1(q)| at the returned
    root."""

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
    """Bracket for q: ``upper`` is the closed form q0 = log(N/c)/log(d_max/lambda1);
    ``sharpened_upper`` exists only when d_min > 0."""

    lower: float
    upper: float
    sharpened_upper: float | None = None


def _positive_log_degrees(ds: DegreeSequence) -> np.ndarray:
    d = ds.degrees[ds.degrees > 0]
    if d.size == 0:
        raise AllDegreesZero("every weighted degree is zero")
    return np.log(d)


def f1(q: float, ds: DegreeSequence, lambda1: float) -> float:
    """Log-domain root function: q*log(lambda1) + log(N) - log(sum d_i^q).

    Zero degrees contribute nothing to the power sum (0^q = 0 for q > 0).
    Strictly decreasing in q for non-regular degree sequences; its unique
    root on [2, inf) is the SDE.
    """
    if lambda1 <= 0:
        raise InvalidGraph("lambda1 must be positive")
    logd = _positive_log_degrees(ds)
    z = q * logd
    m = z.max()
    lse = m + math.log(np.exp(z - m).sum())
    return q * math.log(lambda1) + math.log(ds.n) - lse


def _check_solvable(ds: DegreeSequence, lambda1: float) -> float:
    """log(d_max/lambda1), or raise/flag the degenerate cases."""
    if lambda1 <= 0:
        raise InvalidGraph("lambda1 must be positive")
    if ds.c >= ds.n:
        raise RegularGraph("degree sequence is constant")
    return math.log(ds.d_max / lambda1)


def _lambda1_at_dmax(ds: DegreeSequence, lambda1: float) -> bool:
    return lambda1 >= ds.d_max * (1.0 - _INF_GUARD)


def bounds(ds: DegreeSequence, lambda1: float) -> SdeBounds:
    """Closed-form bracket: lower from the d2 substitution (clamped at 2),
    upper = q0, and the sharpened upper from the d_min substitution when the
    graph has no isolated nodes."""
    if _lambda1_at_dmax(ds, lambda1):
        raise RegularGraph(
            "lambda1 reaches d_max: q is infinite (or the graph is regular)")
    denom = _check_solvable(ds, lambda1)
    n, c = ds.n, ds.c
    upper = math.log(n / c) / denom
    r2 = ds.d2 / ds.d_max
    lower = (math.log(n) - math.log(c + (n - c) * r2 * r2)) / denom
    lower = max(lower, 2.0)
    sharpened = None
    if ds.d_min > 0:
        rmin = ds.d_min / ds.d_max
        term = (n - c) * math.exp(upper * math.log(rmin))
        sharpened = (math.log(n) - math.log(c + term)) / denom
    return SdeBounds(lower=lower, upper=upper, sharpened_upper=sharpened)


def solve_bisection(ds: DegreeSequence, lambda1: float,
                    tol_q: float = DEFAULT_TOL_Q) -> SdeResult:
    """Bisect f1 on [2, U] with U grown from the closed-form upper bound.

    Returns Infinite when the bracket would exceed Q_MAX with f1 still
    positive (lambda1 at d_max, the clique-component regime). A non-positive
    f1(2) — possible only through rounding, since q >= 2 always — clamps
    the root to exactly 2.
    """
    if not (0 < tol_q <= 1e-4):
        raise InvalidGraph("tol_q must be in (0, 1e-4]")
    if _lambda1_at_dmax(ds, lambda1):
        return SdeResult(math.inf, METHOD_BISECTION, note="lambda1 at d_max")
    denom = _check_solvable(ds, lambda1)
    q0 = math.log(ds.n / ds.c) / denom
    if q0 > Q_MAX:
        return SdeResult(math.inf, METHOD_BISECTION, note="q_max exceeded")
    f2 = f1(2.0, ds, lambda1)
    if f2 <= 0.0:
        return SdeResult(2.0, METHOD_BISECTION, iterations=0, residual=abs(f2))
    hi = q0 * (1 + 1e-12)
    while f1(hi, ds, lambda1) > 0.0:
        hi *= 2.0
        if hi > Q_MAX:
            return SdeResult(math.inf, METHOD_BISECTION, note="q_max exceeded")
    lo = 2.0
    iters = 0
    while hi - lo > tol_q:
        mid = 0.5 * (lo + hi)
        if f1(mid, ds, lambda1) > 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    q = 0.5 * (lo + hi)
    return SdeResult(q, METHOD_BISECTION, iterations=iters,
                     residual=abs(f1(q, ds, lambda1)))


def _recursion_map(ds: DegreeSequence, lambda1: float):
    """The fixed-point map F(q) behind the recursion, in the log domain."""
    denom = math.log(ds.d_max / lambda1)
    n, c = ds.n, ds.c
    rest = ds.degrees[c:]
    rest = rest[rest > 0]
    log_ratio = np.log(rest / ds.d_max)  # all strictly negative

    def F(q: float) -> float:
        if log_ratio.size:
            z = q * log_ratio
            m = z.max()
            s = math.exp(m) * np.exp(z - m).sum()
        else:
            s = 0.0
        return (math.log(n) - math.log(c + s)) / denom

    return F


def solve_recursion(ds: DegreeSequence, lambda1: float,
                    tol_q: float = DEFAULT_TOL_Q, max_iter: int = 1000,
                    accelerate: bool = True) -> SdeResult:
    """Fixed-point recursion q_k = [log N - log(c + sum (d_i/d_max)^q_{k-1})]
    / log(d_max/lambda1), started from the upper bound q0.

    The plain map contracts only linearly (rate can approach 1), so by
    default each step applies Aitken's delta-squared extrapolation to the
    map (Steffensen's method); ``iterations`` counts map evaluations either
    way. ``accelerate=False`` runs the literal recursion. Oscillation or
    exhaustion of ``max_iter`` falls back to bisection.
    """
    if not (0 < tol_q <= 1e-4):
        raise InvalidGraph("tol_q must be in (0, 1e-4]")
    if _lambda1_at_dmax(ds, lambda1):
        return SdeResult(math.inf, METHOD_RECURSION, note="lambda1 at d_max")
    _check_solvable(ds, lambda1)
    F = _recursion_map(ds, lambda1)
    q0 = math.log(ds.n / ds.c) / math.log(ds.d_max / lambda1)
    if q0 > Q_MAX:
        return SdeResult(math.inf, METHOD_RECURSION, note="q_max exceeded")
    hi_clamp = max(q0, 2.0)
    evals = 0

    if accelerate:
        p0 = q0
        for _ in range(max_iter):
            p1 = F(p0)
            p2 = F(p1)
            evals += 2
            d2 = p2 - 2.0 * p1 + p0
            p_new = p2 if d2 == 0.0 else p0 - (p1 - p0) ** 2 / d2
            p_new = min(max(p_new, 2.0), hi_clamp)
            if abs(p_new - p0) <= tol_q:
                return SdeResult(p_new, METHOD_RECURSION, iterations=evals,
                                 residual=abs(f1(p_new, ds, lambda1)))
            p0 = p_new
    else:
        q_prev2 = math.inf
        q_prev = q0
        osc = 0
        for _ in range(max_iter):
            q = F(q_prev)
            evals += 1
            if abs(q - q_prev) <= tol_q:
                return SdeResult(q, METHOD_RECURSION, iterations=evals,
                                 residual=abs(f1(q, ds, lambda1)))
            if abs(q - q_prev2) <= tol_q:
                osc += 1
                if osc >= 3:
                    break  # two-cycle: fall back
            else:
                osc = 0
            q_prev2, q_prev = q_prev, q

    fallback = solve_bisection(ds, lambda1, tol_q=tol_q)
    return replace(fallback, method=METHOD_FALLBACK,
                   iterations=evals + fallback.iterations)


def sde(g: Graph, *, method: str = METHOD_BISECTION, tol_q: float = DEFAULT_TOL_Q,
        tol_deg: float = 1e-9, lambda1: float | None = None,
        spectral_tol: float = 1e-12, verify: bool = False) -> SdeResult:
    """Spectral degree exponent of a graph.

    Orchestration: regular graphs are Undefined (NaN), a max-clique
    component gives Infinite, biregular graphs are classified to exactly 2;
    anything else computes lambda1 (spectral_radius unless supplied) and
    runs the configured solver. ``verify=True`` cross-checks bisection
    against the recursion and raises NoConvergence on disagreement.
    """
    cls = classify(g, tol_deg)
    if isinstance(cls, Regular):
        return SdeResult(math.nan, METHOD_CLASSIFIED, note="regular")
    if isinstance(cls, MaxCliqueComponent):
        return SdeResult(math.inf, METHOD_CLASSIFIED, note="max-clique component")
    if isinstance(cls, Biregular):
        return SdeResult(2.0, METHOD_CLASSIFIED, note="biregular")
    ds = degree_sequence(g, tol_deg)
    lam = spectral_radius(g, tol=spectral_tol) if lambda1 is None else lambda1
    if method == METHOD_BISECTION:
        result = solve_bisection(ds, lam, tol_q=tol_q)
    elif method == METHOD_RECURSION:
        result = solve_recursion(ds, lam, tol_q=tol_q)
    else:
        raise InvalidGraph(f"unknown solver method {method!r}")
    if verify:
        other = (solve_recursion if method == METHOD_BISECTION
                 else solve_bisection)(ds, lam, tol_q=tol_q)
        both_finite = result.is_finite and other.is_finite
        if both_finite and abs(result.q - other.q) > 2 * tol_q:
            raise NoConvergence(
                f"solver cross-check failed: {result.q} vs {other.q}")
        if result.is_infinite != other.is_infinite:
            raise NoConvergence("solver cross-check failed: inf mismatch")
    return result


def probabilistic_residual(g: Graph, q: float, lambda1: float | None = None) -> float:
    """Consistency check of a solved q through the degree distribution.

    Evaluates |q*log(lambda1) - log(sum_k Pr[D=k] k^q)| where Pr[D=k] is the
    empirical degree distribution — the log-domain gap between the two sides
    of the probabilistic form of the defining equation.
    """
    if not math.isfinite(q):
        raise InvalidGraph("q must be finite")
    degs = g.degrees()
    lam = spectral_radius(g) if lambda1 is None else lambda1
    values, counts = np.unique(degs, return_counts=True)
    keep = values > 0
    values, counts = values[keep], counts[keep]
    if values.size == 0:
        raise AllDegreesZero("every weighted degree is zero")
    z = np.log(counts / len(degs)) + q * np.log(values)
    m = z.max()
    rhs = m + math.log(np.exp(z - m).sum())
    return abs(q * math.log(lam) - rhs)
