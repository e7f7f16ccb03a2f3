"""Reference values the benchmark checks the program's outputs against.

Independent of ``sdegraph.solver`` and ``sdegraph.spectral``: lambda1 comes
from LAPACK (``numpy.linalg.eigvalsh``) or, at large n, from ARPACK
(``scipy.sparse.linalg.eigsh``); q comes from a vectorized log-domain
bisection written here; the path, fork and wheel families use their closed
forms.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

DENSE_MAX = 600   # above this many nodes lambda1 comes from ARPACK
Q_REL_TOL = 1e-7  # |q - q_ref| <= Q_REL_TOL * max(1, q_ref) ...
EQ_TOL = 1e-11    # ... or q solves the defining equation to this log residual


def lambda1_dense(adj: np.ndarray) -> np.ndarray:
    """Largest adjacency eigenvalue of one (n, n) or a stack (B, n, n)."""
    return np.linalg.eigvalsh(np.asarray(adj, dtype=float))[..., -1]


def lambda1_edges(n: int, edges: np.ndarray) -> float:
    if n <= DENSE_MAX:
        a = np.zeros((n, n))
        a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1.0
        return float(lambda1_dense(a))
    a = sp.coo_array((np.ones(2 * len(edges)),
                      (np.r_[edges[:, 0], edges[:, 1]], np.r_[edges[:, 1], edges[:, 0]])),
                     shape=(n, n)).tocsr()
    return float(eigsh(a, k=1, which="LA", v0=np.ones(n), tol=0)[0][0])


def degrees_of(n: int, edges: np.ndarray) -> np.ndarray:
    return np.bincount(edges.ravel(), minlength=n).astype(float)


def _log_mean_power(q, logd, counts, n):
    """log((1/N) sum_i d_i^q) / q, row-wise, for q of shape (B,)."""
    x = q[:, None] * logd
    x = np.where(counts > 0, x, -np.inf)
    m = x.max(axis=1)
    return (m + np.log((counts * np.exp(x - m[:, None])).sum(axis=1)) - np.log(n)) / q


def _histograms(degrees: np.ndarray):
    """Per row: distinct positive degrees padded with 1, and their counts."""
    degrees = np.atleast_2d(degrees)
    rows = [np.unique(d[d > 0], return_counts=True) for d in degrees]
    width = max(len(v) for v, _ in rows)
    vals = np.ones((len(rows), width))
    counts = np.zeros((len(rows), width))
    for k, (v, c) in enumerate(rows):
        vals[k, :len(v)] = v
        counts[k, :len(c)] = c
    return vals, counts, (degrees > 0).sum(axis=1).astype(float)


def sde_q(degrees, lam) -> np.ndarray:
    """Reference q per row of ``degrees`` (B, n) for spectral radii ``lam``.

    NaN for regular rows, inf when lambda1 reaches d_max, else the root in
    [2, inf) of log M_q(d) = log lambda1, where M_q is the q-power mean.
    """
    vals, counts, n = _histograms(np.asarray(degrees, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    logd, loglam = np.log(vals), np.log(lam)
    d_max = vals.max(axis=1)
    d_min = np.where(counts > 0, vals, np.inf).min(axis=1)
    c_max = np.where(vals == d_max[:, None], counts, 0).sum(axis=1)
    regular = d_min == d_max
    infinite = ~regular & (lam >= d_max * (1 - 1e-12))
    solve = ~regular & ~infinite
    q = np.full(lam.shape, np.nan)
    q[infinite] = np.inf
    if solve.any():
        s_logd, s_counts, s_n, s_lam = logd[solve], counts[solve], n[solve], loglam[solve]
        # M_q >= d_max (c/N)^(1/q), so M_q reaches lambda1 by q0
        lo = np.full(s_lam.shape, 2.0)
        hi = np.maximum(np.log(s_n / c_max[solve]) / (np.log(d_max[solve]) - s_lam), 2.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            above = _log_mean_power(mid, s_logd, s_counts, s_n) > s_lam
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        q[solve] = 0.5 * (lo + hi)
    return q


def equation_residual(q, degrees, lam) -> np.ndarray:
    """|log M_q(d) - log lambda1| per row, for finite q."""
    vals, counts, n = _histograms(np.asarray(degrees, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return np.abs(_log_mean_power(q, np.log(vals), counts, n)
                  - np.log(np.atleast_1d(lam)))


def q_mismatch(q_prog, q_ref, degrees, lam) -> np.ndarray:
    """True where the program's q disagrees with the reference.

    Non-finite values must match exactly. A finite q passes if it is close
    to the reference or solves the defining equation with the reference
    lambda1; the second test keeps ill-conditioned near-regular rows, where
    a 1e-12 change in lambda1 moves q visibly, from counting as wrong.
    """
    q_prog = np.asarray(q_prog, dtype=float)
    q_ref = np.asarray(q_ref, dtype=float)
    same_kind = (np.isnan(q_prog) == np.isnan(q_ref)) & (np.isinf(q_prog) == np.isinf(q_ref))
    finite = np.isfinite(q_prog) & np.isfinite(q_ref)
    bad = ~same_kind
    if finite.any():
        close = np.abs(q_prog[finite] - q_ref[finite]) <= Q_REL_TOL * np.maximum(1.0, q_ref[finite])
        solves = equation_residual(q_prog[finite], np.atleast_2d(degrees)[finite],
                                   np.atleast_1d(lam)[finite]) <= EQ_TOL
        bad[finite] = ~(close | solves)
    return bad


def assortativity(adj: np.ndarray) -> np.ndarray:
    """Newman degree assortativity per (n, n) matrix of a stack; NaN where
    every link joins equal degrees."""
    a = np.asarray(adj, dtype=float)
    d = a.sum(axis=-1)
    s1, s2, s3 = d.sum(-1), (d ** 2).sum(-1), (d ** 3).sum(-1)
    cross = np.einsum("...i,...ij,...j->...", d, a, d)
    mean = s2 / s1
    den = s3 / s1 - mean ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (cross / s1 - mean ** 2) / den
    return np.where(np.abs(den) <= 1e-12 * (s3 / s1), np.nan, r)


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    return float(np.corrcoef(x[keep], y[keep])[0, 1])


# closed forms


def path_lambda1(n: int) -> float:
    return 2.0 * math.cos(math.pi / (n + 1))


def wheel_lambda1(n: int) -> float:
    return 1.0 + math.sqrt(n)


def path_q(n: int) -> float:
    """Root of cos^q(pi/(N+1)) = 1 - 2/N + 2^(1-q)/N."""
    log_cos = math.log(math.cos(math.pi / (n + 1)))
    return _bisect(lambda q: q * log_cos - math.log(1 - 2 / n + 2.0 ** (1 - q) / n),
                   2.0, 10.0 * n)


def fork_q() -> float:
    """The fork family's N-independent exponent: root of 3 * 2^q = 2 + 3^q."""
    return _bisect(lambda q: 3.0 * 2.0 ** q - 2.0 - 3.0 ** q, 2.0, 3.0)


def lollipop_q_asymptotic(n: int, lam_limit: float) -> float:
    a = 1.0 / (math.log(3.0) - math.log(lam_limit))
    return a * math.log(n) + math.log(5.0) / math.log(lam_limit / 3.0)


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] with f(lo) > 0 > f(hi), to float resolution."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)
