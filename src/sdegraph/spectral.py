"""Eigenvalue computations: spectral radius and full adjacency/Laplacian spectra.

The spectral radius lambda1 takes one of three routes, chosen from the
graph's own structure:

- up to ``DENSE_LAMBDA1_CAP`` nodes, the top dense LAPACK eigenvalue: the one dense kernel
  :func:`_top_eigenvalues` on a stack of one (or of a growth trial's steps), the same bits;
- above it, a graph with a degree-1 node whose pendant trees leave a 2-core
  of at most ``DENSE_LAMBDA1_CAP`` nodes (a forest leaves none: the path,
  the fork, BA trees; the lollipop leaves 5 nodes) gets mu* = d_max -
  lambda1 from Sylvester's law of inertia (:mod:`sdegraph.inertia`): two
  sign tests on the leaves-first pivots of (d_max - mu) I - A bracket it
  within a rounding bound;
- every other graph runs a thick-restart Lanczos in numpy whose
  matrix-vector product runs on the graph's own CSR arrays (graphs with
  1e6 nodes stay tractable), returned as the ``math.fsum`` Rayleigh quotient
  of the Lanczos vector over the stored entries after a residual check. A
  Lanczos step pays only for the work it needs: one Gram-Schmidt pass unless
  the DGKS test asks for a second, no weight products on unweighted graphs,
  and no eigensolve of T in a cycle that cannot converge before its restart.

Nothing here imports scipy. Full spectra go through the dense symmetric
LAPACK solver, one call per stack of equal-size graphs (:func:`spectra`),
and are capped at ``DENSE_CAP`` nodes.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence
from .graph import Graph

# largest n whose lambda1 comes from dense eigvalsh (dense view included),
# and the largest 2-core the sign-test route folds its pendant trees into;
# kept at its ARPACK-era value after re-measuring against the numpy Lanczos
# (one BLAS thread): Lanczos wins from ~120 nodes on ER and BA graphs and
# from ~140 on the lollipop (which takes the sign-test route above the cap)
DENSE_LAMBDA1_CAP = 192
# Lanczos residual bound on lambda1, relative to max(1, d_max); the
# sign-test route brackets lambda1 at least this tightly
TOL_LAMBDA1 = 1e-12
# thick-restart Lanczos: basis size, Ritz vectors kept at a restart (20
# rather than 12 took 829 instead of 1009 matvecs on the 2 x 1000 ladder),
# and restart cap (the 2 x 5000 ladder needs about 280 restarts)
LANCZOS_BASIS = 48
LANCZOS_KEEP = 20
LANCZOS_MAX_RESTARTS = 10_000
# steps between convergence checks within a cycle (an eigh of T at every step
# of every cycle took the 2 x 1000 ladder from 84 to 265 ms, one BLAS thread);
# after a restart, a cycle is checked before its own restart only if that
# restart's top Ritz residual was within LANCZOS_CHECK_NEAR times the bound
# (on the 2 x 1000 ladder this skips 150 of 207 checks and no matvec)
LANCZOS_CHECK_EVERY = 4
LANCZOS_CHECK_NEAR = 1e3
# DGKS test (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976): the
# Gram-Schmidt pass is repeated only when it left less than this fraction of
# the vector's norm (after the three-term subtraction, 1 of 828 steps on
# the 2 x 1000 ladder and none of 36 on a 5000-node BA graph with m = 2)
LANCZOS_DGKS = 1 / math.sqrt(2)


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue, absolute error <= TOL_LAMBDA1 * max(1, d_max).

    Above ``DENSE_LAMBDA1_CAP`` nodes, a graph with a degree-1 node and a
    small 2-core takes the sign-test route (:mod:`sdegraph.inertia`), which
    raises NoConvergence if its sweeps do not bracket lambda1; other
    graphs run Lanczos, where failing or a residual
    ``||A v - lambda v|| > TOL_LAMBDA1 * max(1, d_max)`` raises NoConvergence.
    """
    n = g.n
    d_max = float(g.degrees().max())
    if d_max == 0.0:
        return 0.0  # edgeless
    if n <= DENSE_LAMBDA1_CAP:
        return float(_top_eigenvalues(g.weights[None])[0])
    if (g._link_counts == 1).any():
        # imported here, so that runs without such graphs never compile it
        from .inertia import PendantTrees
        trees = PendantTrees.of(g, d_max)
        if trees is not None:
            return d_max - trees.mu_star()[0]
    bound = TOL_LAMBDA1 * max(1.0, d_max)
    # the Ritz estimate |beta s_m| matches the true residual only up to
    # roundoff (on the 10004-node fork an estimate under the bound 3e-12 came
    # with a true residual of 3.04e-12), so Lanczos aims at a quarter of it
    v = _lanczos(g, bound / 4)
    av = _matvec(g, v)
    # the Ritz value can be off by ~1e-13 (the 2000-node path), and v . (A v)
    # by A v's in-order hub rows (wheel:2000 1e-12); the exact sum of the
    # stored entries' products leaves only the products' own rounding; a
    # link's two entries give one float (v_i v_j) w: the upper half, doubled
    up = g.indices > g._rows
    lam = 2.0 * math.fsum(v[g._rows[up]] * v[g.indices[up]] * g.data[up]) / math.fsum(v * v)
    resid = float(np.linalg.norm(av - lam * v) / np.linalg.norm(v))
    if resid > bound:
        raise NoConvergence(f"Lanczos residual {resid:.3g} exceeds {TOL_LAMBDA1} "
                            f"times max(1, d_max) (lambda1={lam})")
    return lam


def _top_eigenvalues(weights: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each symmetric matrix of a (B, n, n) stack: one ``eigvalsh`` call."""
    return np.linalg.eigvalsh(weights)[:, -1]


def _matvec(g: Graph, x: np.ndarray) -> np.ndarray:
    """A x on the stored CSR arrays; unit weights need no product."""
    terms = x[g.indices] if g.is_unweighted() else g.data * x[g.indices]
    return np.bincount(g._rows, weights=terms, minlength=g.n)


def _lanczos(g: Graph, bound: float) -> np.ndarray:
    """Ritz vector of the largest adjacency eigenvalue, by thick-restart
    Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22(2), 2000).

    Each step subtracts the three-term recurrence's beta v_{j-1} from
    A v_j, then orthogonalises against every basis vector by one classical
    Gram-Schmidt pass, and by a second one when the DGKS test
    (``LANCZOS_DGKS``) sees the first cancel most of the vector. When
    ``LANCZOS_BASIS`` vectors are built, the ``LANCZOS_KEEP`` largest Ritz
    vectors and the residual direction start the next cycle, their block of
    T an arrowhead. The top Ritz residual |beta s_m| is checked at every
    restart, every ``LANCZOS_CHECK_EVERY`` steps of the first cycle and of
    any cycle whose restart left it within ``LANCZOS_CHECK_NEAR`` times
    ``bound``, and whenever beta is at most ``bound`` (an invariant Krylov
    space). Stops when that residual is at most ``bound``; NoConvergence
    after ``LANCZOS_MAX_RESTARTS`` restarts.
    """
    n, m = g.n, LANCZOS_BASIS
    basis = np.empty((m + 1, n))
    t = np.zeros((m, m))
    # the all-ones start overlaps the non-negative Perron vector of every
    # component, so lambda1's eigenvector lies in the Krylov space
    basis[0] = 1.0 / math.sqrt(n)
    j = restarts = 0
    check = True
    while True:
        w = _matvec(g, basis[j])
        if j:
            w -= t[j - 1, j] * basis[j - 1]
        before = math.sqrt(w @ w)
        for _ in range(2):
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            t[j, j] += h[j]
            beta = math.sqrt(w @ w)
            if beta >= LANCZOS_DGKS * before:
                break
        j += 1
        if beta <= bound or j == m or (check and j % LANCZOS_CHECK_EVERY == 0):
            theta, s = np.linalg.eigh(t[:j, :j])
            resid = abs(beta * s[-1, -1])
            if resid <= bound:
                return s[:, -1] @ basis[:j]
        basis[j] = w / beta
        if j < m:
            t[j - 1, j] = t[j, j - 1] = beta
            continue
        if restarts == LANCZOS_MAX_RESTARTS:
            raise NoConvergence(
                f"Lanczos did not converge in {restarts} restarts of {m} vectors "
                f"(top Ritz residual {resid:.3g}, bound {bound:.3g})")
        restarts += 1
        check = resid <= LANCZOS_CHECK_NEAR * bound
        k = LANCZOS_KEEP
        kept = s[:, -k:]
        basis[:k] = kept.T @ basis[:m]
        basis[k] = basis[m]
        t[:] = 0.0
        t[range(k), range(k)] = theta[-k:]
        t[:k, k] = t[k, :k] = beta * kept[-1]
        j = k


def spectra(weights: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency and Laplacian eigenvalues of a ``(B, n, n)`` stack of weight
    matrices with their ``(B, n)`` weighted degrees: two ``(B, n)`` arrays,
    rows sorted descending, one ``eigvalsh`` call each on the whole stack.

    The Laplacian is built as deg I - W from zeros, never by negating W: a
    -0.0 entry would flip LAPACK's Householder signs and the last bits of
    the eigenvalues. Its eigenvalues are clamped at 0 from below. Both
    arrays are C-contiguous, so that an elementwise numpy function gives
    the same bits on a stack of any size (on a strided stack it may take a
    different loop).
    """
    lap = np.zeros(weights.shape)
    lap.reshape(len(lap), -1)[:, ::weights.shape[-1] + 1] = degrees  # the diagonals
    lap -= weights
    adj = np.linalg.eigvalsh(weights)[:, ::-1]
    lap = np.maximum(np.linalg.eigvalsh(lap)[:, ::-1], 0.0)
    return np.ascontiguousarray(adj), np.ascontiguousarray(lap)


def full_spectrum(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency and Laplacian eigenvalues of one graph, each sorted
    descending, from the dense view (TooLargeForDense above ``DENSE_CAP``
    nodes): :func:`spectra` on a stack of one."""
    adj, lap = spectra(g.weights[None], g.degrees()[None])
    return adj[0], lap[0]
