"""Eigenvalue computations: spectral radius and full adjacency/Laplacian spectra.

The spectral radius is the top dense LAPACK eigenvalue up to
``DENSE_LAMBDA1_CAP`` nodes, and above it ARPACK Lanczos on the graph's own
CSR arrays (graphs with 1e6 nodes stay tractable), returned as the
``math.fsum`` Rayleigh quotient of the Lanczos vector after a residual check.
Full spectra go through the dense symmetric LAPACK solver and are capped at
``DENSE_CAP`` nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .graph import Graph

# largest n whose lambda1 comes from dense eigvalsh; measured break-even with
# Lanczos on ER, BA and lollipop graphs (the path favours eigvalsh up to ~700)
DENSE_LAMBDA1_CAP = 192
# Lanczos residual bound on lambda1, relative to max(1, d_max)
TOL_LAMBDA1 = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Adjacency and Laplacian eigenvalues, both sorted descending.

    Laplacian eigenvalues are clamped at 0 from below (the matrix is PSD;
    tiny negative values are roundoff).
    """

    adjacency: np.ndarray
    laplacian: np.ndarray

    @property
    def lambda1(self) -> float:
        return float(self.adjacency[0])


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue, absolute error <= TOL_LAMBDA1 * max(1, d_max).

    Above ``DENSE_LAMBDA1_CAP`` nodes, Lanczos failing or a residual
    ``||A v - lambda v|| > TOL_LAMBDA1 * max(1, d_max)`` raises NoConvergence.
    """
    n = g.n
    d_max = float(g.degrees().max())
    if d_max == 0.0:
        return 0.0  # edgeless
    if n <= DENSE_LAMBDA1_CAP:
        return float(np.linalg.eigvalsh(g.weights)[-1])
    # imported here so that start-up does not pay for scipy.sparse on runs
    # that never reach Lanczos
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    a = csr_array((g.data, g.indices, g.indptr), shape=(n, n))
    # the all-ones start overlaps the non-negative Perron vector of every
    # component, so lambda1's eigenvector lies in the Krylov space
    try:
        _, vecs = eigsh(a, k=1, which="LA", v0=np.ones(n), tol=0)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos did not converge: {exc}") from exc
    v = vecs[:, 0]
    av = a @ v
    # the Ritz value can be off by ~1e-13 (the 2000-node path); the exactly
    # summed Rayleigh quotient is limited only by the roundoff in A v
    lam = math.fsum(v * av) / math.fsum(v * v)
    resid = float(np.linalg.norm(av - lam * v) / np.linalg.norm(v))
    if resid > TOL_LAMBDA1 * max(1.0, d_max):
        raise NoConvergence(f"Lanczos residual {resid:.3g} exceeds {TOL_LAMBDA1} "
                            f"times max(1, d_max) (lambda1={lam})")
    return lam


def full_spectrum(g: Graph) -> Spectrum:
    """All adjacency and Laplacian eigenvalues, from the dense view
    (TooLargeForDense above ``DENSE_CAP`` nodes)."""
    w = g.weights
    adj = np.linalg.eigvalsh(w)[::-1]
    lap = np.linalg.eigvalsh(np.diag(g.degrees()) - w)[::-1]
    lap = np.maximum(lap, 0.0)
    return Spectrum(adjacency=adj, laplacian=lap)
