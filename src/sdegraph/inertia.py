"""lambda1 of trees and pendant trees by Sylvester inertia: the sign-test
route of :func:`sdegraph.spectral.spectral_radius`.

Above ``DENSE_LAMBDA1_CAP`` nodes, a graph with a degree-1 node whose
pendant trees leave a 2-core of at most ``DENSE_LAMBDA1_CAP`` nodes (a
forest leaves none: the path, the fork, BA trees; the lollipop leaves 5
nodes) gets mu* = d_max - lambda1 from the signs of the pivots of
M(mu) = (d_max - mu) I - A with the leaves eliminated first: all are
positive exactly when mu < mu* (Jacobs & Trevisan, Linear Algebra Appl.
434, 2011), and the pendant pivots fold into the diagonal of the small
dense core block. Newton steps on the smallest eigenvalue of the folded
block, safeguarded by bisection, find mu*, and lambda1 is returned only
after two sign tests bracket it within a rounding bound. ``spectral_radius``
imports this module only for such graphs, so other runs never compile it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence
from .graph import Graph
from .spectral import DENSE_LAMBDA1_CAP, TOL_LAMBDA1

# pivot sweeps before NoConvergence (bisection alone narrows [0, d_max] to
# the rounding bound in about 50; Newton took 6 to 14 on the path, the fork,
# the star and the lollipop)
MAX_SWEEPS = 200
_EPS = 2.0 ** -52  # float64 machine epsilon


def _peel(g: Graph) -> tuple[list[int], list[int]]:
    """Leaf-removal order of the pendant trees and each removed node's
    parent (its one remaining neighbour, or -1 for the last node of a tree
    component); empty without a degree-1 node.

    One pass over a first-in first-out queue, so each tree component ends
    at a centre. A node's remaining neighbour is the XOR of its row's ids
    with those of its removed neighbours, so the Python work is O(1) per
    removed node; the setup is two vectorised O(n + links) passes.
    """
    links = g._link_counts
    left = links.tolist()
    other = np.zeros(g.n, dtype=g.indices.dtype)
    linked = np.flatnonzero(links)  # reduceat needs increasing offsets
    other[linked] = np.bitwise_xor.reduceat(g.indices, g.indptr[linked])
    other = other.tolist()
    order = np.flatnonzero(links == 1).tolist()  # grows while walked: a queue
    parent: list[int] = []
    enqueue, record = order.append, parent.append
    for v in order:
        if left[v] == 0:  # its last neighbour is gone: the tree's root
            record(-1)
            continue
        u = other[v]
        record(u)
        other[u] ^= v
        count = left[u] - 1
        left[u] = count
        if count == 1:
            enqueue(u)
    return order, parent


class PendantTrees:
    """The pivots of M(mu) = (d_max - mu) I - A with the pendant trees
    eliminated leaves first, and the search for mu* = d_max - lambda1.

    Each removed node v, with weight w to its parent (0 at a tree's root),
    has pivot p_v = e_v + w on the excess
    e_v = (d_max - d_v) + sum_children w_c e_c / (e_c + w_c) - mu,
    where every term but the last is non-negative while the children's
    excesses are, so mu keeps its relative accuracy. The child terms of a node
    are added with Neumaier's compensation. Pivots fold into the 2-core
    block L_core + diag(d_max - d_u + sum_children w_c e_c / (e_c + w_c) - mu),
    with L_core the Laplacian of the links inside the core. By Sylvester's
    law of inertia, M(mu) is positive definite (mu < mu*) exactly when every
    pivot is positive and so is the smallest eigenvalue phi of the core
    block; phi is the smallest root pivot for a forest. Along a chain whose
    nodes repeat the same excess and weight, the pivot and its mu-derivative
    reach a float fixed point, after which a sweep jumps to the chain's end.

    Rounding: a sweep's signs are exact for M(mu) + E, where E perturbs
    each entry by a few ulps of d_max (plus the rounding of the weighted
    degree sums, and the dense eigensolver's error on the core), so a sign
    test is wrong only within ``delta`` of mu*.
    """

    def __init__(self, g: Graph, d_max: float, order: list[int], parent: list[int],
                 core: np.ndarray):
        n, m, kc = g.n, len(order), core.size
        links = g._link_counts
        self.m, self.kc, self.d_max = m, kc, d_max
        order_a = np.array(order, dtype=np.int64)
        parent_a = np.array(parent, dtype=np.int64)
        # positions: removed nodes 0..m-1 in removal order, core nodes after
        pos = np.empty(n, dtype=np.int64)
        pos[order_a] = np.arange(m)
        pos[core] = m + np.arange(kc)
        has_parent = parent_a >= 0
        up = np.where(has_parent, pos[np.maximum(parent_a, 0)], -1)
        degrees = g.degrees()
        x = d_max - degrees[order_a]
        if g.is_unweighted():
            w = has_parent.astype(float)
        else:
            keys = g._rows * n + g.indices
            at = np.searchsorted(keys, order_a * n + np.maximum(parent_a, 0))
            w = np.where(has_parent, g.data[np.minimum(at, keys.size - 1)], 0.0)
        # end[k]: the last position r >= k such that every position in
        # (k, r] repeats the chain step before it: one child, the position
        # before, with the same excess, fed by a link of the same weight
        one = np.bincount(up[has_parent], minlength=m + kc)[:m] == 1
        repeat = np.zeros(m + 1, dtype=bool)
        j = np.arange(2, m)
        repeat[j] = ((up[j - 1] == j) & one[j] & (up[j - 2] == j - 1) & one[j - 1]
                     & (x[j] == x[j - 1]) & (w[j - 1] == w[j - 2]))
        stops = np.flatnonzero(~repeat[1:])
        self.end = stops[np.searchsorted(stops, np.arange(m))].tolist()
        self.x, self.w, self.up = x.tolist(), w.tolist(), up.tolist()
        if kc:
            starts, counts = g.indptr[core], links[core]
            at = (np.repeat(starts - np.cumsum(counts) + counts, counts)
                  + np.arange(counts.sum()))
            rows, cols = np.repeat(np.arange(kc), counts), pos[g.indices[at]] - m
            inner = cols >= 0
            a = np.zeros((kc, kc))
            a[rows[inner], cols[inner]] = g.data[at][inner]
            self.core_block = np.diag(a.sum(axis=1) + d_max - degrees[core]) - a
        # Collatz-Wielandt: lambda1 <= max_v (A x)_v / x_v for x = sqrt(degree)
        # (positive off isolated nodes), a lower bound of mu* to start from
        # that is exact on stars and close on trees ruled by a hub
        root_deg = np.sqrt(degrees)
        sums = np.bincount(g._rows, weights=g.data * root_deg[g.indices], minlength=n)
        linked = links > 0
        self.start = max(0.0, d_max - float((sums[linked] / root_deg[linked]).max()))
        rounding = 0.0
        if not g.is_unweighted():  # sequential degree sums
            rounding = float((links * degrees).max())
        self.delta = _EPS * (d_max * (16 + kc) + rounding)

    @classmethod
    def of(cls, g: Graph, d_max: float) -> PendantTrees | None:
        """The route for ``g``, or None with a 2-core above
        ``DENSE_LAMBDA1_CAP`` nodes, or where the rounding bound would not
        meet TOL_LAMBDA1 (weighted hubs)."""
        order, parent = _peel(g)
        kept = g._link_counts > 0
        kept[order] = False
        core = np.flatnonzero(kept)
        if core.size > DENSE_LAMBDA1_CAP:
            return None
        trees = cls(g, d_max, order, parent, core)
        if 10 * trees.delta > TOL_LAMBDA1 * max(1.0, d_max):
            return None
        return trees

    def sweep(self, mu: float) -> tuple[float, float] | None:
        """(phi, -dphi/dmu) at mu, or None when a non-root pivot is <= 0."""
        m = self.m
        x, w, up, end = self.x, self.w, self.up, self.end
        s = [0.0] * (m + self.kc)  # child terms, compensation, mu-derivatives
        c = [0.0] * (m + self.kc)
        ds = [0.0] * (m + self.kc)
        phi, slope = math.inf, 1.0
        e_prev = de_prev = math.nan
        k = 0
        while k < m:
            e = x[k] + (s[k] + c[k]) - mu
            de = ds[k] - 1.0
            wk = w[k]
            if wk == 0.0:  # a root: its pivot is e
                if e < phi:
                    phi, slope = e, -de
                k += 1
                continue
            p = e + wk
            if p <= 0.0:
                return None
            r = wk / p
            t = r * e
            j = up[k]
            a = s[j]
            total = a + t
            c[j] += (a - total) + t if abs(a) >= abs(t) else (t - total) + a
            s[j] = total
            ds[j] += r * r * de
            if e == e_prev and de == de_prev and end[k] > k:
                # a fixed point: every node up to end[k] repeats this one
                k = end[k]
                s[k], ds[k] = total, ds[j]
                e_prev = math.nan
                continue
            e_prev, de_prev = e, de
            k += 1
        if self.kc:
            block = self.core_block + np.diag(np.add(s[m:], c[m:]) - mu)
            values, vectors = np.linalg.eigh(block)
            if values[0] < phi:
                y = vectors[:, 0]
                # d(block)/dmu is diag(ds - 1); Hellmann-Feynman
                phi, slope = float(values[0]), float(y @ ((1.0 - np.array(ds[m:])) * y))
        return phi, slope

    def mu_star(self) -> tuple[float, float, float]:
        """mu* = d_max - lambda1, within ``TOL_LAMBDA1 * max(1, d_max)``,
        and the ends of the bracket the sign tests certify around it.

        Keeps lo, the last mu whose sweep was positive definite, and hi,
        the last one that was not (0 and d_max by Gershgorin to start). A
        Newton step on phi from mu lands at the Rayleigh quotient of phi's
        eigenvector on the core block (or root) extended to the removed
        nodes by M(mu) x = 0 there, an upper bound of mu*, and from above it
        converges monotonically while no pendant pole intervenes; a step
        that leaves (lo, hi) or does not halve the one before bisects
        instead. Once a step is within
        ``delta``, the next sweep tests the other side of the estimate. The
        result is returned when hi - lo <= 8 delta, with the bracket
        [lo - delta, hi + delta] around mu*; NoConvergence after
        ``MAX_SWEEPS`` sweeps.
        """
        delta = self.delta
        lo, hi = 0.0, self.d_max
        mu, estimate, last_step = self.start, math.nan, math.inf
        for _ in range(MAX_SWEEPS):
            pivots = self.sweep(mu)
            if pivots is not None and pivots[0] > 0.0:
                lo = mu
            else:
                hi = mu
            step = math.inf
            if pivots is not None:
                newton = mu + pivots[0] / pivots[1]
                if math.isfinite(newton):
                    estimate, step = newton, abs(newton - mu)
            if hi - lo <= 8 * delta:
                break
            if step <= delta:
                mu = estimate + 2 * (delta + step) * (1 if mu == lo else -1)
            elif step <= 0.5 * last_step:
                mu = estimate
            else:
                mu = math.nan
            if not lo < mu < hi:
                mu = 0.5 * (lo + hi)
            last_step = step
        else:
            raise NoConvergence(
                f"pivot sweeps did not bracket d_max - lambda1 within {MAX_SWEEPS} "
                f"sweeps (bracket [{lo!r}, {hi!r}])")
        if not lo - delta <= estimate <= hi + delta:
            estimate = 0.5 * (lo + hi)
        return max(estimate, 0.0), lo - delta, hi + delta
