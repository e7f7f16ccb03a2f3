"""Graph family generators and their exponent asymptotics.

Deterministic families (path, wheel, star, complete, complete bipartite,
modular biregular, path-with-double-fork, modified lollipop) plus seeded
Erdos-Renyi and Barabasi-Albert models. :func:`generate` builds every
family as a CSR :class:`Graph`, at any size, and each deterministic
generator asserts its expected degree profile after construction. Families
whose spectral radius has a proven closed form expose it through
:func:`analytic_lambda1`; the lollipop has none and is always computed.
:func:`family_q` is :func:`sde` on the generated graph with that lambda1.

Family specs are expressible as CLI strings, e.g. ``path:100``,
``lollipop:1000``, ``er:100:0.1:42``, ``ba:100:3:42``, ``kbip:2:3``,
``bireg:4:6:3``.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, InvalidGraph
from .graph import Graph
from .solver import SdeResult, sde
from .spectral import spectral_radius

FAMILY_KINDS = ("path", "wheel", "star", "complete", "kbip", "bireg",
                "fork", "lollipop", "er", "ba")


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    args: tuple

    def __str__(self) -> str:
        return ":".join([self.kind] + [_fmt_arg(a) for a in self.args])


def _fmt_arg(a) -> str:
    if isinstance(a, float):
        return format(a, "g")
    return str(a)


def parse_family(text: str) -> FamilySpec:
    """Parse a ``kind:arg:arg...`` family string."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    raw = parts[1:]
    try:
        if kind in ("path", "wheel", "star", "complete", "fork", "lollipop"):
            (n,) = raw
            return FamilySpec(kind, (int(n),))
        if kind == "kbip":
            m, n = raw
            return FamilySpec(kind, (int(m), int(n)))
        if kind == "bireg":
            m, n, r1 = raw
            return FamilySpec(kind, (int(m), int(n), int(r1)))
        if kind == "er":
            if len(raw) == 2:
                n, p = raw
                return FamilySpec(kind, (int(n), float(p), None))
            n, p, seed = raw
            return FamilySpec(kind, (int(n), float(p), int(seed)))
        if kind == "ba":
            if len(raw) == 2:
                n, m = raw
                return FamilySpec(kind, (int(n), int(m), None))
            n, m, seed = raw
            return FamilySpec(kind, (int(n), int(m), int(seed)))
    except ValueError as exc:
        raise BadSpec(f"bad family arguments in {text!r}: {exc}") from exc
    raise BadSpec(f"unknown family {kind!r} (known: {', '.join(FAMILY_KINDS)})")


# deterministic link builders: (node count, i, j) with one entry per link


def _edges_path(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    if n < 2:
        raise BadSpec("path needs N >= 2")
    return n, np.arange(n - 1), np.arange(1, n)


def _edges_wheel(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    # hub is node 0; rim cycle on 1..n-1
    if n < 4:
        raise BadSpec("wheel needs N >= 4")
    return (n, np.r_[np.zeros(n - 1, dtype=np.int64), 1:n - 1, 1],
            np.r_[1:n, 2:n, n - 1])


def _edges_star(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    if n < 2:
        raise BadSpec("star needs N >= 2")
    return n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n)


def _edges_complete(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    if n < 2:
        raise BadSpec("complete graph needs N >= 2")
    return (n, *np.triu_indices(n, 1))


def _edges_kbip(m: int, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    if m < 1 or n < 1:
        raise BadSpec("complete bipartite needs m, n >= 1")
    return m + n, np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)


def _edges_bireg(m: int, n: int, r1: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Modular biregular construction: part-A node i links to part-B nodes
    (i*r1 + j) mod n for j = 0..r1-1; requires m*r1 divisible by n."""
    if m < 1 or n < 1 or r1 < 1:
        raise BadSpec("biregular needs positive m, n, r1")
    if r1 > n:
        raise BadSpec(f"r1={r1} exceeds opposite part size n={n}")
    if (m * r1) % n != 0:
        raise BadSpec(f"m*r1={m * r1} not divisible by n={n}")
    # r1 <= n already forces the implied r2 = m*r1/n <= m, and makes a row's
    # r1 consecutive residues distinct, so no link repeats
    return m + n, np.repeat(np.arange(m), r1), m + np.arange(m * r1) % n


def _edges_fork(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Path on N nodes with two pendant nodes at each end (N+4 nodes)."""
    if n < 2:
        raise BadSpec("fork needs N >= 2")
    return n + 4, np.r_[0:n - 1, 0, 0, n - 1, n - 1], np.r_[1:n, n:n + 4]


def _edges_lollipop(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Complete graph K4 minus one link, the two loose ends joined to a new
    node, and a path of N nodes hanging off that node (N+5 nodes)."""
    if n < 1:
        raise BadSpec("lollipop needs N >= 1")
    # K4 minus (2,3), then (2,4), (3,4), then the path 4-5-...-(N+4)
    return (n + 5, np.r_[0, 0, 0, 1, 1, 2, 3, 4:n + 4],
            np.r_[1, 2, 3, 2, 3, 4, 4, 5:n + 5])


_EDGE_BUILDERS = {
    "path": _edges_path,
    "wheel": _edges_wheel,
    "star": _edges_star,
    "complete": _edges_complete,
    "kbip": _edges_kbip,
    "bireg": _edges_bireg,
    "fork": _edges_fork,
    "lollipop": _edges_lollipop,
}


# (degree, count) pairs of the exact degree multiset each family must produce
_PROFILES = {
    "path": lambda n: [(2, n - 2), (1, 2)],
    "wheel": lambda n: [(3, n - 1), (n - 1, 1)],
    "star": lambda n: [(n - 1, 1), (1, n - 1)],
    "complete": lambda n: [(n - 1, n)],
    "kbip": lambda m, n: [(n, m), (m, n)],
    "bireg": lambda m, n, r1: [(r1, m), ((m * r1) // n, n)],
    "fork": lambda n: [(1, 4), (3, 2), (2, n - 2)],
    "lollipop": lambda n: [(3, 5), (2, n - 1), (1, 1)],
}


# random models


def er_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """One Erdos-Renyi G(n, p) sample."""
    if n < 1 or not (0 <= p <= 1):
        raise BadSpec("er needs N >= 1 and p in [0, 1]")
    upper = np.triu(rng.random((n, n)) < p, 1)
    return Graph.from_dense(upper | upper.T)


def ba_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """One Barabasi-Albert sample: complete seed graph on m nodes, then each
    arriving node attaches m distinct links by preferential attachment over
    the repeated-ends link list."""
    if not (1 <= m < n):
        raise BadSpec("ba needs 1 <= m < N")
    repeated: list[int] = []
    for i in range(m):
        for j in range(i + 1, m):
            repeated += [i, j]
    if m == 1:
        repeated = [0]  # degenerate seed: a single node, no links yet
    for v in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in targets:
            repeated += [v, t]
    # past the placeholder seed of m = 1, the ends are the links' (i, j) pairs
    ends = repeated[1:] if m == 1 else repeated
    return Graph._from_links(n, ends[0::2], ends[1::2])


def _assert_profile(spec: FamilySpec, degrees: np.ndarray) -> None:
    expected = Counter()
    for degree, count in _PROFILES[spec.kind](*spec.args):
        expected[degree] += count
    expected = {k: v for k, v in expected.items() if v}
    values, counts = np.unique(np.rint(degrees).astype(np.int64), return_counts=True)
    got = dict(zip(values.tolist(), counts.tolist()))
    if got != expected:
        raise InvalidGraph(
            f"{spec} generated degree profile {got} != expected {expected}")


def generate(spec: FamilySpec | str) -> Graph:
    """Materialize a family spec as a CSR :class:`Graph`."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    if spec.kind == "er":
        n, p, seed = spec.args
        return er_graph(n, p, np.random.default_rng(seed))
    if spec.kind == "ba":
        n, m, seed = spec.args
        return ba_graph(n, m, np.random.default_rng(seed))
    n, i, j = _EDGE_BUILDERS[spec.kind](*spec.args)
    g = Graph._from_links(n, i, j)
    g.validate()
    _assert_profile(spec, g.degrees())
    return g


def analytic_lambda1(spec: FamilySpec | str) -> float | None:
    """Proven closed-form spectral radius, when the family has one."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    kind, args = spec.kind, spec.args
    if kind == "path":
        return 2.0 * math.cos(math.pi / (args[0] + 1))
    if kind == "wheel":
        return 1.0 + math.sqrt(args[0])
    if kind == "star":
        return math.sqrt(args[0] - 1)
    if kind == "complete":
        return float(args[0] - 1)
    if kind == "kbip":
        m, n = args
        return math.sqrt(m * n)
    if kind == "bireg":
        m, n, r1 = args
        return math.sqrt(r1 * ((m * r1) // n))
    if kind == "fork":
        return 2.0
    return None


def family_q(spec: FamilySpec | str, tol_q: float = 1e-9) -> SdeResult:
    """:func:`sde` of a deterministic family, with the closed-form lambda1
    when the family has one (otherwise :func:`spectral_radius`)."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    if spec.kind in ("er", "ba"):
        raise BadSpec("family_q handles deterministic families; use sde() on a sample")
    return sde(generate(spec), lambda1=analytic_lambda1(spec), tol_q=tol_q)


# closed-form / asymptotic oracles


def path_q_asymptotic(n: int) -> float:
    """Three-term expansion of the path exponent: (4/pi^2) N + 12/pi^2 +
    (1/3 + 52/(3 pi^2))/N."""
    if n < 2:
        raise BadSpec("path needs N >= 2")
    pi2 = math.pi ** 2
    return 4.0 / pi2 * n + 12.0 / pi2 + (1.0 / 3.0 + 52.0 / (3.0 * pi2)) / n


def _bisect(h, lo: float, hi: float, tol: float) -> float:
    """Midpoint of the bracket [lo, hi], with h(lo) > 0 >= h(hi), halved
    down to width ``tol`` or to the float spacing at the root."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # tol is finer than the float spacing at the root
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def path_q_exact(n: int, tol: float = 1e-12) -> float:
    """Root in q of cos^q(pi/(N+1)) = 1 - 2/N + 2^(1-q)/N by log-domain
    bisection; the independent oracle for the path family."""
    if n < 3:
        raise BadSpec("exact path equation needs N >= 3")
    log_cos = math.log(math.cos(math.pi / (n + 1)))

    def g(q: float) -> float:
        rhs = 1.0 - 2.0 / n + math.exp((1.0 - q) * math.log(2.0)) / n
        return q * log_cos - math.log(rhs)

    lo, hi = 2.0, 10.0 * n
    while g(hi) > 0.0:  # defensive; 10N comfortably exceeds the root
        hi *= 2.0
    if g(lo) <= 0.0:
        return 2.0
    return _bisect(g, lo, hi, tol)


def fork_q_constant() -> float:
    """The N-independent fork exponent: root of 3*2^q = 2 + 3^q above 2,
    bisected to a bracket of width 1e-12."""

    def h(q: float) -> float:
        return 3.0 * 2.0 ** q - 2.0 - 3.0 ** q

    return _bisect(h, 2.0, 3.0, 1e-12)


@functools.lru_cache(maxsize=1)
def lollipop_limit_lambda1() -> float:
    """Limiting spectral radius of the lollipop family, computed once at
    N = 1e4 (convergence in N is extremely fast); approx 2.9021160. The
    pendant path folds into the 5-node core, so :func:`spectral_radius`
    takes its sign-test route."""
    return spectral_radius(generate(FamilySpec("lollipop", (10_000,))))


def lollipop_q_asymptotic(n: int, lambda1: float | None = None) -> float:
    """Logarithmic growth law a*log(N) + b with a = 1/(log 3 - log lambda1)
    and b = log(5)/log(lambda1/3); lambda1 defaults to the computed limit.

    Note the a-coefficient diverges as lambda1 -> 3.
    """
    if n < 2:
        raise BadSpec("lollipop asymptotic needs N >= 2")
    lam = lollipop_limit_lambda1() if lambda1 is None else lambda1
    if not (2.0 < lam < 3.0):
        raise BadSpec("lambda1 must lie in (2, 3)")
    a = 1.0 / (math.log(3.0) - math.log(lam))
    b = math.log(5.0) / math.log(lam / 3.0)
    return a * math.log(n) + b


def wheel_limit_check(n: int, tol_q: float = 1e-9) -> float:
    """q(W_N) - 2 with lambda1 from spectral_radius, cross-checked
    against the closed form 1 + sqrt(N); positive and decreasing in N."""
    if n < 5:
        raise BadSpec("wheel limit check needs N >= 5")
    g = generate(FamilySpec("wheel", (n,)))
    lam = spectral_radius(g)
    lam_exact = 1.0 + math.sqrt(n)
    if abs(lam - lam_exact) > 1e-9 * lam_exact:
        raise InvalidGraph(
            f"spectral_radius lambda1={lam} disagrees with 1+sqrt(N)={lam_exact}")
    return sde(g, lambda1=lam, tol_q=tol_q).q - 2.0
