"""Graph family generators and their exponent asymptotics.

Every deterministic family is one row of :data:`FAMILIES`: its link
builder, its expected degree profile, its proven closed-form spectral
radius (or none) and its asymptotic exponent law q(N) (or none). Parsing,
:func:`generate` (which checks the degree profile after construction),
:func:`analytic_lambda1` and the families that
:func:`sdegraph.study.asymptotics_rows` accepts all read that table, so a
new family takes a builder and one row. The seeded Erdos-Renyi and
Barabasi-Albert models are drawn by :func:`sample`. :func:`family_q` is
:func:`sde` on the generated graph with the closed-form lambda1.

Family specs are expressible as CLI strings, e.g. ``path:100``,
``lollipop:1000``, ``er:100:0.1:42``, ``ba:100:3:42``, ``kbip:2:3``,
``bireg:4:6:3``.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, InvalidGraph
from .graph import Graph, _integer, _real, _too_large
from .solver import SdeResult, _bisect, sde
from .spectral import spectral_radius


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    args: tuple

    def __str__(self) -> str:
        # an unseeded random model omits its seed, as parse_family expects
        return ":".join(str(a) for a in (self.kind, *self.args) if a is not None)


# deterministic link builders: (node count, i, j), one entry per link, of checked args


def _edges_path(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    return n, np.arange(n - 1), np.arange(1, n)


def _edges_wheel(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    # hub is node 0; rim cycle on 1..n-1
    return (n, np.r_[np.zeros(n - 1, dtype=np.int64), 1:n - 1, 1],
            np.r_[1:n, 2:n, n - 1])


def _edges_star(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    return n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n)


def _edges_complete(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    return (n, *np.triu_indices(n, 1))


def _edges_kbip(m: int, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    return m + n, np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)


def _edges_bireg(m: int, n: int, r1: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Modular biregular construction: part-A node i links to part-B nodes
    (i*r1 + j) mod n for j = 0..r1-1, where :func:`_bireg_refuses` passes the
    arguments."""
    # r1 <= n already forces the implied r2 = m*r1/n <= m, and makes a row's
    # r1 consecutive residues distinct, so no link repeats
    return m + n, np.repeat(np.arange(m), r1), m + np.arange(m * r1) % n


def _bireg_refuses(m: int, n: int, r1: int) -> str:
    """Why bireg's construction has no graph: r1 > n, or m*r1 not divisible by n; or ''."""
    if r1 > n:
        return f"r1={r1} exceeds opposite part size n={n}"
    if (m * r1) % n != 0:
        return f"m*r1={m * r1} not divisible by n={n}"
    return ""


def _edges_fork(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Path on N nodes with two pendant nodes at each end (N+4 nodes)."""
    return n + 4, np.r_[0:n - 1, 0, 0, n - 1, n - 1], np.r_[1:n, n:n + 4]


def _edges_lollipop(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Complete graph K4 minus one link, the two loose ends joined to a new
    node, and a path of N nodes hanging off that node (N+5 nodes)."""
    # K4 minus (2,3), then (2,4), (3,4), then the path 4-5-...-(N+4)
    return (n + 5, np.r_[0, 0, 0, 1, 1, 2, 3, 4:n + 4],
            np.r_[1, 2, 3, 2, 3, 4, 4, 5:n + 5])


# closed-form / asymptotic oracles


def path_q_asymptotic(n: int) -> float:
    """Three-term expansion of the path exponent: (4/pi^2) N + 12/pi^2 +
    (1/3 + 52/(3 pi^2))/N."""
    if not 2 <= _real(n, "path sizes N", BadSpec) <= 1e308:
        raise BadSpec("path needs 2 <= N <= 1e308")
    pi2 = math.pi ** 2
    return 4.0 / pi2 * n + 12.0 / pi2 + (1.0 / 3.0 + 52.0 / (3.0 * pi2)) / n


def path_q_exact(n: int) -> float:
    """Root in q of cos^q(pi/(N+1)) = 1 - 2/N + 2^(1-q)/N by log-domain
    bisection to a bracket of width 1e-12; the independent oracle for the
    path family, BadSpec where cos(pi/(N+1)) rounds to 1 (N past about 3e8)."""
    if not 3 <= _real(n, "path sizes N", BadSpec) <= 1e308:
        raise BadSpec("exact path equation needs 3 <= N <= 1e308")
    log_cos = math.log(math.cos(math.pi / (n + 1)))
    if log_cos == 0.0:
        raise BadSpec(f"exact path equation: cos(pi/(N+1)) rounds to 1 at N={n}")

    def g(q: float) -> float:
        rhs = 1.0 - 2.0 / n + math.exp((1.0 - q) * math.log(2.0)) / n
        return q * log_cos - math.log(rhs)

    lo, hi = 2.0, 10.0 * n
    while g(hi) > 0.0:  # defensive; 10N comfortably exceeds the root
        hi *= 2.0
    if g(lo) <= 0.0:
        return 2.0
    return _bisect(g, lo, hi, 1e-12)[0]


def fork_q_constant() -> float:
    """The N-independent fork exponent: root of 3*2^q = 2 + 3^q above 2,
    bisected to a bracket of width 1e-12."""

    def h(q: float) -> float:
        return 3.0 * 2.0 ** q - 2.0 - 3.0 ** q

    return _bisect(h, 2.0, 3.0, 1e-12)[0]


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
    if not 2 <= _real(n, "lollipop sizes N", BadSpec) <= 1e308:
        raise BadSpec("lollipop asymptotic needs 2 <= N <= 1e308")
    lam = lollipop_limit_lambda1() if lambda1 is None else _real(lambda1, "lambda1", BadSpec)
    if not (2.0 < lam < 3.0):
        raise BadSpec("lambda1 must lie in (2, 3)")
    a = 1.0 / (math.log(3.0) - math.log(lam))
    b = math.log(5.0) / math.log(lam / 3.0)
    return a * math.log(n) + b


@dataclass(frozen=True)
class Family:
    """One deterministic family. ``minima`` holds each integer argument's
    least value; ``links(*args)`` returns (node count, i, j) with one entry
    per link; ``profile(*args)`` the (degree, count) pairs of the exact
    degree multiset the graph must have; ``lambda1(*args)`` the proven
    closed-form spectral radius and ``law(n)`` the asymptotic exponent q(N),
    each None where the family has none; ``refuses(*args)``, where given,
    why arguments at or above the minima still have no graph ('' where
    they have one)."""

    links: Callable[..., tuple[int, np.ndarray, np.ndarray]]
    minima: tuple[int, ...]
    profile: Callable[..., list[tuple[int, int]]]
    lambda1: Callable[..., float] | None = None
    law: Callable[[int], float] | None = None
    refuses: Callable[..., str] | None = None

    @property
    def arity(self) -> int:
        """How many integer arguments the family takes."""
        return len(self.minima)


FAMILIES = {
    "path": Family(_edges_path, (2,), lambda n: [(2, n - 2), (1, 2)],
                   lambda1=lambda n: 2.0 * math.cos(math.pi / (n + 1)),
                   law=path_q_asymptotic),
    "wheel": Family(_edges_wheel, (4,), lambda n: [(3, n - 1), (n - 1, 1)],
                    lambda1=lambda n: 1.0 + math.sqrt(n),
                    law=lambda n: 2.0),  # the proven large-N limit
    "star": Family(_edges_star, (2,), lambda n: [(n - 1, 1), (1, n - 1)],
                   lambda1=lambda n: math.sqrt(n - 1)),
    "complete": Family(_edges_complete, (2,), lambda n: [(n - 1, n)],
                       lambda1=lambda n: float(n - 1)),
    "kbip": Family(_edges_kbip, (1, 1), lambda m, n: [(n, m), (m, n)],
                   lambda1=lambda m, n: math.sqrt(m * n)),
    "bireg": Family(_edges_bireg, (1, 1, 1), lambda m, n, r1: [(r1, m), ((m * r1) // n, n)],
                    lambda1=lambda m, n, r1: math.sqrt(r1 * ((m * r1) // n)),
                    refuses=_bireg_refuses),
    "fork": Family(_edges_fork, (2,), lambda n: [(1, 4), (3, 2), (2, n - 2)],
                   lambda1=lambda n: 2.0, law=lambda n: fork_q_constant()),
    "lollipop": Family(_edges_lollipop, (1,), lambda n: [(3, 5), (2, n - 1), (1, 1)],
                       law=lollipop_q_asymptotic),
}

# argument types of the random models: two parameters, then an optional seed
_RANDOM_ARGS = {"er": (int, float, int), "ba": (int, int, int)}

FAMILY_KINDS = (*FAMILIES, *_RANDOM_ARGS)


def parse_family(text: str) -> FamilySpec:
    """Parse a ``kind:arg:arg...`` family string. A deterministic family
    takes one integer argument per minimum; ``er:N:p[:seed]`` and
    ``ba:N:m[:seed]`` leave an omitted seed as None."""
    kind, *raw = text.strip().split(":")
    kind = kind.lower()
    if kind in FAMILIES:
        types = (int,) * FAMILIES[kind].arity
    elif kind in _RANDOM_ARGS:
        types = _RANDOM_ARGS[kind]
        if len(raw) == len(types) - 1:
            raw.append(None)
    else:
        raise BadSpec(f"unknown family {kind!r} (known: {', '.join(FAMILY_KINDS)})")
    if len(raw) != len(types):
        raise BadSpec(f"bad family arguments in {text!r}: "
                      f"expected {len(types)} arguments, got {len(raw)}")
    try:
        args = tuple(None if a is None else cast(a) for cast, a in zip(types, raw))
    except ValueError as exc:
        raise BadSpec(f"bad family arguments in {text!r}: {exc}") from exc
    return FamilySpec(kind, args)


# random models


def er_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """One Erdos-Renyi G(n, p) sample."""
    return Graph._from_links(n, *np.nonzero(np.triu(rng.random((n, n)) < p, 1)))


def ba_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """One Barabasi-Albert sample: complete seed graph on m nodes, then each
    arriving node attaches m distinct links by preferential attachment over
    the repeated-ends link list."""
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


def check_seed(seed: int | None) -> int | None:
    """``seed`` as an int, None passing; BadSpec unless it is an integer >= 0
    (numpy raises ValueError on a negative seed and TypeError on 1.5)."""
    return None if seed is None else _integer(seed, "seeds", 0, error=BadSpec)


def sample(spec: FamilySpec, rng: np.random.Generator) -> Graph:
    """One draw of an ``er`` or ``ba`` spec from ``rng``; the spec's own
    seed is not read; BadSpec unless 1 <= N, er's real 0 <= p <= 1 and ba's 1 <= m < N."""
    n, param = _integer(spec.args[0], f"{spec.kind} sizes", 1, error=BadSpec), spec.args[1]
    if spec.kind == "er" and not 0 <= _real(param, "er probabilities p", BadSpec) <= 1:
        raise BadSpec("er needs p in [0, 1]")
    if spec.kind == "ba":
        param = _integer(param, "ba link counts m", 1, n, BadSpec)
    if why := _too_large(n, n * n if spec.kind == "er" else 2 * param * n):  # er draws n x n
        raise BadSpec(f"{spec.kind}: {why}")
    return (er_graph if spec.kind == "er" else ba_graph)(n, param, rng)


def _checked_spec(spec: FamilySpec) -> tuple[Family, tuple[int, ...], Counter]:
    """The row, integer arguments and degree profile of a deterministic spec,
    once every argument is an integer at or above the row's minimum, the
    row's ``refuses`` passes them and the profile passes the size rule;
    BadSpec otherwise."""
    family = FAMILIES[spec.kind]
    if len(spec.args) != family.arity:
        raise BadSpec(f"{spec.kind} takes {family.arity} arguments, got {len(spec.args)}")
    args = tuple(_integer(a, f"{spec.kind} arguments", lo, error=BadSpec)
                 for a, lo in zip(spec.args, family.minima))
    if family.refuses and (why := family.refuses(*args)):
        raise BadSpec(why)
    profile = Counter()  # equality ignores zero counts
    for degree, count in family.profile(*args):
        profile[degree] += count
    if why := _too_large(profile.total(), sum(d * k for d, k in profile.items())):
        raise BadSpec(f"{spec.kind}: {why}")
    return family, args, profile


def generate(spec: FamilySpec | str) -> Graph:
    """Materialize a family spec as a CSR :class:`Graph`; a deterministic
    spec passes :func:`_checked_spec` first, and its graph's degree profile
    is checked against its table row."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    if spec.kind not in FAMILIES:
        return sample(spec, np.random.default_rng(check_seed(spec.args[2])))
    family, args, expected = _checked_spec(spec)
    g = Graph._from_links(*family.links(*args))
    got = Counter(dict(zip(*g.histogram._lists)))  # the histogram sde reuses
    if got != expected:
        raise InvalidGraph(
            f"{spec} generated degree profile {got} != expected {expected}")
    return g


def analytic_lambda1(spec: FamilySpec | str) -> float | None:
    """Proven closed-form spectral radius, when the family has one, of a
    spec that passes :func:`_checked_spec`."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    if spec.kind not in FAMILIES:
        return None
    family, args, _ = _checked_spec(spec)
    return None if family.lambda1 is None else family.lambda1(*args)


def family_q(spec: FamilySpec | str) -> SdeResult:
    """:func:`sde` of a deterministic family, with the closed-form lambda1
    when the family has one (otherwise :func:`spectral_radius`)."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    if spec.kind not in FAMILIES:
        raise BadSpec("family_q handles deterministic families; use sde() on a sample")
    return sde(generate(spec), lambda1=analytic_lambda1(spec))


def wheel_limit_check(n: int) -> float:
    """q(W_N) - 2 with lambda1 from spectral_radius, cross-checked
    against the closed form; positive and decreasing in N."""
    spec = FamilySpec("wheel", (_integer(n, "wheel limit check sizes", 5, error=BadSpec),))
    g = generate(spec)
    lam, lam_exact = spectral_radius(g), analytic_lambda1(spec)
    if abs(lam - lam_exact) > 1e-9 * lam_exact:
        raise InvalidGraph(
            f"spectral_radius lambda1={lam} disagrees with the closed form {lam_exact}")
    return sde(g, lambda1=lam).q - 2.0
