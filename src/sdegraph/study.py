"""The paper's four studies as library calls that return data; the ``sde``
command line (:mod:`sdegraph.cli`) prints or writes their results.

:func:`correlation_report` correlates in-memory metric records against
``sde_q`` and :func:`correlate_columns` the columns of a record CSV (as
:func:`sdegraph.io.read_records_columns` reads them),
:func:`ensemble_samples` draws the seeded Erdos-Renyi and Barabasi-Albert
ensembles, :func:`growth_trajectories` follows q along random
star-to-complete link additions, and :func:`asymptotics_rows` compares a
family's solved exponent with its asymptotic growth law.
"""
from __future__ import annotations

import json
from array import array
from collections.abc import Iterable, Mapping
from typing import NamedTuple

import numpy as np

from .errors import BadSpec, ConstantSeries, FilterExhausted, InputError, InvalidGraph
from .families import FAMILIES, FamilySpec, check_seed, family_q, sample
from .graph import Graph, _integer, _too_large, add_link, connected_components
from .io import jsonable
from .metrics import GRAPH_STACK_CAP, METRIC_NAMES, pearson
from .solver import sde
from .spectral import DENSE_LAMBDA1_CAP, _top_eigenvalues


class CorrelationReport(NamedTuple):
    """Pearson correlations of every metric column against sde_q: the rows
    excluded by reason, r by metric, and the metrics excluded with why."""

    corpus: str
    graph_count: int
    excluded: dict[str, int]
    correlations: dict[str, float]
    excluded_metrics: dict[str, str]

    def as_json(self) -> str:
        correlations = {k: jsonable(v) for k, v in self.correlations.items()}
        return json.dumps({**self._asdict(), "correlations": correlations}, indent=2)

    def as_table(self) -> str:
        lines = [f"corpus: {self.corpus}",
                 f"graphs used: {self.graph_count}"]
        for reason, count in sorted(self.excluded.items()):
            lines.append(f"excluded ({reason}): {count}")
        width = max(len(n) for n in METRIC_NAMES)
        lines.append(f"{'metric'.ljust(width)}  r_vs_sde_q")
        for name in METRIC_NAMES:
            if name == "sde_q":
                continue
            if name in self.correlations:
                lines.append(f"{name.ljust(width)}  {self.correlations[name]:+.3f}")
            else:
                reason = self.excluded_metrics.get(name, "n/a")
                lines.append(f"{name.ljust(width)}  excluded ({reason})")
        return "\n".join(lines)


def correlation_report(records: Iterable[Mapping[str, float]], corpus: str) -> CorrelationReport:
    """:func:`correlate_columns` on metric records, any iterable, read once:
    each column is gathered in one pass, and no records give 0 graphs."""
    columns: dict[str, array] = {}
    for rec in records:
        if not columns:  # the first record names the columns
            if "sde_q" not in rec:
                raise InputError("records must contain an sde_q column")
            columns = {name: array("d") for name in rec}
        for name, column in columns.items():
            column.append(rec[name])
    return correlate_columns({name: np.frombuffer(c) for name, c in columns.items()}, corpus)


def correlate_columns(columns: Mapping[str, np.ndarray], corpus: str) -> CorrelationReport:
    """Correlate every column against ``sde_q`` over rows where both are finite;
    constant or under-populated columns are excluded with a reason."""
    columns = dict(columns)
    q = columns.pop("sde_q", np.empty(0))
    usable = np.isfinite(q)
    report = CorrelationReport(corpus, int(usable.sum()), {}, {}, {})
    if report.graph_count < q.size:
        report.excluded["nonfinite_sde_q"] = q.size - report.graph_count
    for name, x in columns.items():
        mask = usable & np.isfinite(x)
        if mask.sum() < 2:
            report.excluded_metrics[name] = "too_few_points"
            continue
        try:
            report.correlations[name] = pearson(x[mask], q[mask])
        except ConstantSeries:
            report.excluded_metrics[name] = "constant_series"
    return report


def ensemble_samples(spec: FamilySpec, seed: int, count: int):
    """Yield ``count`` connected non-regular samples (histogram ``c < n``, the
    rule of ``classify``) of an ``er`` or ``ba`` spec, whose own seed is
    ignored. Sample i draws from the sub-seed ``(seed, i)``; all samples share
    a budget of ``100 * count`` draws; FilterExhausted when it runs out."""
    seed = check_seed(seed)
    budget = 100 * count
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        while True:
            if budget <= 0:
                raise FilterExhausted(
                    "resampling budget exhausted before reaching the target count")
            budget -= 1
            g = sample(spec, rng)
            if not connected_components(g).any() and g.histogram.c < g.n:
                yield g
                break


def growth_trajectories(n: int, trials: int,
                        seed: int) -> list[tuple[int, int, int, float, int]]:
    """q along ``trials`` (an integer >= 1) random orders of adding the
    missing links to the star on ``n`` (an integer >= 4) nodes.

    Each trial contributes the rows (trial, step, links, q, decreased),
    from the star (step 0, q = 2) to the last non-regular graph before the
    complete one; ``decreased`` is 1 where q fell by more than 1e-8 from
    the previous step. The orders are drawn from one generator seeded with
    ``seed``; the star is solved once, for every trial. The size rule on the
    complete graph comes before any allocation. Up to ``DENSE_LAMBDA1_CAP``
    nodes each step's ``sde`` is given lambda1 from :func:`_stacked_lambda1s`.
    """
    seed = check_seed(seed)
    n = _integer(n, "star sizes", 4, error=InputError)
    trials = _integer(trials, "trial counts", 1, error=InputError)
    if why := _too_large(n, n * (n - 1)):
        raise InvalidGraph(why)
    rng = np.random.default_rng(seed)
    star = Graph.from_edges(n, [(0, j) for j in range(1, n)])
    missing = np.add(np.triu_indices(n - 1, 1), 1)  # links (i, j), 0 < i < j, in order
    star_q = sde(star).q
    rows = []
    for trial in range(trials):
        g, prev_q = star, star_q
        rows.append((trial, 0, g.num_links(), prev_q, 0))
        links = missing[:, rng.permutation(missing.shape[1])]
        lams = _stacked_lambda1s(n, links) if n <= DENSE_LAMBDA1_CAP else [None] * links.shape[1]
        for step, (i, j, lam) in enumerate(zip(*links.tolist(), lams), 1):
            g = add_link(g, i, j)
            result = sde(g, lambda1=lam)
            if result.is_undefined:
                break  # complete graph reached: regular, trajectory ends
            rows.append((trial, step, g.num_links(), result.q,
                         int(result.q < prev_q - 1e-8)))
            prev_q = result.q
    return rows


def _stacked_lambda1s(n: int, links: np.ndarray):
    """Yield lambda1 of the star on ``n`` nodes plus the first s columns (i < j) of ``links``,
    s = 1, 2, ...: top eigenvalues of stacks of at most ``GRAPH_STACK_CAP`` entries, each
    one ``np.cumsum`` of one-hot additions onto the running upper triangle, plus its transpose."""
    size = max(1, GRAPH_STACK_CAP // (n * n))
    upper = np.zeros((1, n, n))
    upper[0, 0, 1:] = 1.0  # the star
    for lo in range(0, links.shape[1], size):
        i, j = links[:, lo:lo + size]
        adds = np.zeros((i.size, n, n))
        adds[np.arange(i.size), i, j] = 1.0
        adds[0] += upper[-1]
        upper = np.cumsum(adds, axis=0)
        yield from _top_eigenvalues(upper + upper.transpose(0, 2, 1)).tolist()


def asymptotics_rows(family: str,
                     n_list: list[int]) -> list[tuple[int, float, float, float, float]]:
    """(N, q_solver, q_asymptotic, abs_error, rel_error) for each N, with
    q_solver from :func:`family_q` and q_asymptotic from the law of the
    family's row in :data:`sdegraph.families.FAMILIES`."""
    law = FAMILIES[family].law if family in FAMILIES else None
    if law is None:
        raise BadSpec(f"no asymptotic law for family {family!r}")
    rows = []
    for n in n_list:
        q_asym = law(n)
        q_solver = family_q(FamilySpec(family, (n,))).q
        abs_err = abs(q_solver - q_asym)
        rows.append((n, q_solver, q_asym, abs_err, abs_err / abs(q_solver)))
    return rows
