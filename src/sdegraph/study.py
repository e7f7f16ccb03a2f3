"""The paper's four studies as library calls that return data; the ``sde``
command line (:mod:`sdegraph.cli`) prints or writes their results.

:func:`correlation_report` correlates metric records against ``sde_q``,
:func:`ensemble_samples` draws the seeded Erdos-Renyi and Barabasi-Albert
ensembles, :func:`growth_trajectories` follows q along random
star-to-complete link additions, and :func:`asymptotics_rows` compares a
family's solved exponent with its asymptotic growth law.
"""
from __future__ import annotations

import json
from array import array
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BadSpec, ConstantSeries, FilterExhausted, InputError
from .families import FAMILIES, FamilySpec, check_seed, family_q, sample
from .graph import Graph, add_link, connected_components
from .io import jsonable
from .metrics import METRIC_NAMES, pearson
from .solver import sde


@dataclass
class CorrelationReport:
    """Pearson correlations of every metric column against sde_q."""

    corpus: str
    graph_count: int
    excluded: dict[str, int] = field(default_factory=dict)
    correlations: dict[str, float] = field(default_factory=dict)
    excluded_metrics: dict[str, str] = field(default_factory=dict)

    def as_json(self) -> str:
        correlations = {k: jsonable(v) for k, v in self.correlations.items()}
        return json.dumps({**asdict(self), "correlations": correlations}, indent=2)

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
    """Correlate every metric column against sde_q over rows where both are
    finite; constant or under-populated columns are excluded with a reason.
    ``records`` may be any iterable, read once: each column is gathered in
    one pass, and no records give a report of 0 graphs."""
    columns: dict[str, array] = {}
    for rec in records:
        if not columns:  # the first record names the columns
            if "sde_q" not in rec:
                raise InputError("records must contain an sde_q column")
            columns = {name: array("d") for name in rec}
        for name, column in columns.items():
            column.append(rec[name])
    q = np.frombuffer(columns.pop("sde_q", array("d")))
    usable = np.isfinite(q)
    report = CorrelationReport(corpus=corpus, graph_count=int(usable.sum()))
    if report.graph_count < q.size:
        report.excluded["nonfinite_sde_q"] = q.size - report.graph_count
    for name, column in columns.items():
        x = np.frombuffer(column)
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
    """Yield ``count`` connected non-regular samples of an ``er`` or ``ba``
    spec (its own seed is ignored). Sample i draws from the sub-seed
    ``(seed, i)``; all samples share a budget of ``100 * count`` draws, and
    FilterExhausted is raised when it runs out."""
    check_seed(seed)
    budget = 100 * count
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        while True:
            if budget <= 0:
                raise FilterExhausted(
                    "resampling budget exhausted before reaching the target count")
            budget -= 1
            g = sample(spec, rng)
            degs = g.degrees()
            if not connected_components(g).any() and degs.min() != degs.max():
                yield g
                break


def growth_trajectories(n: int, trials: int,
                        seed: int) -> list[tuple[int, int, int, float, int]]:
    """q along ``trials`` random orders of adding the missing links to the
    star on ``n`` nodes.

    Each trial contributes the rows (trial, step, links, q, decreased),
    from the star (step 0, q = 2) to the last non-regular graph before the
    complete one; ``decreased`` is 1 where q fell by more than 1e-8 from
    the previous step. The orders are drawn from one generator seeded with
    ``seed``; the star is solved once, for every trial.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    star = Graph.from_edges(n, [(0, j) for j in range(1, n)])
    missing = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    star_q = sde(star).q
    rows = []
    for trial in range(trials):
        g, prev_q = star, star_q
        rows.append((trial, 0, g.num_links(), prev_q, 0))
        for step, k in enumerate(rng.permutation(len(missing)), 1):
            i, j = missing[int(k)]
            g = add_link(g, i, j)
            result = sde(g)
            if result.is_undefined:
                break  # complete graph reached: regular, trajectory ends
            rows.append((trial, step, g.num_links(), result.q,
                         int(result.q < prev_q - 1e-8)))
            prev_q = result.q
    return rows


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
