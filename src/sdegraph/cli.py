"""Command-line front end: single-graph queries, graph6 batch processing,
correlation reports, seeded ensembles, and the link-addition experiment.

Subcommands: compute, batch, correlate, ensemble, nonmonotonic, asymptotics.
Exit codes: 0 success, 2 input error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io as gio
from .errors import (ConstantSeries, InputError, FilterExhausted, NumericalError,
                     SdegraphError)
from .families import (FamilySpec, analytic_lambda1, ba_graph, er_graph,
                       family_q, fork_q_constant, generate, lollipop_q_asymptotic,
                       parse_family, path_q_asymptotic)
from .graph import Graph, add_link, connected_components, degree_sequence
from .metrics import METRIC_NAMES, metric_suite, pearson
from .solver import bounds, sde
from .spectral import spectral_radius

PROGRESS_EVERY = 2000


@dataclass
class CorrelationReport:
    """Pearson correlations of every metric column against sde_q."""

    corpus: str
    graph_count: int
    excluded: dict[str, int] = field(default_factory=dict)
    correlations: dict[str, float] = field(default_factory=dict)
    excluded_metrics: dict[str, str] = field(default_factory=dict)

    def as_json(self) -> str:
        payload = {
            "corpus": self.corpus,
            "graph_count": self.graph_count,
            "excluded": self.excluded,
            "correlations": {k: _jsonable(v) for k, v in self.correlations.items()},
            "excluded_metrics": self.excluded_metrics,
        }
        return json.dumps(payload, indent=2)

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


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return gio.format_value(v)
    return v


def correlation_report(records: list[dict[str, float]], corpus: str) -> CorrelationReport:
    """Correlate every metric column against sde_q over rows where both are
    finite; constant or under-populated columns are excluded with a reason."""
    if not records or "sde_q" not in records[0]:
        raise InputError("records must contain an sde_q column")
    q = np.array([rec["sde_q"] for rec in records], dtype=float)
    usable = np.isfinite(q)
    report = CorrelationReport(corpus=corpus, graph_count=int(usable.sum()))
    dropped = len(records) - int(usable.sum())
    if dropped:
        report.excluded["nonfinite_sde_q"] = dropped
    for name in records[0]:
        if name == "sde_q":
            continue
        x = np.array([rec[name] for rec in records], dtype=float)
        mask = usable & np.isfinite(x)
        if mask.sum() < 2:
            report.excluded_metrics[name] = "too_few_points"
            continue
        try:
            report.correlations[name] = pearson(x[mask], q[mask])
        except ConstantSeries:
            report.excluded_metrics[name] = "constant_series"
    return report


# ---- compute ----


def _load_single_graph(args) -> tuple[str, Graph]:
    sources = [s for s in (args.family, args.graph6, args.edge_list) if s]
    if len(sources) != 1:
        raise InputError("give exactly one of --family / --graph6 / --edge-list")
    if args.family:
        return args.family, generate(parse_family(args.family))
    if args.graph6:
        return "graph6", gio.parse_graph6(args.graph6)
    return args.edge_list, gio.load_edge_list(args.edge_list, one_based=args.one_based)


def cmd_compute(args) -> int:
    label, g = _load_single_graph(args)
    lam = analytic_lambda1(parse_family(args.family)) if args.family else None
    if lam is None:
        lam = spectral_radius(g)
    result = sde(g, tol_q=args.tol, verify=args.verify, lambda1=lam)
    ds = degree_sequence(g.degrees())
    b = None
    if result.is_finite:
        try:
            b = bounds(ds, lam)
        except SdegraphError:
            b = None
    payload = {
        "input": label,
        "nodes": g.n,
        "links": g.num_links(),
        "q": result.q,
        "method": result.method,
        "iterations": result.iterations,
        "residual": result.residual,
        "lambda1": lam,
        "d_max": ds.d_max,
        "c": ds.c,
        "bounds_lower": b.lower if b else None,
        "bounds_upper": b.upper if b else None,
        "bounds_sharpened_upper": b.sharpened_upper if b else None,
    }
    if args.json:
        print(json.dumps({k: _jsonable(v) for k, v in payload.items()}, indent=2))
        return 0
    if result.is_undefined:
        q_text = "undefined (regular)"
    elif result.is_infinite:
        q_text = "inf"
    else:
        q_text = gio.format_value(result.q)
    print(f"input: {label} ({g.n} nodes, {g.num_links()} links)")
    print(f"q: {q_text}")
    print(f"method: {result.method} (iterations={result.iterations}, "
          f"residual={gio.format_value(result.residual)})")
    if lam is not None:
        print(f"lambda1: {gio.format_value(lam)}")
    print(f"d_max: {gio.format_value(ds.d_max)}  c: {ds.c}")
    if b is not None:
        sharp = gio.format_value(b.sharpened_upper) if b.sharpened_upper is not None else "-"
        print(f"bounds: lower={gio.format_value(b.lower)} "
              f"upper={gio.format_value(b.upper)} sharpened_upper={sharp}")
    return 0


# ---- batch ----


def _batch_one(item: tuple[int, str, float]):
    index, line, tol_q = item
    try:
        g = gio.parse_graph6(line)
        record = metric_suite(g, tol_q=tol_q)
        return index, record, None
    except SdegraphError as exc:
        return index, None, f"{type(exc).__name__}: {exc}"


def cmd_batch(args) -> int:
    with open(args.input, "r", encoding="ascii") as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    work = [(i, ln, args.tol) for i, ln in lines]
    results = []
    if args.jobs > 1:
        # imported here: the pool costs every other command ~15 ms of start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for k, out in enumerate(pool.map(_batch_one, work, chunksize=64), 1):
                results.append(out)
                if k % PROGRESS_EVERY == 0:
                    print(f"processed {k}/{len(work)} graphs", file=sys.stderr)
    else:
        for k, item in enumerate(work, 1):
            results.append(_batch_one(item))
            if k % PROGRESS_EVERY == 0:
                print(f"processed {k}/{len(work)} graphs", file=sys.stderr)
    records = []
    skipped = 0
    for index, record, err in results:
        if record is None:
            skipped += 1
            print(f"skipping line {index}: {err}", file=sys.stderr)
        else:
            records.append(record)
    regular = sum(1 for rec in records if math.isnan(rec["sde_q"]))
    print(f"batch: {len(records)} rows written, {skipped} skipped, "
          f"{regular} regular (sde_q = nan)", file=sys.stderr)
    if args.out:
        gio.write_records_csv(records, args.out)
    else:
        gio.write_records_csv(records, sys.stdout)
    return 0


# ---- correlate ----


def cmd_correlate(args) -> int:
    header, records = gio.read_records_csv(args.input)
    if "sde_q" not in header:
        raise InputError("input CSV has no sde_q column")
    if len([r for r in records if math.isfinite(r["sde_q"])]) < 2:
        raise InputError("need at least 2 rows with finite sde_q")
    report = correlation_report(records, corpus=args.input)
    print(report.as_json() if args.json else report.as_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.as_json() + "\n")
    return 0


# ---- ensemble ----


def _ensemble_sample(spec: FamilySpec, master_seed: int, index: int,
                     budget: list[int]) -> Graph:
    """One connected non-regular sample; sub-seed = (master_seed, index)."""
    rng = np.random.default_rng([master_seed, index])
    while True:
        if budget[0] <= 0:
            raise FilterExhausted(
                "resampling budget exhausted before reaching the target count")
        budget[0] -= 1
        if spec.kind == "er":
            g = er_graph(spec.args[0], spec.args[1], rng)
        else:
            g = ba_graph(spec.args[0], spec.args[1], rng)
        if len(connected_components(g)) != 1:
            continue
        degs = g.degrees()
        if degs.min() != degs.max():
            return g


def cmd_ensemble(args) -> int:
    spec = parse_family(args.family)
    if spec.kind not in ("er", "ba"):
        raise InputError("ensemble supports er:N:p and ba:N:m family specs")
    if spec.args[2] is not None:
        raise InputError("give the master seed via --seed, not inside the family spec")
    if args.count < 2:
        raise InputError("ensemble needs count >= 2")
    budget = [100 * args.count]
    records = []
    for index in range(args.count):
        g = _ensemble_sample(spec, args.seed, index, budget)
        records.append(metric_suite(g, tol_q=args.tol))
        if (index + 1) % 200 == 0:
            print(f"ensemble: {index + 1}/{args.count} samples", file=sys.stderr)
    if args.out:
        gio.write_records_csv(records, args.out)
    corpus = f"{args.family} x{args.count} seed={args.seed}"
    report = correlation_report(records, corpus=corpus)
    print(report.as_json() if args.json else report.as_table())
    return 0


# ---- nonmonotonic ----


def cmd_nonmonotonic(args) -> int:
    n = args.n
    if n < 4:
        raise InputError("nonmonotonic needs n >= 4")
    rng = np.random.default_rng(args.seed)
    rows = []
    trials_with_decrease = 0
    for trial in range(args.trials):
        g = generate(FamilySpec("star", (n,)))
        q = sde(g, tol_q=args.tol).q
        rows.append((trial, 0, g.num_links(), q, 0))
        missing = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
        order = rng.permutation(len(missing))
        decreased = False
        step = 0
        prev_q = q
        for k in order:
            i, j = missing[int(k)]
            g = add_link(g, i, j)
            step += 1
            result = sde(g, tol_q=args.tol)
            if result.is_undefined:
                break  # complete graph reached: regular, trajectory ends
            dec = int(result.q < prev_q - 1e-8)
            decreased = decreased or bool(dec)
            rows.append((trial, step, g.num_links(), result.q, dec))
            prev_q = result.q
        trials_with_decrease += int(decreased)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["trial", "step", "num_links", "q", "decreased"])
            for trial, step, links, q, dec in rows:
                writer.writerow([trial, step, links, gio.format_value(q), dec])
    print(f"trials: {args.trials}  with at least one strictly decreasing q step: "
          f"{trials_with_decrease}")
    print("every trajectory starts at the star (q = 2) and ends at the last "
          "non-regular graph before the complete one")
    return 0


# ---- asymptotics ----


def cmd_asymptotics(args) -> int:
    family = args.family
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad --n-list: {exc}") from exc
    if not n_list:
        raise InputError("empty --n-list")
    rows = []
    for n in n_list:
        spec = FamilySpec(family, (n,))
        if family == "path":
            q_asym = path_q_asymptotic(n)
        elif family == "wheel":
            q_asym = 2.0  # the proven large-N limit
        elif family == "fork":
            q_asym = fork_q_constant()
        elif family == "lollipop":
            q_asym = lollipop_q_asymptotic(n)
        else:
            raise InputError("asymptotics supports path, wheel, fork, lollipop")
        q_solver = family_q(spec, tol_q=args.tol).q
        abs_err = abs(q_solver - q_asym)
        rows.append((n, q_solver, q_asym, abs_err, abs_err / abs(q_solver)))
    out = args.out
    fh = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["family", "n", "q_solver", "q_asymptotic",
                         "abs_error", "rel_error"])
        for n, qs, qa, ae, re in rows:
            writer.writerow([family, n, gio.format_value(qs), gio.format_value(qa),
                             gio.format_value(ae), gio.format_value(re)])
    finally:
        if out:
            fh.close()
    return 0


# ---- argument parsing ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sde",
        description="Spectral degree exponent toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="solve one graph")
    p.add_argument("--family", help="family spec, e.g. fork:9 or er:100:0.1:42")
    p.add_argument("--graph6", help="literal graph6 string")
    p.add_argument("--edge-list", help="weighted edge list file")
    p.add_argument("--one-based", action="store_true",
                   help="edge list node ids start at 1")
    p.add_argument("--json", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="cross-check Newton against bisection")
    p.add_argument("--tol", type=float, default=1e-9, help="q tolerance")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("batch", help="metric CSV for a graph6 file")
    p.add_argument("input", help="graph6 file, one graph per line")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("correlate", help="correlate metrics against sde_q")
    p.add_argument("input", help="CSV produced by the batch command")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("ensemble", help="seeded random-graph ensemble study")
    p.add_argument("--family", required=True, help="er:N:p or ba:N:m")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("nonmonotonic",
                       help="star-to-complete link additions, q trajectory")
    p.add_argument("--n", type=int, default=11, help="star size")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_nonmonotonic)

    p = sub.add_parser("asymptotics", help="solver vs asymptotic formula")
    p.add_argument("--family", required=True,
                   choices=["path", "wheel", "fork", "lollipop"])
    p.add_argument("--n-list", required=True, help="comma-separated N values")
    p.add_argument("--out", help="comparison CSV path (default stdout)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_asymptotics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SdegraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
