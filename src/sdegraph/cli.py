"""The ``sde`` command line: it only parses arguments, checks them, reads
and writes files and prints. Graph loading, solving and the studies are
library calls (:mod:`sdegraph.study` holds the studies).

Subcommands: compute, batch, correlate, ensemble, nonmonotonic, asymptotics.
Exit codes: 0 success, 2 input error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack

from . import io as gio
from .errors import InputError, NumericalError, SdegraphError
from .families import FAMILIES, analytic_lambda1, generate, parse_family
from .graph import degree_sequence
from .metrics import metric_suite
from .solver import bounds, sde
from .spectral import spectral_radius
from .study import (asymptotics_rows, correlation_report, ensemble_samples,
                    growth_trajectories)

PROGRESS_EVERY = 2000


# ---- compute ----


def cmd_compute(args) -> int:
    sources = [s for s in (args.family, args.graph6, args.edge_list) if s]
    if len(sources) != 1:
        raise InputError("give exactly one of --family / --graph6 / --edge-list")
    lam = None  # a family's closed form, when it has one
    if args.family:
        spec = parse_family(args.family)
        label, g, lam = args.family, generate(spec), analytic_lambda1(spec)
    elif args.graph6:
        label, g = "graph6", gio.parse_graph6(args.graph6)
    else:
        label, g = args.edge_list, gio.load_edge_list(args.edge_list, one_based=args.one_based)
    if lam is None:
        lam = spectral_radius(g)
    result = sde(g, verify=args.verify, lambda1=lam)
    ds = degree_sequence(g.degrees())
    b = None
    if result.is_finite:
        try:
            b = bounds(ds, lam)
        except SdegraphError:
            pass  # no closed-form bracket (lambda1 at d_max)
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
        print(json.dumps({k: gio.jsonable(v) for k, v in payload.items()}, indent=2))
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
    print(f"lambda1: {gio.format_value(lam)}")
    print(f"d_max: {gio.format_value(ds.d_max)}  c: {ds.c}")
    if b is not None:
        sharp = gio.format_value(b.sharpened_upper) if b.sharpened_upper is not None else "-"
        print(f"bounds: lower={gio.format_value(b.lower)} "
              f"upper={gio.format_value(b.upper)} sharpened_upper={sharp}")
    return 0


# ---- batch ----


def _batch_one(item: tuple[int, str]):
    index, line = item
    try:
        g = gio.parse_graph6(line)
        record = metric_suite(g)
        return index, record, None
    except SdegraphError as exc:
        return index, None, f"{type(exc).__name__}: {exc}"


def cmd_batch(args) -> int:
    work = gio.graph6_lines(args.input)
    with ExitStack() as stack:
        if args.jobs > 1:
            # imported here: the pool costs every other command ~15 ms of start-up
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
            outcomes = pool.map(_batch_one, work, chunksize=64)
        else:
            outcomes = map(_batch_one, work)
        records, skipped = [], 0
        for k, (index, record, err) in enumerate(outcomes, 1):
            if record is None:
                skipped += 1
                print(f"skipping line {index}: {err}", file=sys.stderr)
            else:
                records.append(record)
            if k % PROGRESS_EVERY == 0:
                print(f"processed {k}/{len(work)} graphs", file=sys.stderr)
    regular = sum(1 for rec in records if math.isnan(rec["sde_q"]))
    print(f"batch: {len(records)} rows written, {skipped} skipped, "
          f"{regular} regular (sde_q = nan)", file=sys.stderr)
    gio.write_records_csv(records, args.out)
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


def cmd_ensemble(args) -> int:
    spec = parse_family(args.family)
    if spec.kind in FAMILIES:
        raise InputError("ensemble supports er:N:p and ba:N:m family specs")
    if spec.args[2] is not None:
        raise InputError("give the master seed via --seed, not inside the family spec")
    if args.count < 2:
        raise InputError("ensemble needs count >= 2")
    records = []
    for k, g in enumerate(ensemble_samples(spec, args.seed, args.count), 1):
        records.append(metric_suite(g))
        if k % 200 == 0:
            print(f"ensemble: {k}/{args.count} samples", file=sys.stderr)
    if args.out:
        gio.write_records_csv(records, args.out)
    corpus = f"{args.family} x{args.count} seed={args.seed}"
    report = correlation_report(records, corpus=corpus)
    print(report.as_json() if args.json else report.as_table())
    return 0


# ---- nonmonotonic ----


def cmd_nonmonotonic(args) -> int:
    if args.n < 4:
        raise InputError("nonmonotonic needs n >= 4")
    rows = growth_trajectories(args.n, args.trials, args.seed)
    if args.out:
        gio.write_csv(args.out, ["trial", "step", "num_links", "q", "decreased"],
                      ([trial, step, links, gio.format_value(q), dec]
                       for trial, step, links, q, dec in rows))
    with_decrease = {trial for trial, _, _, _, dec in rows if dec}
    print(f"trials: {args.trials}  with at least one strictly decreasing q step: "
          f"{len(with_decrease)}")
    print("every trajectory starts at the star (q = 2) and ends at the last "
          "non-regular graph before the complete one")
    return 0


# ---- asymptotics ----


def cmd_asymptotics(args) -> int:
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad --n-list: {exc}") from exc
    if not n_list:
        raise InputError("empty --n-list")
    rows = asymptotics_rows(args.family, n_list)
    gio.write_csv(args.out, ["family", "n", "q_solver", "q_asymptotic",
                             "abs_error", "rel_error"],
                  ([args.family, n, *map(gio.format_value, values)]
                   for n, *values in rows))
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
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("batch", help="metric CSV for a graph6 file")
    p.add_argument("input", help="graph6 file, one graph per line")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
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
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("nonmonotonic",
                       help="star-to-complete link additions, q trajectory")
    p.add_argument("--n", type=int, default=11, help="star size")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_nonmonotonic)

    p = sub.add_parser("asymptotics", help="solver vs asymptotic formula")
    p.add_argument("--family", required=True,
                   choices=[kind for kind, family in FAMILIES.items() if family.law])
    p.add_argument("--n-list", required=True, help="comma-separated N values")
    p.add_argument("--out", help="comparison CSV path (default stdout)")
    p.set_defaults(func=cmd_asymptotics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SdegraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
