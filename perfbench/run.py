"""sdegraph benchmark: run the ``sde`` CLI on seeded workloads, check every
output against an independent oracle, and print the metrics.

    python3 perfbench/run.py --workload corpus-n8 --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn. Each CLI command runs in a
fresh interpreter through ``sdegraph.cli.main`` (see child.py), so set-up,
CPU time and peak memory are the command's own. Every command runs on one
CPU beside a calibrator (see calib.py), and its times are reported at a
fixed reference CPU speed, so that the shared host's changing speed does
not show as a change of the program. With ``--trace 0`` the
passes repeat until ``--seconds`` would be exceeded and the end-to-end
metrics are printed; with ``--trace 1`` one untraced and one traced pass
run and the per-layer metrics are printed. Outputs are checked after the
timed passes. The last line of standard output is one JSON object; the
exit code is non-zero only on a harness error. Results, with the run
environment, go to ``.perfbench_work/results/``.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed and <= nproc; one thread gave the same wall time as two
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.sparse.csgraph import connected_components  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import shim  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
CALIB = Path(__file__).with_name("calib.py")
WORK = ROOT / ".perfbench_work"
FIXTURE_N8 = ROOT / "tests" / "data" / "graph8c.g6"
RUN_LIMIT_S = 165.0  # every command of a run is killed after this; runs must end by 180 s
SETUP_PROBES = 3
REASONS = ("exit2", "exit3", "skipped_line", "oracle_mismatch", "other")
REF_UNIT_NS = 200_000  # CPU time of one calibration unit at the reference speed
SEGMENT_NS = 1_000_000_000  # a long command's speed is taken second by second
MIN_SAMPLES = 5

E2E_UNITS = {"items_per_s": "1/s", "ok_ratio": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB", "cpu_ms_per_item": "ms"}


class HarnessError(Exception):
    """The benchmark itself cannot run or its self-checks failed."""


# ---- running one CLI command ----


@dataclass
class Invocation:
    args: list[str]
    rc: int | None  # None: killed at the run limit
    t_start: int  # CLOCK_MONOTONIC ns: spawn, ready (None: never ready), exit
    t_ready: int | None
    t_end: int
    cpu_s: float
    maxrss_kb: int
    out: Path
    err: Path
    trace: Path | None
    # at the reference CPU speed, set by Calibrator.calibrate
    ref_wall_s: float = math.nan
    ref_setup_s: float | None = None
    ref_cpu_s: float = math.nan

    @property
    def wall_s(self) -> float:
        return (self.t_end - self.t_start) / 1e9

    @property
    def setup_s(self) -> float | None:
        return None if self.t_ready is None else (self.t_ready - self.t_start) / 1e9


def spawn(args: list[str], out: Path, err: Path, deadline: float,
          trace: Path | None = None) -> Invocation:
    """Run child.py on ``args`` and time it from spawn to ready to exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    r, w = os.pipe()
    try:
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(w), str(trace or ""), *args],
                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, pass_fds=(w,),
                env=env, cwd=ROOT)
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as ready_pipe:
        if select.select([ready_pipe], [], [], max(0.0, deadline - time.perf_counter()))[0]:
            ready = ready_pipe.read(1) == b"r"
        else:
            ready = False
        t_ready = time.monotonic_ns()
    reaped: list = []

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.append((status, usage, time.monotonic_ns()))

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(max(0.0, deadline - time.perf_counter()))
    killed = waiter.is_alive()
    if killed:
        proc.kill()
        waiter.join()
    status, usage, t_end = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(args=args, rc=None if killed else proc.returncode,
                      t_start=t0, t_ready=t_ready if ready else None, t_end=t_end,
                      cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss,
                      out=out, err=err, trace=trace)


class Calibrator:
    """Runs calib.py during the timed commands and converts their times to
    seconds at a reference CPU speed.

    The shared host changes a CPU's speed by up to 1.6x for seconds to
    minutes at a time, independently on each CPU, and CPU time slows with
    it. While the calibrator runs, this process, the calibrator and every
    command it spawns are pinned to one CPU, so the calibrator's unit of
    work, timed in its low-priority slices, samples the speed the command
    gets. A span of t seconds during which the unit takes c ns of CPU time
    counts as t * REF_UNIT_NS / c reference seconds, with c the median over
    each second of the span (over the whole span where a second holds too
    few samples).
    """

    def __init__(self, path: Path):
        self.path = path
        self.affinity = os.sched_getaffinity(0)
        self.cpu = min(self.affinity)
        self.t = self.c = np.zeros(0, dtype=np.int64)

    def __enter__(self) -> "Calibrator":
        os.sched_setaffinity(0, {self.cpu})
        self.proc = subprocess.Popen([sys.executable, str(CALIB), str(self.path)],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        if self.proc.stdout.read(1) != b"r":
            self.stop()
            raise HarnessError("the calibrator did not start")
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        if exc[0] is None:
            samples = np.fromfile(self.path, dtype=np.int64).reshape(-1, 2)
            if len(samples) < MIN_SAMPLES:
                raise HarnessError(f"the calibrator ran only {len(samples)} units")
            self.t, self.c = samples[:, 0], samples[:, 1]

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        os.sched_setaffinity(0, self.affinity)

    def _window(self, a: int, b: int) -> tuple[int, int]:
        i, j = (int(k) for k in np.searchsorted(self.t, [a, b]))
        return i, j

    def ref_seconds(self, a: int, b: int) -> float:
        """Reference seconds of the span [a, b] (CLOCK_MONOTONIC ns)."""
        if b <= a:
            return 0.0
        whole = self._window(a, b)
        if whole[1] - whole[0] < MIN_SAMPLES:  # the samples nearest to the span
            mid = int(np.searchsorted(self.t, (a + b) // 2))
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.t) - MIN_SAMPLES))
            whole = (lo, lo + MIN_SAMPLES)
        total = 0.0
        edges = [*range(a, b, SEGMENT_NS), b]
        for lo, hi in zip(edges[:-1], edges[1:]):
            i, j = self._window(lo, hi)
            if j - i < MIN_SAMPLES:
                i, j = whole
            total += (hi - lo) * REF_UNIT_NS / float(np.median(self.c[i:j]))
        return total / 1e9

    def calibrate(self, inv: Invocation) -> None:
        inv.ref_wall_s = self.ref_seconds(inv.t_start, inv.t_end)
        if inv.t_ready is not None:
            inv.ref_setup_s = self.ref_seconds(inv.t_start, inv.t_ready)
        inv.ref_cpu_s = inv.cpu_s * inv.ref_wall_s / inv.wall_s if inv.wall_s else 0.0

    def summary(self) -> dict:
        us = self.c / 1e3
        return {"units": int(len(us)), "unit_us_ref": REF_UNIT_NS / 1e3,
                "unit_us_p10": float(np.percentile(us, 10)),
                "unit_us_p50": float(np.median(us)), "unit_us_p90": float(np.percentile(us, 90))}


# ---- workloads ----


@dataclass
class Job:
    """One CLI command of a pass: its arguments, the number of items it
    attempts, and the check that counts its failed items by reason."""

    name: str
    args: Callable[[Path], list[str]]
    attempted: int
    check: Callable[[Invocation, Path], Counter]
    exact_calls: dict[str, int] = field(default_factory=dict)  # traced calls it makes
    min_calls: dict[str, int] = field(default_factory=dict)  # lower bounds on them


def exit_failures(inv: Invocation, items: int) -> Counter | None:
    """Every item of a command that did not exit 0 failed, by exit reason."""
    if inv.rc == 0:
        return None
    reason = {2: "exit2", 3: "exit3"}.get(inv.rc, "other")
    return Counter({reason: items})


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a CSV; nothing if it is missing or malformed."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows[0], np.array([[float(v) for v in r] for r in rows[1:] if r]).reshape(-1, len(rows[0]))
    except (OSError, IndexError, ValueError):
        return [], np.zeros((0, 0))


CHECKED_COLUMNS = ("num_links", "max_degree", "min_degree", "lambda1",
                   "degree_assortativity", "sde_q")


def row_checks(table: dict[str, np.ndarray], ref: dict[str, np.ndarray]) -> np.ndarray:
    """Per-row mismatch of the metric columns the oracle recomputes."""
    bad = np.zeros(len(ref["lambda1"]), dtype=bool)
    for col in CHECKED_COLUMNS[:3]:
        bad |= table[col] != ref[col]
    bad |= np.abs(table["lambda1"] - ref["lambda1"]) > 1e-9 * np.maximum(1.0, ref["lambda1"])
    ra, ea = table["degree_assortativity"], ref["degree_assortativity"]
    bad |= np.where(np.isnan(ea), ~np.isnan(ra), ~(np.abs(ra - ea) <= 1e-9))
    bad |= oracle.q_mismatch(table["sde_q"], ref["sde_q"], ref["degrees"], ref["lambda1"])
    return bad


def reference_records(adj: np.ndarray) -> dict[str, np.ndarray]:
    """Oracle values of the checked metric columns for a stack of graphs."""
    degrees = adj.sum(axis=-1).astype(float)
    lam = oracle.lambda1_dense(adj)
    return {"degrees": degrees, "lambda1": lam,
            "num_links": adj.sum(axis=(1, 2)) / 2.0,
            "max_degree": degrees.max(axis=1), "min_degree": degrees.min(axis=1),
            "degree_assortativity": oracle.assortativity(adj),
            "sde_q": oracle.sde_q(degrees, lam)}


def check_record_csv(path: Path, ref: dict, skipped: frozenset = frozenset()) -> Counter:
    """Compare a metric CSV row by row with the oracle. ``skipped`` holds the
    0-based input indices the program reported skipping; if the remaining
    rows cannot be aligned with the inputs, every one counts as a mismatch."""
    keep = np.array([k not in skipped for k in range(len(ref["lambda1"]))], dtype=bool)
    header, rows = read_csv(path)
    failed = Counter({"skipped_line": len(skipped)})
    if len(rows) != keep.sum() or not set(CHECKED_COLUMNS) <= set(header):
        failed["oracle_mismatch"] += int(keep.sum())
        return failed
    table = {name: rows[:, k] for k, name in enumerate(header)}
    kept = {k: v[keep] for k, v in ref.items() if isinstance(v, np.ndarray)}
    failed["oracle_mismatch"] += int(row_checks(table, kept).sum())
    return failed


def printed_assortativity_r(text: str) -> float | None:
    m = re.search(r"^degree_assortativity\s+([+-]\d+\.\d+)\s*$", text, re.M)
    return float(m.group(1)) if m else None


class CorpusN8:
    """The paper's exhaustive corpus, all 11,117 connected graphs on 8 nodes.

    Chosen for per-graph Python overhead at n = 8 across parse, classify,
    metrics, dense spectrum and bisection; lambda1 comes from full_spectrum,
    so spectral_radius is never called. The seed shuffles the line order and
    relabels each graph's nodes; q and every metric are invariant to both.
    """

    name = "corpus-n8"
    target_r, target_tol = 0.749, 0.02
    regular_graphs = 17

    def prepare(self, work: Path, seed: int) -> list[Job]:
        if not FIXTURE_N8.is_file():
            raise HarnessError(f"missing fixture {FIXTURE_N8.relative_to(ROOT)}")
        self.g6 = work / "graph8c.g6"
        self.adj = np.array(inputs.shuffled_corpus(FIXTURE_N8, self.g6, np.random.default_rng(seed)))
        self._ref = None
        csv_path = lambda d: d / "n8.csv"  # noqa: E731
        return [
            Job("batch", lambda d: ["batch", str(self.g6), "--out", str(csv_path(d))],
                attempted=len(self.adj), check=self.check_batch,
                exact_calls={
                    "io.parse_graph6": len(self.adj), "io.write_records_csv": 1,
                    "metrics.metric_suite": len(self.adj), "cli.batch": 1},
                min_calls={"solver.sde": len(self.adj)}),
            Job("correlate", lambda d: ["correlate", str(csv_path(d))],
                attempted=1, check=self.check_correlate,
                exact_calls={"cli.correlate": 1}),
        ]

    def ref(self) -> dict:
        if self._ref is None:
            self._ref = reference_records(self.adj)
            regular = int(np.isnan(self._ref["sde_q"]).sum())
            if regular != self.regular_graphs:
                raise HarnessError(f"oracle finds {regular} regular graphs, expected 17")
            self._ref["r"] = oracle.pearson(self._ref["degree_assortativity"], self._ref["sde_q"])
        return self._ref

    def check_batch(self, inv: Invocation, d: Path) -> Counter:
        failed = exit_failures(inv, len(self.adj))
        if failed is not None:
            return failed
        skipped = frozenset(int(k) - 1 for k in
                            re.findall(r"^skipping line (\d+)", inv.err.read_text(), re.M))
        return check_record_csv(d / "n8.csv", self.ref(), skipped)

    def check_correlate(self, inv: Invocation, d: Path) -> Counter:
        failed = exit_failures(inv, 1)
        if failed is not None:
            return failed
        r = printed_assortativity_r(inv.out.read_text())
        ok = (r is not None and abs(r - self.target_r) <= self.target_tol
              and abs(r - self.ref()["r"]) <= 6e-4)
        return Counter({"oracle_mismatch": int(not ok)})


class GrowthN11:
    """Link-addition trajectories from the 11-node star to the complete graph.

    Chosen for many small sde() calls with no lambda1 supplied: power
    iteration and bisection dominate; metrics and graph6 parsing are never
    touched. One trajectory has 45 rows (the star plus 44 additions; the
    45th addition gives the regular complete graph, which ends it).
    """

    name = "growth-n11"
    n, trials = 11, 20

    def prepare(self, work: Path, seed: int) -> list[Job]:
        self.seed = seed
        self.rows_per_trial = (self.n - 1) * (self.n - 2) // 2
        self._ref = None
        rows = self.trials * self.rows_per_trial
        return [Job("nonmonotonic",
                    lambda d: ["nonmonotonic", "--n", str(self.n), "--trials", str(self.trials),
                               "--seed", str(seed), "--out", str(d / "traj.csv")],
                    attempted=rows, check=self.check,
                    exact_calls={"cli.nonmonotonic": 1},
                    min_calls={"solver.sde": rows, "graph.add_link": rows - self.trials})]

    def ref(self) -> dict:
        """Replays the documented trajectory: one generator seeded with
        --seed draws each trial's order of the missing leaf-leaf links."""
        if self._ref is None:
            n, k = self.n, self.rows_per_trial
            pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
            rng = np.random.default_rng(self.seed)
            adj = np.zeros((self.trials, k, n, n))
            for t in range(self.trials):
                a = np.zeros((n, n))
                a[0, 1:] = a[1:, 0] = 1.0
                order = rng.permutation(len(pairs))
                for step in range(k):
                    if step:
                        i, j = pairs[order[step - 1]]
                        a[i, j] = a[j, i] = 1.0
                    adj[t, step] = a
            adj = adj.reshape(-1, n, n)
            degrees = adj.sum(axis=-1)
            lam = oracle.lambda1_dense(adj)
            self._ref = {"degrees": degrees, "lambda1": lam, "q": oracle.sde_q(degrees, lam),
                         "links": adj.sum(axis=(1, 2)) / 2}
        return self._ref

    def check(self, inv: Invocation, d: Path) -> Counter:
        attempted = self.trials * self.rows_per_trial
        failed = exit_failures(inv, attempted)
        if failed is not None:
            return failed
        header, rows = read_csv(d / "traj.csv")
        if header != ["trial", "step", "num_links", "q", "decreased"] or len(rows) != attempted:
            return Counter({"oracle_mismatch": attempted})
        ref = self.ref()
        trial, step, links, q, dec = rows.T
        prev_q = np.r_[np.nan, q[:-1]]
        expect_dec = np.where(step == 0, 0, (q < prev_q - 1e-8).astype(float))
        bad = ((trial != np.repeat(np.arange(self.trials), self.rows_per_trial))
               | (step != np.tile(np.arange(self.rows_per_trial), self.trials))
               | (links != ref["links"]) | (dec != expect_dec)
               | oracle.q_mismatch(q, ref["q"], ref["degrees"], ref["lambda1"]))
        return Counter({"oracle_mismatch": int(bad.sum())})


class EnsembleN100:
    """Seeded ER(100, 0.1) and BA(100, 3) ensembles with their correlation
    reports.

    Chosen because it runs the corpus-n8 metric and spectrum code at n = 100,
    where O(n^3) numpy kernels dominate instead of per-call overhead, so a
    small-graph batching change that slows larger graphs shows here. It is
    the only workload for families.er_graph/ba_graph and the connectivity
    filter. The acceptance targets hold at 1000 samples; at ``count``
    samples their tolerance widens by sqrt(1000 / count), the growth of the
    correlation's sampling error.
    """

    name = "ensemble-n100"
    count = 200
    families = (("er:100:0.1", 0.856, 0.05), ("ba:100:3", 0.712, 0.07))

    def prepare(self, work: Path, seed: int) -> list[Job]:
        self.seed = seed
        self._ref: dict = {}
        jobs = []
        for family, target, tol in self.families:
            kind = family.split(":")[0]
            jobs.append(Job(
                kind,
                lambda d, family=family, kind=kind: [
                    "ensemble", "--family", family, "--count", str(self.count),
                    "--seed", str(seed), "--out", str(d / f"{kind}.csv")],
                attempted=self.count + 1,
                check=lambda inv, d, family=family, kind=kind, target=target, tol=tol:
                    self.check(inv, d / f"{kind}.csv", family, target, tol),
                exact_calls={"metrics.metric_suite": self.count, "cli.ensemble": 1},
                min_calls={f"families.{kind}_graph": self.count}))
        return jobs

    def ref(self, family: str) -> dict:
        """Regenerates the samples with the program's own generators and the
        documented sub-seed (seed, index), keeping connected non-regular ones."""
        if family not in self._ref:
            from sdegraph.families import ba_graph, er_graph
            kind, n, param = family.split(":")
            make = {"er": lambda rng: er_graph(int(n), float(param), rng),
                    "ba": lambda rng: ba_graph(int(n), int(param), rng)}[kind]
            samples = []
            for index in range(self.count):
                rng = np.random.default_rng([self.seed, index])
                while True:
                    adj = make(rng).weights > 0
                    deg = adj.sum(axis=1)
                    if connected_components(adj, directed=False)[0] == 1 and deg.min() != deg.max():
                        break
                samples.append(adj)
            ref = reference_records(np.array(samples))
            ref["r"] = oracle.pearson(ref["degree_assortativity"], ref["sde_q"])
            self._ref[family] = ref
        return self._ref[family]

    def check(self, inv, path, family, target, tol) -> Counter:
        failed = exit_failures(inv, self.count + 1)
        if failed is not None:
            return failed
        ref = self.ref(family)
        failures = check_record_csv(path, ref)
        r = printed_assortativity_r(inv.out.read_text())
        tol *= math.sqrt(1000 / self.count)
        ok = r is not None and abs(r - target) <= tol and abs(r - ref["r"]) <= 6e-4
        failures["oracle_mismatch"] += int(not ok)
        return failures


class LargeN:
    """Large structured graphs given as edge lists, plus the lollipop growth law.

    Chosen as the only large-n load: edge-list parsing, dense n x n storage
    (the BA file is 87 KB but the process peaks near 470 MB), classification
    on thousands of nodes, slow-mixing power iteration (fork:500) and the
    sparse family_q route (asymptotics). path:2000 fails with exit 3 today;
    it stays in as a failed item. The seed draws the BA graph and the line
    order of every file; node labels are kept (see inputs.write_edge_list).
    """

    name = "large-n"
    lollipop_ns = (1000, 10000, 100000)

    def prepare(self, work: Path, seed: int) -> list[Job]:
        rng = np.random.default_rng(seed)
        graphs = {
            "ba5000": inputs.ba_edges(5000, 2, rng),
            "wheel2000": inputs.wheel_edges(2000),
            "lollipop2000": inputs.lollipop_edges(2000),
            "fork500": inputs.fork_edges(500),
            "path2000": inputs.path_edges(2000),
        }
        # closed forms (lambda1, q); None where ARPACK or the root-finder decides
        self.closed = {"wheel2000": (oracle.wheel_lambda1(2000), None),
                       "fork500": (2.0, oracle.fork_q()),
                       "path2000": (oracle.path_lambda1(2000), oracle.path_q(2000))}
        self.edges, self._ref = {}, {}
        jobs = []
        for label, edges in graphs.items():
            path = work / f"{label}.txt"
            self.edges[label] = inputs.write_edge_list(path, edges, rng)
            jobs.append(Job(label, lambda d, path=path: ["compute", "--edge-list", str(path), "--json"],
                            attempted=1, check=lambda inv, d, label=label: self.check_compute(inv, label),
                            exact_calls={"io.parse_weighted_edge_list": 1, "cli.compute": 1}))
        n_list = ",".join(map(str, self.lollipop_ns))
        jobs.append(Job("asymptotics",
                        lambda d: ["asymptotics", "--family", "lollipop", "--n-list", n_list,
                                   "--out", str(d / "asym.csv")],
                        attempted=len(self.lollipop_ns), check=self.check_asymptotics,
                        exact_calls={"families.family_q": len(self.lollipop_ns),
                                     "cli.asymptotics": 1}))
        return jobs

    def ref(self, label: str) -> dict:
        if label not in self._ref:
            edges = self.edges[label]
            n = int(edges.max()) + 1
            degrees = oracle.degrees_of(n, edges)
            lam, q = self.closed.get(label, (None, None))
            lam = oracle.lambda1_edges(n, edges) if lam is None else lam
            q = float(oracle.sde_q(degrees, lam)[0]) if q is None else q
            self._ref[label] = {"n": n, "links": len(edges), "degrees": degrees,
                                "lambda1": lam, "q": q}
        return self._ref[label]

    def check_compute(self, inv: Invocation, label: str) -> Counter:
        failed = exit_failures(inv, 1)
        if failed is not None:
            return failed
        ref = self.ref(label)
        try:
            out = json.loads(inv.out.read_text())
            q, lam = float(out["q"]), float(out["lambda1"])
            ok = (out["nodes"] == ref["n"] and out["links"] == ref["links"]
                  and abs(lam - ref["lambda1"]) <= 1e-9 * ref["lambda1"]
                  and not oracle.q_mismatch([q], [ref["q"]], ref["degrees"], [ref["lambda1"]])[0])
        except (ValueError, KeyError, TypeError):
            ok = False
        return Counter({"oracle_mismatch": int(not ok)})

    def asymptotic_ref(self) -> dict:
        if "asymptotics" not in self._ref:
            lam = {n: oracle.lambda1_edges(n + 5, inputs.lollipop_edges(n))
                   for n in (*self.lollipop_ns, 10000)}
            rows = {}
            for n in self.lollipop_ns:
                degrees = oracle.degrees_of(n + 5, inputs.lollipop_edges(n))
                rows[n] = (degrees, lam[n], float(oracle.sde_q(degrees, lam[n])[0]),
                           oracle.lollipop_q_asymptotic(n, lam[10000]))
            self._ref["asymptotics"] = rows
        return self._ref["asymptotics"]

    def check_asymptotics(self, inv: Invocation, d: Path) -> Counter:
        rows_expected = len(self.lollipop_ns)
        failed = exit_failures(inv, rows_expected)
        if failed is not None:
            return failed
        ref = self.asymptotic_ref()
        try:
            with open(d / "asym.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            bad = rows_expected - len(rows)
            for row in rows:
                degrees, lam, q, q_asym = ref[int(row["n"])]
                bad += int(bool(oracle.q_mismatch([float(row["q_solver"])], [q], degrees, [lam])[0])
                           or abs(float(row["q_asymptotic"]) - q_asym) > oracle.Q_REL_TOL * q_asym)
        except (OSError, KeyError, ValueError):
            bad = rows_expected
        return Counter({"oracle_mismatch": min(max(bad, 0), rows_expected)})


WORKLOADS = {w.name: w for w in (CorpusN8(), GrowthN11(), EnsembleN100(), LargeN())}


# ---- one run ----


@dataclass
class Pass:
    dir: Path
    invocations: list[Invocation] = field(default_factory=list)


def run_pass(jobs: list[Job], d: Path, deadline: float, traced: bool) -> Pass:
    d.mkdir(parents=True)
    p = Pass(d)
    for job in jobs:
        trace = d / f"{job.name}.trace.json" if traced else None
        p.invocations.append(spawn(job.args(d), d / f"{job.name}.out", d / f"{job.name}.err",
                                   deadline, trace))
    return p


def tally(jobs: list[Job], passes: list[Pass]) -> tuple[int, Counter]:
    attempted, failed = 0, Counter({r: 0 for r in REASONS})
    for p in passes:
        for job, inv in zip(jobs, p.invocations):
            attempted += job.attempted
            failed.update(job.check(inv, p.dir))
    return attempted, failed


def end_to_end(jobs, passes, probes) -> tuple[dict, int, Counter]:
    """Rates are medians over passes; set-up is the median over every
    interpreter started in the run, probes included."""
    attempted, failed = 0, Counter({r: 0 for r in REASONS})
    rates, cpu_per_item = [], []
    for p in passes:
        a, f = tally(jobs, [p])
        attempted += a
        failed.update(f)
        rates.append((a - sum(f.values())) / sum(inv.ref_wall_s for inv in p.invocations))
        cpu_per_item.append(1000.0 * sum(inv.ref_cpu_s for inv in p.invocations) / a)
    invs = [inv for p in passes for inv in p.invocations]
    values = {
        "items_per_s": statistics.median(rates),
        "ok_ratio": 1.0 - sum(failed.values()) / attempted,
        "setup_s": statistics.median(x.ref_setup_s for x in probes + invs
                                     if x.ref_setup_s is not None),
        "peak_rss_mb": max(inv.maxrss_kb for inv in invs) / 1024.0,
        "cpu_ms_per_item": statistics.median(cpu_per_item),
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}, attempted, failed


def per_layer_names() -> dict[str, str]:
    names = {}
    for layer, fns in shim.TRACED.items():
        for fn in fns:
            names[f"{layer}.{fn}.calls"] = "count"
            names[f"{layer}.{fn}.self_s"] = "s"
            names[f"{layer}.{fn}.p50_us"] = "us"
    for command in shim.COMMANDS:
        names[f"cli.{command}.self_s"] = "s"
    names.update({"solver.sde.classified_ratio": "ratio",
                  "solver.solve_bisection.iterations_mean": "count",
                  "spectral.spectral_radius.failed": "count",
                  "trace.overhead_ratio": "ratio"})
    names.update({f"failed.{r}": "count" for r in REASONS})
    return names


def per_layer(jobs: list[Job], plain: Pass, traced: Pass) -> tuple[dict, int, Counter]:
    summary: dict[str, dict] = {}
    durations: dict[str, list] = {}
    for job, inv in zip(jobs, traced.invocations):
        if inv.rc is None:
            continue  # killed at the run limit: counted as failed, its calls are lost
        if inv.trace is None or not inv.trace.exists():
            raise HarnessError(f"{job.name}: no trace written (exit {inv.rc}): "
                               + inv.err.read_text()[-400:])
        for name, s in json.loads(inv.trace.read_text()).items():
            acc = summary.setdefault(name, Counter())
            acc.update({k: s[k] for k in ("calls", "self_ns", "classified", "iterations")})
            acc["failed"] += s["errors"].get("NoConvergence", 0)
        with np.load(str(inv.trace) + ".npz") as npz:
            for name in npz.files:
                durations.setdefault(name, []).append(npz[name])
    check_call_counts(jobs, traced, summary)

    attempted, failed = tally(jobs, [traced])
    units = per_layer_names()
    values = {}
    for name, unit in units.items():
        fn, _, kind = name.rpartition(".")
        acc = summary.get(fn, Counter())
        if kind == "calls":
            values[name] = acc["calls"]
        elif kind == "self_s":
            values[name] = acc["self_ns"] / 1e9
        elif kind == "p50_us":
            d = np.concatenate(durations[fn]) if fn in durations else np.zeros(0)
            values[name] = float(np.median(d)) / 1e3 if d.size else 0.0
    sde_calls = summary.get("solver.sde", Counter())["calls"]
    bis_calls = summary.get("solver.solve_bisection", Counter())["calls"]
    plain_items, _ = tally(jobs, [plain])
    per_item = lambda p, a: sum(i.ref_wall_s for i in p.invocations) / a  # noqa: E731
    values.update({
        "solver.sde.classified_ratio":
            summary["solver.sde"]["classified"] / sde_calls if sde_calls else 0.0,
        "solver.solve_bisection.iterations_mean":
            summary["solver.solve_bisection"]["iterations"] / bis_calls if bis_calls else 0.0,
        "spectral.spectral_radius.failed": summary.get("spectral.spectral_radius", Counter())["failed"],
        "trace.overhead_ratio": per_item(traced, attempted) / per_item(plain, plain_items) - 1.0,
    })
    values.update({f"failed.{r}": failed[r] for r in REASONS})
    return {k: (values[k], units[k]) for k in units}, attempted, failed


def check_call_counts(jobs: list[Job], traced: Pass, summary: dict) -> None:
    """Wrapper counts must match the counts the outputs imply, or the trace
    missed calls. Exact counts are summed over the pass and hold when every
    command exited 0; with a failed command they become lower bounds over
    the commands that succeeded."""
    exact, least = Counter(), Counter()
    all_ok = all(inv.rc == 0 for inv in traced.invocations)
    for job, inv in zip(jobs, traced.invocations):
        if inv.rc == 0:
            exact.update(job.exact_calls)
            least.update(job.min_calls)
    calls = lambda name: summary.get(name, Counter())["calls"]  # noqa: E731
    for name, want in exact.items():
        if calls(name) != want if all_ok else calls(name) < want:
            raise HarnessError(f"{name}: traced {calls(name)} calls, expected {want}")
    for name, want in least.items():
        if calls(name) < want:
            raise HarnessError(f"{name}: traced {calls(name)} calls, expected >= {want}")


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
            "commit": commit, "machine": platform.machine()}


def setup_probes(d: Path, deadline: float) -> list[Invocation]:
    """Start the CLI with no command, only to time its set-up."""
    probes = [spawn([], d / "out", d / "err", deadline) for _ in range(SETUP_PROBES)]
    if any(p.rc != 0 or p.setup_s is None for p in probes):
        raise HarnessError("sdegraph.cli cannot be imported: " + (d / "err").read_text()[-500:])
    return probes


def run_workload(wl, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = wl.prepare(work, seed)
    probe_dir = work / "probe"
    probe_dir.mkdir()
    with Calibrator(work / "calib.bin") as cal:
        probes = setup_probes(probe_dir, deadline)
        if trace:
            passes = [run_pass(jobs, work / "pass0", deadline, traced=False),
                      run_pass(jobs, work / "pass1", deadline, traced=True)]
        else:
            passes = []
            t0 = time.perf_counter()
            while True:
                passes.append(run_pass(jobs, work / f"pass{len(passes)}", deadline, traced=False))
                elapsed = time.perf_counter() - t0
                if elapsed + elapsed / len(passes) > seconds:
                    break
            probes += setup_probes(probe_dir, deadline)  # set-up sampled on both sides of the passes
    for inv in probes + [inv for p in passes for inv in p.invocations]:
        cal.calibrate(inv)
    if trace:
        metrics, attempted, failed = per_layer(jobs, *passes)
    else:
        metrics, attempted, failed = end_to_end(jobs, passes, probes)
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "env": env, "calibration": cal.summary(),
        "correct": failed["oracle_mismatch"] == 0,
        "attempted": attempted, "failed": sum(failed.values()),
        "failed_by_reason": dict(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "commands": [{"pass": k, "args": inv.args, "rc": inv.rc, "wall_s": inv.wall_s,
                      "setup_s": inv.setup_s, "cpu_s": inv.cpu_s, "ref_wall_s": inv.ref_wall_s,
                      "ref_setup_s": inv.ref_setup_s, "ref_cpu_s": inv.ref_cpu_s,
                      "maxrss_kb": inv.maxrss_kb}
                     for k, p in enumerate(passes) for inv in p.invocations],
        "run_s": time.perf_counter() - started,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    env = result["env"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} run={result['run_s']:.1f}s")
    print("   env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("   calibration: " + " ".join(f"{k}={v:.4g}" for k, v in result["calibration"].items()))
    print(f"   attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed'] / result['attempted']:.6g} ratio "
          + " ".join(f"{r}={n}" for r, n in result["failed_by_reason"].items()))
    for name, m in result["metrics"].items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "sdegraph" / "cli.py").is_file():
            raise HarnessError(f"no sdegraph sources under {SRC}")
        sys.path.insert(0, str(SRC))  # the ensemble oracle regenerates samples with sdegraph.families
        env = environment()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), env)
                   for n in names]
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
