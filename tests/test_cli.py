import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdegraph
from conftest import FIXTURE_N7, FIXTURE_N8
from sdegraph import (family_q, fork_q_constant, generate, metric_suite, parse_graph6,
                      path_q_exact, sde)
from sdegraph import study
from sdegraph.cli import main
from sdegraph.errors import BadSpec, InputError
from sdegraph.families import FAMILIES, FAMILY_KINDS
from sdegraph.io import encode_graph6, format_value, read_records_csv
from sdegraph.metrics import GRAPH_STACK_CAP, METRIC_NAMES, pearson
from sdegraph.study import asymptotics_rows, correlation_report, growth_trajectories

from conftest import k4_plus_p3


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_fork(capsys):
    code, out, _ = run(capsys, "compute", "--family", "fork:9")
    assert code == 0
    # root of 3*2^q = 2 + 3^q (mpmath: 2.3686402797905...)
    q_line = next(line for line in out.splitlines() if line.startswith("q: "))
    assert abs(float(q_line[3:]) - 2.36864027979053) <= 1e-9
    assert "bounds:" in out
    assert "lambda1: 2" in out


@pytest.mark.parametrize("source, q", [
    (("--family", "kbip:2:3"), 2.0),  # classified biregular
    (("--family", "fork:9"), fork_q_constant()),  # Newton
    (("--family", "complete:5"), "nan"),
    ("k4+p3", "inf"),
], ids=["biregular", "newton", "regular", "clique_component"])
def test_compute_json_bounds_fields(source, q, tmp_path, capsys):
    # every finite q comes with the closed-form bracket around it
    if source == "k4+p3":
        path = tmp_path / "k4p3.txt"
        path.write_text("".join(f"{i} {j}\n" for i, j in k4_plus_p3().links()))
        source = ("--edge-list", str(path))
    code, out, err = run(capsys, "compute", *source, "--json")
    assert code == 0, err
    payload = json.loads(out)
    fields = [payload[f"bounds_{name}"] for name in ("lower", "upper", "sharpened_upper")]
    if isinstance(q, str):
        assert payload["q"] == q and fields == [None, None, None]
    else:
        assert abs(payload["q"] - q) <= 1e-9
        lower, upper, sharpened = fields
        assert lower <= payload["q"] <= min(upper, sharpened)


def test_compute_regular(capsys):
    code, out, _ = run(capsys, "compute", "--family", "complete:5")
    assert code == 0
    assert "undefined (regular)" in out


def test_compute_edge_list_inf(tmp_path, capsys):
    path = tmp_path / "k4p3.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n5 6\n")
    code, out, _ = run(capsys, "compute", "--edge-list", str(path))
    assert code == 0
    assert "q: inf" in out


def test_compute_degree_below_lambda1_rounding(tmp_path, capsys):
    # a weighted P3 beside a unit link: the unit degrees lie below
    # lambda1 * 2**-53, where log1p((d - lambda1) / lambda1) sees -1
    path = tmp_path / "tiny.txt"
    path.write_text("0 1 1e17\n1 2 1e17\n3 4 1\n")
    code, out, err = run(capsys, "compute", "--edge-list", str(path), "--json")
    assert code == 0, err
    # degrees 1e17 (x2), 2e17, 1, 1 and lambda1 = sqrt(2) 1e17: with
    # y = 2**(q/2), (2 + y**2) / 5 = y up to the unit degrees' 1e-17**q
    q = json.loads(out)["q"]
    assert abs(q - 2 * math.log2((5 + math.sqrt(17)) / 2)) <= 1e-9


@pytest.mark.parametrize("spec, lambda1, q, q_tol", [
    ("path:2000", 2 * math.cos(math.pi / 2001), path_q_exact(2000),
     1e-7 * path_q_exact(2000)),
    ("fork:2000", 2.0, fork_q_constant(), 1e-9),
], ids=["path", "fork"])
def test_compute_edge_list_slow_mixing(spec, lambda1, q, q_tol, tmp_path, capsys):
    # tiny spectral gaps (~1/N^2) as generic edge lists: lambda1 must not
    # stall, and q must match the closed forms
    path = tmp_path / "graph.txt"
    path.write_text("".join(f"{i} {j}\n" for i, j in generate(spec).links()))
    code, out, _ = run(capsys, "compute", "--edge-list", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambda1"] - lambda1) <= 1e-12 * lambda1
    assert abs(payload["q"] - q) <= q_tol


def test_compute_large_family_matches_family_q(capsys):
    # 1e5 nodes: generated as CSR and solved by the same pipeline as family_q
    code, out, err = run(capsys, "compute", "--family", "lollipop:100000", "--json")
    assert code == 0, err
    payload = json.loads(out)
    expected = family_q("lollipop:100000")
    assert (payload["nodes"], payload["links"]) == (100005, 100007)
    assert payload["q"] == expected.q and payload["method"] == expected.method


def test_compute_graph6_literal(capsys):
    code, out, _ = run(capsys, "compute", "--graph6", "Bg", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 2.0  # P_3 is biregular
    assert payload["nodes"] == 3


def test_compute_json_inf_spelling(tmp_path, capsys):
    path = tmp_path / "k4p3.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n5 6\n")
    code, out, _ = run(capsys, "compute", "--edge-list", str(path), "--json")
    assert json.loads(out)["q"] == "inf"


def test_compute_input_validation(capsys):
    code, _, err = run(capsys, "compute")
    assert code == 2
    code, _, err = run(capsys, "compute", "--family", "fork:9", "--graph6", "Bw")
    assert code == 2
    code, _, err = run(capsys, "compute", "--graph6", "not graph6!!")
    assert code == 2
    code, _, err = run(capsys, "compute", "--family", "nosuch:3")
    assert code == 2


def test_batch_small_file(tmp_path, capsys):
    g6 = tmp_path / "mini.g6"
    lines = ["Bw",                      # K3: regular -> nan sde_q
             "Bg",                      # P3
             "not-a-graph!!",           # malformed: skipped
             encode_graph6(k4_plus_p3())]  # disconnected: skipped
    g6.write_text("\n".join(lines) + "\n")
    out_csv = tmp_path / "mini.csv"
    code, _, err = run(capsys, "batch", str(g6), "--out", str(out_csv))
    assert code == 0
    assert "skipping line 3" in err
    assert "skipping line 4" in err
    assert "2 rows written, 2 skipped, 1 regular" in err
    header, records = read_records_csv(out_csv)
    records = list(records)
    assert list(header) == list(METRIC_NAMES)
    assert len(records) == 2
    assert math.isnan(records[0]["sde_q"])
    assert records[1]["sde_q"] == 2.0


def test_batch_skips_a_non_ascii_line(tmp_path, capsys):
    g6 = tmp_path / "bytes.g6"
    g6.write_bytes(b"Bw\nB\xc3\xa9\n")
    code, _, err = run(capsys, "batch", str(g6), "--out", str(tmp_path / "out.csv"))
    assert code == 0
    assert "skipping line 2: MalformedGraph6" in err
    assert "1 rows written, 1 skipped" in err


# each: files to write (name -> bytes), arguments ("{}" is the folder), and
# a piece of the one-line error message
MALFORMED_INPUTS = {
    "graph6-non-ascii": ({}, ["compute", "--graph6", "Bé"], "graph6 bytes"),
    "edge-list-utf8": ({"e.txt": b"0 1\n1 \xff2\n"},
                       ["compute", "--edge-list", "{}/e.txt"], "line 2: invalid UTF-8"),
    "csv-cell": ({"r.csv": b"a,sde_q\n1,2\n1,x\n"}, ["correlate", "{}/r.csv"],
                 "line 3: could not convert"),
    "csv-utf8": ({"r.csv": b"a,sde_q\n1,2\n\xff,3\n"}, ["correlate", "{}/r.csv"],
                 "line 3: invalid UTF-8"),
    "degree-overflow": ({"e.txt": b"0 1 1e308\n1 2 1e308\n2 3\n"},
                        ["compute", "--edge-list", "{}/e.txt"], "node 1 overflows"),
    "family-seed": ({}, ["compute", "--family", "er:10:0.5:-1"], "seed"),
    "ensemble-seed": ({}, ["ensemble", "--family", "er:10:0.5", "--count", "2",
                           "--seed", "-1"], "seed"),
    "nonmonotonic-seed": ({}, ["nonmonotonic", "--n", "5", "--trials", "1",
                               "--seed", "-1"], "seed"),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_2(case, tmp_path, capsys):
    files, argv, message = MALFORMED_INPUTS[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, _, err = run(capsys, *(a.format(tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_batch_mixed_sizes_keep_input_order(tmp_path, capsys):
    # runs of n = 5, 7 and 8 longer than a chunk of lines (64) and a stack
    # of graphs, a malformed line inside the n = 7 run and a disconnected
    # graph inside the n = 8 run
    n7 = FIXTURE_N7.read_text().split()
    n8 = FIXTURE_N8.read_text().split()
    lines = ([encode_graph6(generate(s)) for s in ("path:5", "star:5", "wheel:5")]
             + n7[:100] + ["not-a-graph!!"] + n7[100:180] + n8[:70]
             + [encode_graph6(k4_plus_p3())] + n8[70:150] + n7[180:190])
    g6 = tmp_path / "mixed.g6"
    g6.write_text("\n".join(lines) + "\n")
    skipped = [104, 255]  # line numbers of the malformed and disconnected lines
    assert GRAPH_STACK_CAP // 64 < 70  # the n = 8 runs span stacks
    outs = {}
    for jobs in (1, 2):
        out_csv = tmp_path / f"jobs{jobs}.csv"
        code, _, err = run(capsys, "batch", str(g6), "--jobs", str(jobs), "--out", str(out_csv))
        assert code == 0
        assert [int(k) for k in re.findall(r"^skipping line (\d+)", err, re.M)] == skipped
        outs[jobs] = out_csv.read_bytes()
    assert outs[1] == outs[2]
    want = [",".join(format_value(metric_suite(parse_graph6(line))[name]) for name in METRIC_NAMES)
            for k, line in enumerate(lines, 1) if k not in skipped]
    assert outs[1].decode().splitlines()[1:] == want


def test_batch_empty_file(tmp_path, capsys):
    g6 = tmp_path / "empty.g6"
    g6.write_text("")
    out_csv = tmp_path / "empty.csv"
    code, _, _ = run(capsys, "batch", str(g6), "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_text().strip() == ",".join(METRIC_NAMES)


def test_batch_deterministic(tmp_path, capsys):
    g6 = tmp_path / "mini.g6"
    g6.write_text("Bw\nBg\nB?\n")  # B? is edgeless: regular (degree 0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "batch", str(g6), "--out", str(a))[0] == 0
    assert run(capsys, "batch", str(g6), "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_batch_stdout_and_jobs(tmp_path, capsys):
    g6 = tmp_path / "mini.g6"
    g6.write_text("Bg\nBw\n")
    code, out, _ = run(capsys, "batch", str(g6))
    assert code == 0
    assert out.splitlines()[0] == ",".join(METRIC_NAMES)
    code2, out2, _ = run(capsys, "batch", str(g6), "--jobs", "2")
    assert code2 == 0
    assert out2 == out  # parallel output keeps input order


class FakePool:
    """Stands in for ProcessPoolExecutor: records the workers asked for and
    maps in this process, so that no test forks a pool."""

    started: list[int] = []

    def __init__(self, max_workers):
        FakePool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("jobs, lines, cpus, workers", [
    (5000, 150, 64, 3),  # three chunks of lines: three workers
    (5000, 150, 2, 2),   # two CPUs: two workers
    (2, 40, 64, None),   # one chunk: no pool
    (4, 0, 64, None),    # no chunks: no pool
    (1, 150, 64, None),
], ids=["chunks", "cpus", "one-chunk", "empty", "serial"])
def test_batch_jobs_start_at_most_chunks_or_cpus_workers(jobs, lines, cpus, workers,
                                                          tmp_path, capsys, monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "started", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    g6 = tmp_path / "slice.g6"
    g6.write_text("".join(f"{line}\n" for line in FIXTURE_N7.read_text().split()[:lines]))
    outs = {}
    for n_jobs in (1, jobs):
        out_csv = tmp_path / f"jobs{n_jobs}.csv"
        assert run(capsys, "batch", str(g6), "--jobs", str(n_jobs), "--out", str(out_csv))[0] == 0
        outs[n_jobs] = out_csv.read_bytes()
    assert FakePool.started == ([] if workers is None else [workers])
    assert outs[1] == outs[jobs]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_batch_rejects_jobs_below_one(jobs, tmp_path, capsys):
    g6 = tmp_path / "mini.g6"
    g6.write_text("Bg\n")
    code, _, err = run(capsys, "batch", str(g6), "--jobs", jobs)
    assert code == 2
    assert err == "error: --jobs must be at least 1\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_unwritable_out_fails_before_measuring(jobs, tmp_path, capsys, monkeypatch):
    import concurrent.futures
    from sdegraph import io, metrics
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "started", [])
    calls = []
    for module, name in ((io, "parse_graph6"), (metrics, "_kernel_rows"),
                         (metrics, "metric_suite")):
        def counted(*args, _fn=getattr(module, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    g6 = tmp_path / "slice.g6"
    g6.write_text("".join(f"{line}\n" for line in FIXTURE_N7.read_text().split()[:150]))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out_csv = tmp_path / "no-such-folder" / "out.csv"
    code, _, err = run(capsys, "batch", str(g6), "--jobs", jobs, "--out", str(out_csv))
    assert code == 2
    assert err.startswith("error: ") and "no-such-folder" in err
    assert calls == [] and FakePool.started == []
    # the same run to a writable path measures every line
    out_csv = tmp_path / "out.csv"
    assert run(capsys, "batch", str(g6), "--jobs", jobs, "--out", str(out_csv))[0] == 0
    assert len(calls) > 2 * 150 and FakePool.started == ([2] if jobs == "2" else [])


def test_batch_interrupted_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    # rows go to a temporary file beside --out, renamed onto it only once
    # every line is measured: a run stopped part-way (Ctrl-C here) keeps an
    # earlier output whole and leaves no temporary file
    from sdegraph import metrics
    g6 = tmp_path / "slice.g6"
    g6.write_text("".join(f"{line}\n" for line in FIXTURE_N7.read_text().split()[:150]))
    out_csv = tmp_path / "out.csv"
    assert run(capsys, "batch", str(g6), "--out", str(out_csv))[0] == 0
    before = out_csv.read_bytes()
    calls = []

    def interrupted(*args, _fn=metrics.metric_suite, **kwargs):
        calls.append(1)
        if len(calls) == 100:
            raise KeyboardInterrupt
        return _fn(*args, **kwargs)

    monkeypatch.setattr(metrics, "metric_suite", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["batch", str(g6), "--out", str(out_csv)])
    assert len(calls) == 100
    assert out_csv.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "slice.g6"]


def test_cli_import_skips_process_pool():
    # only `batch --jobs` needs the process pool, so importing the CLI
    # (every command's start-up) leaves concurrent.futures unloaded
    src = str(Path(sdegraph.__file__).resolve().parents[1])
    check = ("import sys, sdegraph.cli; "
             "sys.exit('concurrent.futures' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", check],
                           env={**os.environ, "PYTHONPATH": src})
    assert child.returncode == 0


def test_correlate_pipeline(tmp_path, capsys):
    # batch a slice of the exhaustive fixture, then correlate
    lines = FIXTURE_N7.read_text().splitlines()[:40]
    g6 = tmp_path / "slice.g6"
    g6.write_text("\n".join(lines) + "\n")
    csv_path = tmp_path / "slice.csv"
    assert run(capsys, "batch", str(g6), "--out", str(csv_path))[0] == 0
    code, out, _ = run(capsys, "correlate", str(csv_path))
    assert code == 0
    assert "degree_assortativity" in out
    code, out, _ = run(capsys, "correlate", str(csv_path), "--json")
    payload = json.loads(out)
    assert "correlations" in payload
    assert -1.0 <= payload["correlations"]["degree_assortativity"] <= 1.0


def test_correlate_missing_sde_q(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,4\n")
    code, _, err = run(capsys, "correlate", str(bad))
    assert code == 2
    assert "sde_q" in err


def test_correlate_needs_two_finite_rows(tmp_path, capsys):
    for text in ("a,sde_q\n", "a,sde_q\n1,2\n3,nan\n"):
        path = tmp_path / "few.csv"
        path.write_text(text)
        code, _, err = run(capsys, "correlate", str(path))
        assert code == 2
        assert err == "error: need at least 2 rows with finite sde_q\n"


def test_correlation_report_reads_any_iterable_once():
    rng = np.random.default_rng(7)
    q = 2.0 + rng.random(300)
    q[::17], q[5] = np.nan, np.inf
    x = rng.normal(size=300)
    x[::11] = np.nan
    records = [{"sde_q": float(qi), "x": float(xi), "const": 1.0, "y": float(qi * qi)}
               for qi, xi in zip(q, x)]
    report = correlation_report(records, corpus="synthetic")
    assert correlation_report(iter(records), corpus="synthetic") == report
    assert correlation_report((dict(r) for r in records), corpus="synthetic") == report
    # the same bits as the columns built from lists
    usable = np.isfinite(q)
    mask = usable & np.isfinite(x)
    assert report.correlations["x"] == pearson(x[mask], q[mask])
    assert report.correlations["y"] == pearson(q[usable] ** 2, q[usable])
    assert report.excluded == {"nonfinite_sde_q": int((~usable).sum())}
    assert report.excluded_metrics == {"const": "constant_series"}
    empty = correlation_report(iter([]), corpus="none")
    assert (empty.graph_count, empty.correlations, empty.excluded) == (0, {}, {})
    with pytest.raises(InputError, match="sde_q"):
        correlation_report(iter([{"x": 1.0}]), corpus="none")


def test_correlate_constant_column_excluded():
    records = [{"sde_q": 2.0 + i, "const": 1.0, "varies": float(i)}
               for i in range(5)]
    report = correlation_report(records, corpus="synthetic")
    assert report.excluded_metrics["const"] == "constant_series"
    assert abs(report.correlations["varies"] - 1.0) <= 1e-12


def test_ensemble_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out_a, _ = run(capsys, "ensemble", "--family", "er:20:0.3",
                         "--count", "4", "--seed", "11", "--out", str(a))
    assert code == 0
    code, out_b, _ = run(capsys, "ensemble", "--family", "er:20:0.3",
                         "--count", "4", "--seed", "11", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert out_a == out_b


def test_ensemble_validation(capsys):
    assert run(capsys, "ensemble", "--family", "er:20:0.3", "--count", "1")[0] == 2
    assert run(capsys, "ensemble", "--family", "er:20:0.3:5", "--count", "3")[0] == 2
    assert run(capsys, "ensemble", "--family", "path:20", "--count", "3")[0] == 2


def test_nonmonotonic_small(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "nonmonotonic", "--n", "6", "--trials", "3",
                       "--seed", "1", "--out", str(out_csv))
    assert code == 0
    assert "trials: 3" in out
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "trial,step,num_links,q,decreased"
    starts = [r.split(",") for r in rows[1:] if r.split(",")[1] == "0"]
    assert len(starts) == 3
    assert all(abs(float(r[3]) - 2.0) <= 1e-9 for r in starts)
    # the complete graph is excluded: max links recorded is C(6,2) - 1
    assert max(int(r.split(",")[2]) for r in rows[1:]) == 14


def test_growth_trajectories_solve_the_star_once(monkeypatch):
    """One sde call for the shared star, then one per link added (the last
    one reaches the complete graph, which ends the trial without a row)."""
    rows = growth_trajectories(6, 3, 1)
    calls = []

    def counting(g, **kwargs):
        calls.append(g.num_links())
        return sde(g, **kwargs)

    monkeypatch.setattr(study, "sde", counting)
    assert growth_trajectories(6, 3, 1) == rows
    assert len(calls) == len(rows) + 1
    assert calls.count(5) == 1  # the star on 6 nodes
    assert [row for row in rows if row[1] == 0] == [(t, 0, 5, 2.0, 0) for t in range(3)]


def test_asymptotics_fork(tmp_path, capsys):
    out_csv = tmp_path / "fork.csv"
    code, _, _ = run(capsys, "asymptotics", "--family", "fork",
                     "--n-list", "5,20", "--out", str(out_csv))
    assert code == 0
    rows = [r.split(",") for r in out_csv.read_text().strip().splitlines()[1:]]
    assert all(float(r[4]) <= 1e-6 for r in rows)  # solver == constant


def test_asymptotics_path(capsys):
    code, out, _ = run(capsys, "asymptotics", "--family", "path",
                       "--n-list", "50,100")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    rels = [float(r[5]) for r in rows]
    assert rels[0] <= 0.02 and rels[1] <= 0.02
    assert rels[1] < rels[0]


def test_asymptotics_bad_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptotics", "--family", "torus", "--n-list", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_asymptotics_takes_the_families_with_a_law(kind, tmp_path, capsys):
    argv = ["asymptotics", "--family", kind, "--n-list", "6", "--out", str(tmp_path / "a.csv")]
    if kind in FAMILIES and FAMILIES[kind].law is not None:
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    with pytest.raises(BadSpec):
        asymptotics_rows(kind, [6])
