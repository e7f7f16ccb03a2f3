import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdegraph
from conftest import FIXTURE_N7, FIXTURE_N8
from sdegraph import (family_q, fork_q_constant, generate, metric_suite, parse_graph6,
                      path_q_exact, sde, spectral_radius)
from sdegraph import cli, study
from sdegraph.cli import main
from sdegraph.errors import BadSpec, FilterExhausted, InputError, InvalidGraph
from sdegraph.families import FAMILIES, FAMILY_KINDS, FamilySpec
from sdegraph.graph import _too_large
from sdegraph.io import encode_graph6, format_value, read_records_columns
from sdegraph.metrics import GRAPH_STACK_CAP, METRIC_NAMES, pearson
from sdegraph.solver import DEFAULT_TOL_Q
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


def test_compute_one_based_edge_list_gives_the_zero_based_result(tmp_path, capsys):
    links = generate("fork:6").links()
    zero, one = tmp_path / "zero.txt", tmp_path / "one.txt"
    zero.write_text("".join(f"{i} {j}\n" for i, j in links))
    one.write_text("".join(f"{i + 1} {j + 1}\n" for i, j in links))
    code, out0, _ = run(capsys, "compute", "--edge-list", str(zero), "--json")
    assert code == 0
    code, out1, _ = run(capsys, "compute", "--edge-list", str(one), "--json", "--one-based")
    assert code == 0
    payload0, payload1 = json.loads(out0), json.loads(out1)
    assert payload1.pop("input") == str(one) and payload0.pop("input") == str(zero)
    assert payload1 == payload0 and payload0["nodes"] == generate("fork:6").n


def test_correlate_out_holds_the_json_report(tmp_path, capsys):
    g6 = tmp_path / "slice.g6"
    g6.write_text("\n".join(FIXTURE_N7.read_text().splitlines()[:40]) + "\n")
    csv_path, report = tmp_path / "slice.csv", tmp_path / "report.json"
    assert run(capsys, "batch", str(g6), "--out", str(csv_path))[0] == 0
    code, printed, _ = run(capsys, "correlate", str(csv_path), "--json")
    assert code == 0
    code, table, _ = run(capsys, "correlate", str(csv_path), "--out", str(report))
    assert code == 0 and "degree_assortativity" in table
    assert report.read_text() == printed


def test_correlate_out_failing_part_way_leaves_the_old_report(tmp_path, capsys, monkeypatch):
    # a plain open emptied the old report before the JSON existed
    g6 = tmp_path / "slice.g6"
    g6.write_text("\n".join(FIXTURE_N7.read_text().splitlines()[:40]) + "\n")
    csv_path, report = tmp_path / "slice.csv", tmp_path / "report.json"
    assert run(capsys, "batch", str(g6), "--out", str(csv_path))[0] == 0
    report.write_text("old report\n")

    def fails(self):
        raise OSError("no space left on device")

    monkeypatch.setattr(study.CorrelationReport, "as_json", fails)
    code, table, err = run(capsys, "correlate", str(csv_path), "--out", str(report))
    assert code == 2 and "degree_assortativity" in table and "no space left" in err
    assert report.read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


@pytest.mark.parametrize("scale", ["e9", ""])
def test_compute_prints_one_c_at_every_weight_scale(scale, tmp_path, capsys):
    # a C4 with links 1e9, 1e9, 1e9 and 1e9 - 1, and its 1e-9 copy: c read 2 and 4
    path = tmp_path / "c4.txt"
    path.write_text("".join(f"{i} {(i + 1) % 4} {w}{scale}\n"
                            for i, w in enumerate(("1", "1", "1", "0.999999999"))))
    code, out, _ = run(capsys, "compute", "--edge-list", str(path), "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["method"], payload["q"], payload["c"]) == ("classified", "nan", 4)


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
    header, columns = read_records_columns(out_csv)
    assert list(header) == list(METRIC_NAMES)
    assert len(columns["sde_q"]) == 2
    assert math.isnan(columns["sde_q"][0])
    assert columns["sde_q"][1] == 2.0


def test_batch_skips_a_non_ascii_line(tmp_path, capsys):
    g6 = tmp_path / "bytes.g6"
    g6.write_bytes(b"Bw\nB\xc3\xa9\n")
    code, _, err = run(capsys, "batch", str(g6), "--out", str(tmp_path / "out.csv"))
    assert code == 0
    assert "skipping line 2: MalformedGraph6" in err
    assert "1 rows written, 1 skipped" in err


def test_batch_skips_a_graph_past_the_dense_cap(tmp_path, capsys):
    # the stack of one 2049-node graph fails as a whole; the rows around it are written
    g6 = tmp_path / "big.g6"
    g6.write_text("\n".join(["Bg", encode_graph6(generate("star:2049")), "Bg"]) + "\n")
    out_csv = tmp_path / "out.csv"
    code, _, err = run(capsys, "batch", str(g6), "--out", str(out_csv))
    assert code == 0
    assert re.findall(r"^skipping line (\d+): (\w+)", err, re.M) == [("2", "TooLargeForDense")]
    assert "2 rows written, 1 skipped" in err
    assert read_records_columns(out_csv)[1]["sde_q"].tolist() == [2.0, 2.0]


def test_batch_and_ensemble_print_progress(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "PROGRESS_EVERY", 2)
    g6 = tmp_path / "five.g6"
    g6.write_text("Bg\n" * 5)
    code, _, err = run(capsys, "batch", str(g6), "--out", str(tmp_path / "out.csv"))
    assert code == 0
    assert re.findall(r"^processed .*$", err, re.M) == ["processed 2/5 graphs",
                                                        "processed 4/5 graphs"]
    code, _, err = run(capsys, "ensemble", "--family", "er:6:0.6", "--count", "200", "--seed", "1")
    assert code == 0
    assert re.findall(r"^ensemble: .*$", err, re.M) == ["ensemble: 200/200 samples"]


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
    "csv-short-row": ({"r.csv": b"a,sde_q\n1,2\n3\n4,5\n"}, ["correlate", "{}/r.csv"],
                      "line 3: row length 1 != header length 2"),
    "degree-overflow": ({"e.txt": b"0 1 1e308\n1 2 1e308\n2 3\n"},
                        ["compute", "--edge-list", "{}/e.txt"], "node 1 overflows"),
    "family-seed": ({}, ["compute", "--family", "er:10:0.5:-1"], "seed"),
    "ensemble-seed": ({}, ["ensemble", "--family", "er:10:0.5", "--count", "2",
                           "--seed", "-1"], "seed"),
    "nonmonotonic-seed": ({}, ["nonmonotonic", "--n", "5", "--trials", "1",
                               "--seed", "-1"], "seed"),
    # --trials -1 exited 0 and printed "trials: -1"
    "nonmonotonic-trials": ({}, ["nonmonotonic", "--n", "5", "--trials", "-1"],
                            "trial counts must be integers"),
    "nonmonotonic-n-3": ({}, ["nonmonotonic", "--n", "3", "--trials", "1"],
                         "star sizes must be integers"),
    # the size rule, before anything is allocated (each ran out of memory)
    "family-nodes": ({}, ["compute", "--family", "path:1000000000000"], "at most"),
    "family-links": ({}, ["compute", "--family", "complete:200000"], "at most"),
    "edge-list-n-1e12": ({"e.txt": b"n=1000000000000\n"},
                         ["compute", "--edge-list", "{}/e.txt"], "at most"),
    "edge-list-n-1e8": ({"e.txt": b"n=100000000\n0 1\n"},
                        ["compute", "--edge-list", "{}/e.txt"], "at most"),
    "nonmonotonic-n-6000": ({}, ["nonmonotonic", "--n", "6000", "--trials", "1"], "at most"),
    "nonmonotonic-n-1e12": ({}, ["nonmonotonic", "--n", "1000000000000", "--trials", "1"],
                            "at most"),
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
    # the n = 8 runs span stacks: batch stacks at most its chunk of 64 lines
    assert min(64, GRAPH_STACK_CAP // 64) < 70
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


@pytest.mark.parametrize("jobs, lines, affinity, cpus, workers", [
    (5000, 150, range(64), 64, 3),  # three chunks of lines: three workers
    (5000, 150, None, 2, 2),        # two CPUs, no affinity mask: two workers
    (5000, 150, {0}, 64, None),     # one CPU of 64 allowed (taskset -c 0): no pool
    (2, 40, range(64), 64, None),   # one chunk: no pool
    (4, 0, range(64), 64, None),    # no chunks: no pool
    (1, 150, range(64), 64, None),
], ids=["chunks", "cpus", "affinity", "one-chunk", "empty", "serial"])
def test_batch_jobs_start_at_most_chunks_or_cpus_workers(jobs, lines, affinity, cpus, workers,
                                                          tmp_path, capsys, monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "started", [])
    # the affinity mask where the OS keeps one, else the CPU count
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
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


# record CSV cells in many spellings; and cells that only the row read reads
# (an underscore, a non-ASCII digit) or that it refuses (empty, inner space,
# words, hex), drawn once in twenty cells
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: format(x, ".12g")),
    st.sampled_from(("nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0.0", "0", "+2", ".5",
                     "5.", "1e308", "-1e308", "1e400", "5e-324", " 1.5", "2.5 ", "1e-400")))
ODD_CELLS = st.sampled_from(("1_0", "\u0661", "", "1 2", "x", "0x10", "nan(1)", "1,5"))


@st.composite
def record_csvs(draw):
    """Bytes of a record CSV: a header with sde_q among one to four columns
    (a name may repeat), then rows of cells, with blank lines, quoted cells,
    short or long rows, a constant column and CRLF or CR line ends at times;
    and whether every row is well formed for the array read."""
    others = draw(st.lists(st.sampled_from(("a", "b", "c d", "a")), max_size=3))
    header = draw(st.permutations(["sde_q", *others]))
    constant = draw(st.sampled_from([None, *range(len(header))]))
    mostly_nan_q = draw(st.booleans())
    lines, clean = [",".join(header)], True
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        row = []
        for k, name in enumerate(header):
            cell = draw(CELLS)
            if draw(st.integers(0, 19)) == 0:
                cell, clean = draw(ODD_CELLS), False
            if k == constant:
                cell = "1.0"
            elif name == "sde_q" and mostly_nan_q and draw(st.integers(0, 3)):
                cell = "nan"
            if draw(st.integers(0, 29)) == 0:
                cell, clean = f'"{cell}"', False
            row.append(cell)
        if draw(st.integers(0, 29)) == 0:
            row, clean = row[:-1] or ["1", "2"], False
        lines.append(",".join(row))
    clean = clean and len(lines) > 1 and any(lines[1:])
    ending = draw(st.sampled_from(("\n", "\n", "\r\n", "\r")))
    return (ending.join(lines) + draw(st.sampled_from(("", ending)))).encode(), clean


def _correlate(path, *flags):
    """Exit code, stdout and stderr of ``sde correlate``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["correlate", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def _refused(*args, **kwargs):
    raise ValueError("np.loadtxt refuses the body")


def _takes_array(path):
    """Whether :func:`read_records_columns` returns the columns of its
    ``np.loadtxt`` table, rather than reading the file row by row: whether
    ``np.loadtxt`` returns a table with a column for each header name."""
    tables, real_loadtxt = [], np.loadtxt

    def loadtxt(*args, **kwargs):
        tables.append(real_loadtxt(*args, **kwargs))
        return tables[-1]

    with mock.patch("numpy.loadtxt", loadtxt):
        try:
            header, _ = read_records_columns(path)
        except InputError:
            return False
    return bool(tables) and tables[0].shape[1] == len(header)


def _array_and_row_reads_agree(path, clean):
    """The array read and the row read (``np.loadtxt`` refusing) give the
    same ``correlate`` and ``correlate --json`` output, with no warning; the
    array holds the bits of the rows, and a well-formed file takes the array
    read."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        takes_array = _takes_array(path)
        assert takes_array or not clean
        if takes_array:
            header, columns = read_records_columns(path)
            with mock.patch("numpy.loadtxt", _refused):
                row_header, rows = read_records_columns(path)
            assert row_header == header
            assert list(columns) == list(rows)
            for name, column in columns.items():
                assert column.flags.c_contiguous
                assert column.tobytes() == rows[name].tobytes()
        for flags in ((), ("--json",)):
            by_array = _correlate(path, *flags)
            with mock.patch("numpy.loadtxt", _refused):
                by_rows = _correlate(path, *flags)
            assert by_array == by_rows


@settings(max_examples=300, deadline=None)
@given(record_csvs())
def test_correlate_reads_the_array_as_the_records(case):
    data, clean = case
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "records.csv"
        path.write_bytes(data)
        _array_and_row_reads_agree(path, clean)


@pytest.mark.parametrize("text, takes_array", [
    ("a,sde_q\n1,nan\n2,inf\n-0.0,3\n1e308,4\n5,1e308\n", True),  # non-finite, extreme
    ("a,sde_q\n\n1,2\n\n3,4\n\n5,7\n", True),  # blank lines
    ('a,sde_q\n"1",2\n3,"4"\n5,7\n', False),  # quoted cells
    ("a,b,sde_q\n1,7,2\n2,7,3\n3,7,5\n", True),  # a constant column
    ("a,sde_q\n1,2\n2,nan\n3,inf\n", True),  # fewer than 2 finite q
    ("a,sde_q\n", False), ("a,sde_q\n\n\n", False),  # no rows
    ("a,sde_q\n1,2\n3\n", False),  # a short row
])
def test_correlate_array_read_cases(text, takes_array, tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(text)
    _array_and_row_reads_agree(path, takes_array)
    assert _takes_array(path) == takes_array


def test_correlate_reads_quoted_numbers_as_the_plain_file(tmp_path):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("a,sde_q\n1,2\n2,3.5\n4,5\n")
    quoted.write_text('a,sde_q\n"1",2\n2,"3.5"\n"4","5"\n')
    assert not _takes_array(quoted)
    assert _correlate(quoted)[1] == _correlate(plain)[1].replace(str(plain), str(quoted))


@pytest.mark.parametrize("text", [
    "a,sde_q\n1,2\n2,3.5\n4,5\n",  # the array read
    'a,sde_q\n"1",2\n2,"3.5"\n"4","5"\n',  # the row read, after np.loadtxt refuses
    "a,sde_q\n\n",  # no rows
], ids=["array", "rows", "no-rows"])
def test_correlate_opens_the_csv_once_after_the_utf8_scan(text, tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(text)
    real_open, modes = open, []

    def spy(file, mode="r", *args, **kwargs):
        if str(file) == str(path):
            modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    with mock.patch("builtins.open", spy):
        _correlate(path)
    assert modes == ["rb", "r"]


@pytest.mark.parametrize("text, line", [
    ("a,{long},sde_q\n1,2,3\n4,5,6\n", 1),  # in the header
    ('a,sde_q\n"1",2\n1,{long}\n', 3),  # in a row of the row read
], ids=["header", "row"])
def test_correlate_field_past_the_csv_limit_is_a_parse_error(text, line, tmp_path):
    # the csv module's field size limit escaped as a csv.Error traceback
    path = tmp_path / "long.csv"
    path.write_text(text.format(long="b" * 200_000))
    code, out, err = _correlate(path)
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: line {line}: field larger than field limit \(\d+\)\n", err)


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


def test_ensemble_stops_at_a_draw_past_the_dense_cap(capsys):
    # the draw's record is the error that ends the study: exit 2, one line
    code, out, err = run(capsys, "ensemble", "--family", "er:2049:0.004",
                         "--count", "2", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "error: n=2049 exceeds the dense cap 2048\n"


def test_ensemble_exit_3_when_the_resampling_budget_runs_out(capsys, monkeypatch):
    # er:12:0.0 draws only edgeless graphs, which the filter rejects: the
    # budget of 100 draws per sample runs out, a NumericalError (exit 3)
    code, out, err = run(capsys, "ensemble", "--family", "er:12:0.0", "--count", "2",
                         "--seed", "1")
    assert code == 3 and out == ""
    assert err == "error: resampling budget exhausted before reaching the target count\n"
    draws = []
    sample = study.sample
    monkeypatch.setattr(study, "sample", lambda spec, rng: draws.append(1) or sample(spec, rng))
    with pytest.raises(FilterExhausted, match="resampling budget exhausted"):
        list(study.ensemble_samples(FamilySpec("er", (12, 0.0, None)), 1, 3))
    assert len(draws) == 300


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


def recorded_lambda1s(monkeypatch, n, trials, seed):
    """Rows of ``growth_trajectories(n, trials, seed)`` and the (graph,
    lambda1) pair of every ``sde`` call it makes."""
    calls = []

    def recording(g, **kwargs):
        calls.append((g, kwargs.get("lambda1")))
        return sde(g, **kwargs)

    monkeypatch.setattr(study, "sde", recording)
    return growth_trajectories(n, trials, seed), calls


@pytest.mark.parametrize("n", [5, 11])
def test_growth_steps_take_lambda1_from_the_stack_bit_for_bit(monkeypatch, n):
    rows, calls = recorded_lambda1s(monkeypatch, n, 4, 7)
    star, *steps = calls
    assert star[1] is None and len(steps) == 4 * (n - 1) * (n - 2) // 2
    # every step's lambda1 is the one spectral_radius gives its graph alone
    assert all(lam == spectral_radius(g) for g, lam in steps)


def test_growth_makes_no_spectral_radius_call_up_to_the_dense_cap(monkeypatch):
    from sdegraph import solver, spectral
    calls = []

    def counting(g):
        calls.append(g.num_links())
        return spectral.spectral_radius(g)

    monkeypatch.setattr(solver, "spectral_radius", counting)
    assert 11 <= study.DENSE_LAMBDA1_CAP
    rows = growth_trajectories(11, 3, 1)
    assert len(rows) == 3 * 45 and calls == []  # the star is biregular: q = 2 unsolved


def test_growth_above_the_dense_cap_solves_each_step_alone(monkeypatch):
    from sdegraph import spectral
    want = growth_trajectories(11, 3, 2)
    # every step then takes spectral_radius, and spectral_radius its sparse routes
    monkeypatch.setattr(study, "DENSE_LAMBDA1_CAP", 4)
    monkeypatch.setattr(spectral, "DENSE_LAMBDA1_CAP", 4)
    rows, calls = recorded_lambda1s(monkeypatch, 11, 3, 2)
    assert all(lam is None for _, lam in calls)
    assert [r[:3] + r[4:] for r in rows] == [r[:3] + r[4:] for r in want]
    assert all(abs(r[3] - w[3]) <= DEFAULT_TOL_Q for r, w in zip(rows, want))


@pytest.mark.parametrize("cap", [None, 1, 5 * 121, 33 * 121, 121 * 121])
def test_growth_rows_do_not_depend_on_the_stack_size(monkeypatch, cap):
    # a trial at n = 11 has 44 steps (and 45 additions): one stack at the
    # default cap, and a stack boundary inside every trial at 33 * 121 entries
    assert GRAPH_STACK_CAP // 121 >= 45
    with monkeypatch.context() as m:  # spectral_radius on each graph alone
        m.setattr(study, "DENSE_LAMBDA1_CAP", 4)
        want = growth_trajectories(11, 3, 3)
    if cap is not None:
        monkeypatch.setattr(study, "GRAPH_STACK_CAP", cap)
    assert growth_trajectories(11, 3, 3) == want


def test_growth_sizes_trials_and_seeds_follow_the_integer_rule():
    # a trial count of -1 gave no rows, and 1.5 raised TypeError in range(),
    # as the seeds NaN and 1.5 did in numpy
    for n, trials, seed in ((3, 1, 0), (4.5, 1, 0), (math.nan, 1, 0), (5, -1, 0), (5, 0, 0),
                            (5, 1.5, 0), (5, math.inf, 0), (5, 1, math.nan), (5, 1, 1.5)):
        with pytest.raises(InputError, match="must be integers"):
            growth_trajectories(n, trials, seed)
    assert growth_trajectories(5.0, np.int64(2), 3.0) == growth_trajectories(5, 2, 3)
    with pytest.raises(BadSpec, match="seeds must be integers"):
        next(study.ensemble_samples(FamilySpec("er", (8, 0.5, None)), 1.5, 2))


def test_nonmonotonic_refuses_a_star_past_the_size_rule(capsys):
    # the star's link list and the n(n - 1)/2 missing links were built before
    # any check: --n 1000000000000 ran out of memory
    assert _too_large(5793, 5793 * 5792) == "" != _too_large(5794, 5794 * 5793)
    with pytest.raises(InvalidGraph, match="at most"):
        growth_trajectories(5794, 1, 0)
    for n in ("6000", "1000000000000", str(10**400)):
        start = time.perf_counter()
        code, _, err = run(capsys, "nonmonotonic", "--n", n, "--trials", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


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
