"""Graph serialization: graph6 codec, weighted edge lists, metric CSV files.

The graph6 codec is bit-exact against the published format (printable
bytes 63..126, big-endian 6-bit groups, upper triangle in column-major
order). Only plain graph6 is supported — no sparse6/digraph6.
"""
from __future__ import annotations

import csv
import math
import sys
from contextlib import nullcontext
from io import StringIO
from itertools import chain

import numpy as np

from .errors import (DuplicateLink, MalformedGraph6, NegativeWeight, ParseError,
                     SelfLoop, WeightedUnsupported)
from .graph import Graph
from .metrics import METRIC_NAMES

GRAPH6_HEADER = ">>graph6<<"
_G6_MAX_N = 258047  # largest node count of the four-byte size form


def _decode_size(data: bytes) -> tuple[int, int]:
    """Node count and the number of size bytes consumed."""
    if not data:
        raise MalformedGraph6("empty graph6 string")
    b0 = data[0]
    if b0 == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            raise MalformedGraph6("node counts above 258047 are not supported")
        if len(data) < 4:
            raise MalformedGraph6("truncated size prefix")
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        if n <= 62:
            raise MalformedGraph6("non-canonical size prefix")
        return n, 4
    return b0 - 63, 1


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into an unweighted :class:`Graph`.

    A leading ``>>graph6<<`` header is tolerated. Raises MalformedGraph6 on
    characters outside 63..126 (non-ASCII ones included), an invalid size
    prefix, or a bit stream whose length does not match the node count.
    """
    s = line.strip().removeprefix(GRAPH6_HEADER)
    data = s.encode("ascii", errors="ignore")  # drops non-ASCII characters
    if len(data) != len(s) or any(b < 63 or b > 126 for b in data):
        raise MalformedGraph6("graph6 bytes must be in 63..126")
    n, off = _decode_size(data)
    if n < 1:
        raise MalformedGraph6("graphs need at least one node")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = np.frombuffer(data, dtype=np.uint8, offset=off)
    if len(body) != need:
        raise MalformedGraph6(
            f"expected {need} adjacency bytes for n={n}, got {len(body)}")
    # six big-endian bits per byte; bit k is the pair (i, j), i < j, of the
    # upper triangle in column-major order: k = j (j - 1) / 2 + i
    bits = np.unpackbits(body - np.uint8(63)).reshape(-1, 8)[:, 2:].ravel()
    k = np.flatnonzero(bits[:nbits])
    column = np.arange(n)
    first = column * (column - 1) // 2  # the first bit of each column
    j = np.searchsorted(first, k, side="right") - 1
    return Graph._from_links(n, k - first[j], j)


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 string for an unweighted graph; round-trips with
    :func:`parse_graph6`."""
    if not g.is_unweighted():
        raise WeightedUnsupported("graph6 encodes unweighted graphs only")
    n = g.n
    if n > _G6_MAX_N:
        raise MalformedGraph6(f"n={n} exceeds the supported graph6 range")
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    upper = g.indices > g._rows
    bits = np.zeros((n * (n - 1) // 2 + 5) // 6 * 6, dtype=np.uint8)
    j = g.indices[upper]
    bits[j * (j - 1) // 2 + g._rows[upper]] = 1
    out += (bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1)) + 63).tolist()
    return bytes(out).decode("ascii")


def graph6_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line of a graph6 file. A byte
    outside ASCII decodes to a lone surrogate, which :func:`parse_graph6`
    rejects for that line alone."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]


def read_graph6_file(path) -> list[Graph]:
    """All graphs from a graph6 file, one per line; a malformed line
    (non-ASCII bytes included) raises ParseError with its line number."""
    graphs = []
    for lineno, line in graph6_lines(path):
        try:
            graphs.append(parse_graph6(line))
        except MalformedGraph6 as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return graphs


def _read_utf8(path) -> str:
    """The text of a UTF-8 file; invalid UTF-8 raises ParseError with its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 ({exc.reason})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


# weighted edge lists


def parse_weighted_edge_list(text: str, one_based: bool = False) -> Graph:
    """Parse "u v [w]" lines into a weighted graph.

    Node ids are 0-based (``one_based`` shifts them down by one). Blank
    lines and '#' comments are skipped; a leading ``n=<int>`` directive
    fixes the node count, otherwise n = max id + 1. Duplicate links,
    self-loops and non-positive weights are errors.
    """
    n_directive = None
    edges: dict[tuple[int, int], float] = {}
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if edges:
                raise ParseError("n= directive must precede edge lines", line=lineno)
            try:
                n_directive = int(line[2:])
            except ValueError:
                raise ParseError(f"bad node count directive {line!r}", line=lineno)
            if n_directive < 1:
                raise ParseError("node count must be >= 1", line=lineno)
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'u v [w]', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"node ids must be integers, got {line!r}", line=lineno)
        if one_based:
            u -= 1
            v -= 1
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {line!r}", line=lineno)
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"bad weight in {line!r}", line=lineno)
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop at node {u}")
        if w <= 0 or not math.isfinite(w):
            raise NegativeWeight(f"line {lineno}: weight must be positive, got {w}")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise DuplicateLink(f"line {lineno}: duplicate link {key}")
        edges[key] = w
        max_id = max(max_id, u, v)
    if max_id < 0 and n_directive is None:
        raise ParseError("no edges and no n= directive")
    n = n_directive if n_directive is not None else max_id + 1
    if max_id >= n:
        raise ParseError(f"node id {max_id} exceeds declared n={n}")
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    return Graph._from_links(n, ends[0::2], ends[1::2],
                             np.fromiter(edges.values(), dtype=float, count=len(edges)))


def load_edge_list(path, one_based: bool = False) -> Graph:
    return parse_weighted_edge_list(_read_utf8(path), one_based=one_based)


# CSV reports


def format_value(v) -> str:
    """Render a number with 12 significant digits; 'inf'/'nan' spelled so.

    The 'g' format spells infinities 'inf' and '-inf' and every NaN 'nan',
    whatever its sign.
    """
    return format(float(v), ".12g")


def jsonable(v):
    """``v`` for a JSON payload, with a non-finite float spelled as in the CSV
    files."""
    if isinstance(v, float) and not math.isfinite(v):
        return format_value(v)
    return v


def write_csv(path, header, rows) -> None:
    """Write a header and rows of cells as UTF-8 CSV with LF line endings,
    to the file ``path`` or to stdout when ``path`` is None."""
    with (open(path, "w", encoding="utf-8", newline="") if path
          else nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(records, path) -> None:
    """Write metric records with :func:`write_csv` (to stdout when ``path`` is
    None), in the column order of the frozen metric-name list. ``records``
    may be any iterable, read once; a record without exactly those names
    raises ParseError, after the rows before it are written.
    """
    names = set(METRIC_NAMES)

    def rows():
        for rec in records:
            if rec.keys() != names:
                raise ParseError("records must share the same metric-name set")
            yield [format_value(rec[name]) for name in METRIC_NAMES]

    write_csv(path, METRIC_NAMES, rows())


def read_records_csv(path) -> tuple[list[str], list[dict[str, float]]]:
    """Read a CSV written by :func:`write_records_csv` back into records; a
    bad row or cell raises ParseError with its line number."""
    reader = csv.reader(StringIO(_read_utf8(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise ParseError("empty CSV file")
    records = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"row length {len(row)} != header length {len(header)}",
                             line=reader.line_num)
        try:
            records.append({k: float(v) for k, v in zip(header, row)})
        except ValueError as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
    return header, records
