"""Graph serialization: graph6 codec, weighted edge lists, metric CSV files.

The graph6 codec is bit-exact against the published format (printable
bytes 63..126, big-endian 6-bit groups, upper triangle in column-major
order). Only plain graph6 is supported — no sparse6/digraph6.
:func:`write_records_csv` streams metric records to a CSV file, and
:func:`read_records_columns` is its one reader: it returns the file's
columns as float arrays, not records.
"""
from __future__ import annotations

import codecs
import csv
import functools
import math
import os
import sys
from array import array
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext, suppress
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import (DuplicateLink, InputError, InvalidGraph, MalformedGraph6, NegativeWeight,
                     ParseError, SelfLoop, WeightedUnsupported)
from .graph import Graph, _too_large
from .metrics import METRIC_NAMES

GRAPH6_HEADER = ">>graph6<<"
_G6_MAX_N = 258047  # largest node count of the four-byte size form
_G6_BYTES = bytes(range(63, 127))  # the bytes a graph6 string may hold
# largest node count of the one-byte size form. Up to it the CSR entries are
# gathered through a table cached per n; above it a table would take 16 bytes
# per entry, so the set bits are located by a search instead.
_G6_SHORT_MAX_N = 62


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
    # translate deletes every byte in 63..126 and leaves the others
    if len(data) != len(s) or data.translate(None, _G6_BYTES):
        raise MalformedGraph6("graph6 bytes must be in 63..126")
    n, off = _decode_size(data)
    if n < 1:
        raise MalformedGraph6("graphs need at least one node")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - off != need:
        raise MalformedGraph6(
            f"expected {need} adjacency bytes for n={n}, got {len(data) - off}")
    # each byte less 63 is two zero bits and six data bits, big-endian (the
    # size bytes too); data bit k is the pair (i, j), i < j, of the upper
    # triangle in column-major order: k = j (j - 1) / 2 + i
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8) - np.uint8(63))
    if n <= _G6_SHORT_MAX_N:
        at, row_ends, columns = _graph6_entries(n)
        present = bits[at].view(bool)
        indices = columns[present]
        return Graph._built(n, np.cumsum(present)[row_ends], indices)
    k = np.flatnonzero(bits[8 * off:].reshape(-1, 8)[:, 2:].ravel()[:nbits])
    column = np.arange(n)
    first = column * (column - 1) // 2  # the first bit of each column
    j = np.searchsorted(first, k, side="right") - 1
    return Graph._from_links(n, k - first[j], j)


@functools.cache
def _graph6_entries(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather table of the n-node graph6 strings, n <= 62 (read-only).

    Entry 0 stands for a bit that is always 0 (the size byte's high bit);
    entries 1, 2, ... are the off-diagonal (i, j) of an n x n matrix in
    row-major order. Returns each entry's bit position in the unpacked
    string and its column j, and the entry count at the end of each row (0,
    n - 1, ..., n (n - 1)): the cumulative sum of the gathered bits read at
    those counts is the CSR ``indptr``."""
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    k = hi * (hi - 1) // 2 + lo
    table = (np.concatenate(([0], 8 + k // 6 * 8 + 2 + k % 6)), np.arange(n + 1) * (n - 1),
             np.concatenate(([0], j)))
    for a in table:
        a.flags.writeable = False  # shared by every string of n nodes
    return table


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


def _utf8_blocks(path) -> Iterator[str]:
    """The text of a UTF-8 file, read and decoded a megabyte at a time;
    invalid UTF-8 raises ParseError with its line."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    lines = 0  # newlines in the blocks before; a sequence held over has none
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 20)
            try:
                yield decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:  # exc.object: held-over bytes + block
                raise ParseError(f"invalid UTF-8 ({exc.reason})",
                                 line=lines + exc.object.count(b"\n", 0, exc.start) + 1) from None
            if not block:
                return
            lines += block.count(b"\n")


# weighted edge lists


def parse_weighted_edge_list(text: str, one_based: bool = False) -> Graph:
    """Parse "u v [w]" lines into a weighted graph.

    Node ids are 0-based (``one_based`` shifts them down by one). Blank
    lines and '#' comments are skipped; a leading ``n=<int>`` directive
    fixes the node count, otherwise n = max id + 1. Duplicate links,
    self-loops, non-positive weights and a weighted degree that overflows
    float64 (DegreeOverflow) are errors.
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
    if why := _too_large(n, 2 * len(edges)):  # before an id past int64 overflows below
        raise InvalidGraph(why)
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    return Graph._from_links(n, ends[0::2], ends[1::2],
                             np.fromiter(edges.values(), dtype=float, count=len(edges)))


def load_edge_list(path, one_based: bool = False) -> Graph:
    return parse_weighted_edge_list("".join(_utf8_blocks(path)), one_based=one_based)


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


@contextmanager
def _replacing(path) -> Iterator:
    """A UTF-8 text file to write, stdout when ``path`` is None. A file is
    written under a temporary name beside ``path`` and renamed onto it once
    the block ends, so a run that fails part-way leaves ``path`` as it was."""
    tmp = path and f"{path}.{os.getpid()}.tmp"
    try:
        with (open(tmp, "w", encoding="utf-8", newline="") if tmp
              else nullcontext(sys.stdout)) as fh:
            yield fh
        if tmp:
            os.replace(tmp, path)
    finally:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, header, rows) -> None:
    """Write a header and rows of cells as CSV with LF line endings through
    :func:`_replacing` (to stdout when ``path`` is None)."""
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# a record's CSV line: format_value's cells (no number needs CSV quoting)
_RECORD_LINE = ",".join(["%.12g"] * len(METRIC_NAMES)) + "\n"


def write_records_csv(records, path) -> None:
    """Write metric records as :func:`write_csv` would (to stdout when
    ``path`` is None), one line per record in the column order of the
    frozen metric-name list. ``records`` may be any iterable, read once; a
    record without exactly those names raises ParseError.
    """
    names = set(METRIC_NAMES)
    cells = itemgetter(*METRIC_NAMES)
    with _replacing(path) as fh:
        fh.write(",".join(METRIC_NAMES) + "\n")
        for rec in records:
            if rec.keys() != names:
                raise ParseError("records must share the same metric-name set")
            fh.write(_RECORD_LINE % cells(rec))


def read_records_columns(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """The header of a CSV written by :func:`write_records_csv` and its
    columns of floats, keyed by name (a repeated name keeps its last column).

    The file is checked as UTF-8 a block at a time, then opened once: the
    header is read with the csv module and must name ``sde_q``; the body is
    read by one ``np.loadtxt`` (comments off). Where that refuses the body (a
    quoted, blank or non-numeric cell, rows of two lengths) or finds no rows,
    the same handle is read again row by row, each cell through ``float``,
    which gives the same bits wherever both reads succeed. Invalid UTF-8, a
    bad row or cell and a field past the csv module's size limit raise
    ParseError with its line number.
    """
    for _ in _utf8_blocks(path):  # the whole file, a block at a time
        pass
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(iter(fh.readline, ""))  # unlike iteration, keeps fh.tell()
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
        if header is None:
            raise ParseError("empty CSV file")
        if "sde_q" not in header:
            raise InputError("input CSV has no sde_q column")
        body = fh.tell()
        if any(not line.isspace() for line in iter(fh.readline, "")):  # else np.loadtxt warns
            fh.seek(body)
            with suppress(ValueError):
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                if table.shape[1] == len(header):
                    return header, dict(zip(header, np.ascontiguousarray(table.T)))
        fh.seek(body)
        columns = [array("d") for _ in header]
        try:
            for row in filter(None, reader):  # blank lines are skipped
                if len(row) != len(header):
                    raise ValueError(f"row length {len(row)} != header length {len(header)}")
                for column, cell in zip(columns, row):
                    column.append(float(cell))
        except (csv.Error, ValueError) as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
    return header, dict(zip(header, map(np.frombuffer, columns)))
