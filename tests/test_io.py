import csv
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_N7, assert_graph_invariants, random_er
import sdegraph.io as sdeio
from sdegraph import (Graph, classify, generate, parse_graph6,
                      parse_weighted_edge_list, read_graph6_file)
from sdegraph.errors import (DegreeOverflow, DuplicateLink, InputError, InvalidGraph,
                             MalformedGraph6, NegativeWeight, ParseError, SelfLoop,
                             WeightedUnsupported)
from sdegraph.graph import Regular
from sdegraph.io import (GRAPH6_HEADER, encode_graph6, format_value, load_edge_list,
                         read_records_columns, write_records_csv)
from sdegraph.metrics import METRIC_NAMES


# graph6 decoding: values derived from the published format by hand


def test_parse_triangle():
    g = parse_graph6("Bw")  # 'B'=66 -> n=3; bits 111000 -> 56+63=119='w'
    assert g.n == 3
    assert g.num_links() == 3


def test_parse_path3():
    g = parse_graph6("Bg")  # bits (0,1)=1,(0,2)=0,(1,2)=1 -> 101000 -> 'g'
    assert g.links() == [(0, 1), (1, 2)]


def test_parse_edgeless():
    g = parse_graph6("B?")
    assert g.n == 3 and g.num_links() == 0


def test_parse_single_node():
    assert parse_graph6("@").n == 1


def test_parse_header_tolerated():
    g = parse_graph6(">>graph6<<Bw")
    assert g.num_links() == 3


def test_encode_examples():
    assert encode_graph6(parse_graph6("Bw")) == "Bw"
    assert encode_graph6(generate("path:3")) == "Bg"
    assert encode_graph6(Graph.from_edges(1, [])) == "@"


def test_encode_memory_follows_the_string():
    # 6,000 nodes and two links: a 3.0 MB string. One uint8 per bit of the
    # upper triangle and the packed groups as Python ints peaked at 62 times
    # the string's length; one byte per 6-bit group peaks at about twice it
    g = Graph.from_edges(6000, [(0, 1), (5, 5999)])
    tracemalloc.start()
    try:
        text = encode_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text), peak
    assert parse_graph6(text).links() == [(0, 1), (5, 5999)]


def test_parse_malformed():
    with pytest.raises(MalformedGraph6):
        parse_graph6("B")  # truncated bit stream
    with pytest.raises(MalformedGraph6):
        parse_graph6("Bww")  # extra bytes
    with pytest.raises(MalformedGraph6):
        parse_graph6("B" + chr(20))  # byte below 63
    with pytest.raises(MalformedGraph6):
        parse_graph6("~w")  # truncated size prefix
    with pytest.raises(MalformedGraph6):
        parse_graph6("")
    with pytest.raises(MalformedGraph6):
        parse_graph6("?")  # zero nodes
    with pytest.raises(MalformedGraph6):
        parse_graph6("~~???w")  # eight-byte size form unsupported
    with pytest.raises(MalformedGraph6, match="non-canonical"):
        parse_graph6("~??A??")  # n = 2 in the four-byte form


def test_encode_refuses_past_the_four_byte_size_form():
    # refused before its 3.3e10-bit stream is allocated
    with pytest.raises(MalformedGraph6, match="exceeds the supported graph6 range"):
        encode_graph6(Graph.from_edges(258048, []))


def test_parse_non_ascii_rejected():
    # a non-ASCII character must not stand in for a valid byte
    for text in ("Bé", "é", "B\udcc3"):
        with pytest.raises(MalformedGraph6):
            parse_graph6(text)


def test_encode_weighted_rejected():
    g = Graph.from_edges(2, [(0, 1, 2.5)])
    with pytest.raises(WeightedUnsupported):
        encode_graph6(g)


def test_roundtrip_random(rng):
    for _ in range(200):
        n = int(rng.integers(1, 31))
        g = random_er(rng, n, float(rng.random()))
        h = parse_graph6(encode_graph6(g))
        assert np.array_equal(h.weights, g.weights)


def test_roundtrip_four_byte_size(rng):
    # n > 62 switches to the '~' + 3-byte size prefix
    for n in (63, 100):
        g = random_er(rng, n, 0.05)
        s = encode_graph6(g)
        assert s.startswith("~")
        h = parse_graph6(s)
        assert h.n == n
        assert np.array_equal(h.weights, g.weights)


def test_fixture_counts():
    graphs = read_graph6_file(FIXTURE_N7)
    assert len(graphs) == 853
    nonregular = [g for g in graphs if not isinstance(classify(g), Regular)]
    assert len(nonregular) == 849
    assert all(g.n == 7 for g in graphs)


def test_read_graph6_file_non_ascii_line(tmp_path):
    path = tmp_path / "bytes.g6"
    path.write_bytes(b"Bw\nB\xc3\xa9\n")
    with pytest.raises(ParseError) as err:
        read_graph6_file(path)
    assert err.value.line == 2


@st.composite
def unweighted_graphs(draw):
    """Graphs on 1 to 130 nodes; above 62 nodes graph6 takes the four-byte
    size prefix."""
    n = draw(st.one_of(st.integers(1, 130), st.sampled_from((62, 63))))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    links = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    return Graph.from_edges(n, sorted(links))


@settings(max_examples=200, deadline=None)
@given(unweighted_graphs())
def test_graph6_roundtrip_property(g):
    s = encode_graph6(g)
    assert s.startswith("~") == (g.n > 62)
    h = parse_graph6(s)
    assert h.n == g.n
    assert np.array_equal(h.weights, g.weights)
    assert encode_graph6(h) == s


def graph6_pairs(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The node count and the links of a one-byte-size graph6 string, read
    bit by bit: bit k of the six-bit groups is the pair (i, j), i < j, in
    column-major order."""
    n, body = ord(text[0]) - 63, text[1:]
    bits = [(ord(ch) - 63) >> (5 - b) & 1 for ch in body for b in range(6)]
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


@st.composite
def short_graph6(draw):
    """graph6 strings of 1 to 62 nodes with arbitrary bytes, padding bits
    included."""
    n = draw(st.integers(1, 62))
    size = (n * (n - 1) // 2 + 5) // 6
    body = draw(st.text(st.characters(min_codepoint=63, max_codepoint=126),
                        min_size=size, max_size=size))
    return chr(n + 63) + body


def _assert_decoded_as_from_edges(text):
    g = parse_graph6(text)
    assert_graph_invariants(g)
    n, pairs = graph6_pairs(text)
    ref = Graph.from_edges(n, pairs)
    assert g.n == n
    for name in ("indptr", "indices", "data"):
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_graph6_decodes_every_n7_line_as_from_edges():
    # up to 62 nodes parse_graph6 gathers the CSR entries through a table,
    # in row-major order; Graph.from_edges sorts its keys
    with open(FIXTURE_N7, encoding="ascii") as fh:
        lines = fh.read().split()
    assert len(lines) == 853
    for line in lines:
        _assert_decoded_as_from_edges(line)


@settings(max_examples=300, deadline=None)
@given(short_graph6())
@example("@")
@example("}" + "~" * 316)  # K62: 1891 bits in 316 bytes
def test_graph6_decodes_as_from_edges(text):
    _assert_decoded_as_from_edges(text)


def _small_ids(text: str) -> bool:
    """Whether every integer token of an edge-list text is below 1e4: a
    larger node id or n= directive makes the parser allocate arrays of that
    size."""
    for token in re.split(r"[\s=#]", text):
        try:
            if abs(int(token)) >= 10 ** 4:
                return False
        except ValueError:
            pass
    return True


_EDGE_TOKENS = ("0", "1", "2", "7", "-1", "+3", "1_0", "٣", "1.5", "nan",
                "inf", "-2", "1e-300", "x", "é", "n=3", "n=0", "n=x", "#")
edge_list_texts = st.lists(st.lists(st.sampled_from(_EDGE_TOKENS), max_size=4)
                           .map(" ".join), max_size=8).map("\n".join)
graph6_texts = st.text(st.one_of(st.characters(min_codepoint=62, max_codepoint=127),
                                  st.sampled_from("é\udcc3")), max_size=12)


def _parse_or_input_error(parse, text):
    """The valid graph that ``parse`` makes of ``text``, or None where it
    raises an InputError."""
    try:
        g = parse(text)
    except InputError:
        return None
    assert isinstance(g, Graph)
    assert_graph_invariants(g)
    return g


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), graph6_texts, graph6_texts.map("~{}".format)))
@example("Bé")
def test_parse_graph6_arbitrary_text(text):
    g = _parse_or_input_error(parse_graph6, text)
    if g is not None:  # one ASCII character per encoded one
        body = text.strip().removeprefix(GRAPH6_HEADER)
        assert body.isascii() and len(encode_graph6(g)) == len(body)


def test_graph6_byte_range_message_for_every_byte_at_every_position():
    # the 63..126 test, made with bytes.translate, against the per-byte rule
    # it replaces: every byte 0..255 inserted at, or put in place of, each
    # character of a valid line (a byte above 127 both as a character and
    # as the lone surrogate a graph6 file decodes it to)
    base = "DQc"  # n = 5: one size byte and two bytes of 10 link bits
    message = "graph6 bytes must be in 63..126"
    for b in range(256):
        chars = [chr(b)] + ([bytes([b]).decode("ascii", "surrogateescape")] if b > 127 else [])
        for ch in chars:
            for at in range(len(base) + 1):
                for text in (base[:at] + ch + base[at:], base[:at] + ch + base[at + 1:]):
                    body = text.strip()
                    outside = any(not 63 <= ord(c) <= 126 for c in body)
                    try:
                        parse_graph6(text)
                    except MalformedGraph6 as exc:
                        assert (str(exc) == message) == outside, (b, at, text)
                    else:
                        assert not outside, (b, at, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), edge_list_texts), st.booleans())
def test_parse_edge_list_arbitrary_text(text, one_based):
    assume(_small_ids(text))
    _parse_or_input_error(lambda t: parse_weighted_edge_list(t, one_based=one_based), text)


# weighted edge lists


def test_edge_list_path():
    g = parse_weighted_edge_list("0 1\n1 2")
    assert g.links() == [(0, 1), (1, 2)]
    assert g.is_unweighted()


def test_edge_list_weighted():
    g = parse_weighted_edge_list("0 1 2.5")
    assert g.degrees().tolist() == [2.5, 2.5]


def test_edge_list_errors():
    with pytest.raises(SelfLoop):
        parse_weighted_edge_list("0 0 1")
    with pytest.raises(DuplicateLink):
        parse_weighted_edge_list("0 1\n1 0")
    with pytest.raises(NegativeWeight):
        parse_weighted_edge_list("0 1 -2")
    with pytest.raises(NegativeWeight):
        parse_weighted_edge_list("0 1 0")
    with pytest.raises(ParseError) as err:
        parse_weighted_edge_list("0 1\nnope")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_weighted_edge_list("0 1 2 3")
    with pytest.raises(ParseError):
        parse_weighted_edge_list("")


def test_edge_list_degree_overflow():
    # each weight is finite, but node 1's two links sum past float64's range
    links = "0 1 1e308\n1 2 1e308\n2 3\n"
    with pytest.raises(DegreeOverflow, match="node 1 overflows"):
        parse_weighted_edge_list(links)
    with pytest.raises(DegreeOverflow, match="node 1 overflows"):
        Graph.from_edges(4, [(0, 1, 1e308), (1, 2, 1e308), (2, 3)])
    # the same weights on disjoint links stay finite
    assert parse_weighted_edge_list("0 1 1e308\n2 3 1e308\n").degrees().max() == 1e308


def test_edge_list_comments_and_directive():
    text = "# a comment\nn=5\n\n0 1  # trailing comment\n1 2\n"
    g = parse_weighted_edge_list(text)
    assert g.n == 5
    assert g.num_links() == 2


def test_edge_list_directive_rules():
    with pytest.raises(ParseError):
        parse_weighted_edge_list("0 1\nn=4")  # directive after edges
    with pytest.raises(ParseError):
        parse_weighted_edge_list("n=2\n0 5")  # id beyond declared n



@pytest.mark.parametrize("text", ["n=1000000000000\n", "n=100000000\n0 1\n",
                                  "0 100000000000000000000\n"],
                         ids=["n=1e12", "n=1e8", "id_past_int64"])
def test_edge_list_size_rule(text):
    # the headers once ran out of memory building the row offsets, and an
    # id past int64 raised OverflowError
    with pytest.raises(InvalidGraph, match="at most"):
        parse_weighted_edge_list(text)


def test_edge_list_one_based():
    g = parse_weighted_edge_list("1 2\n2 3", one_based=True)
    assert g.links() == [(0, 1), (1, 2)]


def test_edge_list_repeated_directive():
    # a second n= line once silently replaced the first
    with pytest.raises(ParseError) as err:
        parse_weighted_edge_list("n=5\nn=7\n0 1\n")
    assert err.value.line == 2 and str(err.value) == "line 2: repeated n= directive"


# the token reader (sdeio._edge_tokens) against the line loop: texts in its
# layout, with the spellings, defects and single-line mutations that must send
# a text to the loop or make it an error

_ODD_IDS = {0: ["00"], 1: ["+1", "01", "1.0", "1e0"]}  # beside the plain spelling
_WEIGHTS = ["1", "2", "0.5", ".5", "5.", "1e0", "2.5E-3", "+3", "1e-300", "1.7e308", "7e-320"]
_BAD_WEIGHTS = ["0", "-1", "1e400", "nan", "inf", "1_0", "1e", "1.2.3", "-", "٣"]
_JUNK_LINES = ["", "   ", "# note", "0 1 # note", "n=3", "n=x", "1", "0 1 1 1", "0 -1",
               "0 é", "x y", "2\t3", "6 7 1", " 4 5", "4 5 ", "4  5", "0 1\r", "2\r3", "2\x0b3",
               "2\x1c3", "2\xa03"]


@st.composite
def edge_list_cases(draw):
    k, one_based = draw(st.sampled_from((2, 3))), draw(st.booleans())
    ids = st.integers(draw(st.sampled_from([0] + [int(one_based)] * 3)), draw(st.integers(2, 12)))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
                          unique_by=frozenset, min_size=1, max_size=10))
    defect = draw(st.sampled_from([None] * 4 + ["duplicate", "self-loop", "weight"]))
    if defect == "duplicate":  # in either orientation
        u, v = draw(st.sampled_from(pairs))
        pairs.append(draw(st.sampled_from([(u, v), (v, u)])))
    elif defect == "self-loop":
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(ids),) * 2)
    lines = []
    for u, v in pairs:
        tokens = [draw(st.sampled_from([str(x)] * 6 + _ODD_IDS.get(x, []))) for x in (u, v)]
        if k == 3:
            tokens.append(draw(st.sampled_from(_WEIGHTS)))
        lines.append(draw(st.sampled_from([" ", "\t"])).join(tokens))
    if k == 3 and defect == "weight":
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at].rsplit(maxsplit=1)[0] + " " + draw(st.sampled_from(_BAD_WEIGHTS))
    if draw(st.integers(0, 3)) == 0:  # one line changed, or one put in
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(_JUNK_LINES))]
    header = draw(st.sampled_from([None] * 6 + [0, 1, 3, 10, 11, "05"]))
    if header is not None:
        lines.insert(0, f"n={header}")
    end = draw(st.sampled_from(["", "\n", "\n\n", " \n"]))
    newline = draw(st.sampled_from(["\n"] * 4 + ["\r\n"]))
    return newline.join(lines) + end, one_based


def _outcome(parse, text, one_based):
    """The graph's arrays, bit for bit, or the exception's type and text."""
    try:
        g = parse(text, one_based)
    except Exception as exc:
        return type(exc), str(exc)
    return (g.n, g.is_unweighted(),
            *((a.dtype.str, a.tobytes()) for a in (g.indptr, g.indices, g.data)))


@settings(max_examples=300, deadline=None)
@given(edge_list_cases())
@example(("n=2\n0 1\n", False))
@example(("0 1 1e308\n1 2 1e308\n", False))  # DegreeOverflow from the array route too
@example(("0 1 2\n1 2 1e400\n", False))  # a weight that reads as inf
@example(("0 1\n1 2 3", False))
@example(("0  1\n2  3\n", False))  # two blanks: no empty token
@example(("0 1\n2 3 4\n5 6 7\n8 9\n", False))  # lines of 2 and 3 tokens
@example(("0 1\n2\r3\n", False))  # a line break that is not a newline
@example((" 4 5\n1 2 3\n", False))  # a leading blank
def test_token_reader_matches_the_line_loop(case):
    text, one_based = case
    assert (_outcome(parse_weighted_edge_list, text, one_based)
            == _outcome(sdeio._parse_edge_lines, text, one_based))


def test_clean_edge_lists_skip_the_line_loop(monkeypatch, tmp_path):
    def loop(text, one_based):
        raise AssertionError(f"line loop entered for {text!r}")

    monkeypatch.setattr(sdeio, "_parse_edge_lines", loop)
    assert parse_weighted_edge_list("2 0\n0 1\n").links() == [(0, 1), (0, 2)]
    assert parse_weighted_edge_list("n=4\n1 2\t0.5\n3 2 1e1", one_based=True).n == 4
    assert parse_weighted_edge_list("n=7\n").n == 7
    # load_edge_list parses the whole file in one call
    calls = []
    parse = sdeio.parse_weighted_edge_list
    monkeypatch.setattr(sdeio, "parse_weighted_edge_list",
                        lambda *args, **kwargs: calls.append(args) or parse(*args, **kwargs))
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1000)))
    assert load_edge_list(path).num_links() == 1000 and len(calls) == 1


def test_load_edge_list_invalid_utf8(tmp_path):
    # the file is decoded a megabyte at a time, with the message and line
    # number of decoding it whole
    path = tmp_path / "bytes.txt"
    comments = b"#\n" * (2**19 - 1) + b"#"  # the next byte ends the first block
    for data, line in [(b"0 1\n1 \xff2\n", 2),
                       (b"0 1\n1 2 \xe2\x82\n", 2),  # a sequence cut by a newline
                       (b"0 1\n1 2\n2 3 \xe2\x82", 3),  # cut by the end of the file
                       (b"\xc3\xa9 1\n\xed\xa0\x80", 2),  # a surrogate after a valid sequence
                       # a valid sequence across two blocks, an error in the second
                       (comments + "\u20ac\n".encode() + b"0 1\n1 \xff2\n", 2**19 + 2),
                       (comments + b"\xe2\x82", 2**19)]:  # held over past the last block
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        with pytest.raises(ParseError) as err:
            load_edge_list(path)
        assert err.value.line == line == data.count(b"\n", 0, whole.value.start) + 1
        assert str(err.value) == f"line {line}: invalid UTF-8 ({whole.value.reason})"


# CSV serialization


def _record(q):
    rec = {name: 1.0 for name in METRIC_NAMES}
    rec["sde_q"] = q
    return rec


def test_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_records_csv([], path)
    content = path.read_bytes()
    assert content.decode().strip() == ",".join(METRIC_NAMES)
    assert b"\r" not in content  # LF endings


def test_csv_inf_nan_spelling(tmp_path):
    path = tmp_path / "vals.csv"
    write_records_csv([_record(math.inf), _record(math.nan)], path)
    lines = path.read_text().strip().splitlines()
    q_col = lines[0].split(",").index("sde_q")
    assert lines[1].split(",")[q_col] == "inf"
    assert lines[2].split(",")[q_col] == "nan"


def test_csv_significant_digits(tmp_path):
    assert format_value(1 / 3) == "0.333333333333"
    assert format_value(2.0) == "2"
    assert format_value(float("-inf")) == "-inf"
    pinned = [(np.float64("nan"), "nan"), (-np.float64("nan"), "nan"),
              (np.float64("inf"), "inf"), (-np.inf, "-inf"), (np.int64(7), "7"),
              (np.float32(0.1), "0.10000000149"), (-0.0, "-0"), (1e16, "1e+16"),
              (1e-5, "1e-05")]
    for value, text in pinned:
        assert format_value(value) == text, repr(value)
    path = tmp_path / "digits.csv"
    write_records_csv([_record(2.3686402797905317)], path)
    assert "2.36864027979" in path.read_text()


def test_csv_lines_match_csv_writer(tmp_path):
    # one joined '.12g' line per record gives csv.writer's bytes: no cell needs quoting
    edge = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, 5e-324,
            1.7976931348623157e308, 1 / 3, -2.5, 1e16, 1e-5, 123456789012345.0]
    records = []
    for k in range(len(edge)):
        rec = {name: edge[(k + i) % len(edge)] for i, name in enumerate(METRIC_NAMES)}
        records.append(rec)
    path = tmp_path / "edge.csv"
    write_records_csv(records, path)
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(METRIC_NAMES)
    writer.writerows([format_value(rec[name]) for name in METRIC_NAMES] for rec in records)
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "rt.csv"
    records = [_record(2.5), _record(math.inf)]
    write_records_csv(records, path)
    header, columns = read_records_columns(path)
    assert list(header) == list(columns) == list(METRIC_NAMES)
    assert columns["sde_q"][0] == 2.5
    assert math.isinf(columns["sde_q"][1])


def test_csv_mismatched_names_rejected(tmp_path):
    with pytest.raises(ParseError):
        write_records_csv([{"wrong": 1.0}], tmp_path / "bad.csv")
    # a later record with other names fails too, not only the first, and
    # leaves an earlier file at the path as it was, with no temporary file
    path = tmp_path / "bad2.csv"
    write_records_csv([_record(1.5)], path)
    before = path.read_bytes()
    with pytest.raises(ParseError):
        write_records_csv([_record(2.5), {"wrong": 1.0}], path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad2.csv"]


def test_csv_generator_records(tmp_path):
    # records are read once, so a generator writes every row
    path = tmp_path / "gen.csv"
    write_records_csv((_record(2.0 + k) for k in range(3)), path)
    header, columns = read_records_columns(path)
    assert columns["sde_q"].tolist() == [2.0, 3.0, 4.0]


def test_csv_bad_cells_rejected_with_line(tmp_path):
    path = tmp_path / "cells.csv"
    for text, message in (("a,sde_q\n1,2\n1,x\n", "could not convert string to float: 'x'"),
                          ("a,sde_q\n1,2\n1,2,3\n", "row length 3 != header length 2")):
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_records_columns(path)
        assert err.value.line == 3
        assert str(err.value) == f"line 3: {message}"
    path.write_bytes(b"a,sde_q\n1,2\n\xff,3\n")
    with pytest.raises(ParseError) as err:
        read_records_columns(path)
    assert err.value.line == 3
    path.write_bytes(b"")
    with pytest.raises(ParseError, match="empty CSV file"):
        read_records_columns(path)
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InputError, match="^input CSV has no sde_q column$"):
        read_records_columns(path)
