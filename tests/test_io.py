import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_N7, random_er
from sdegraph import (Graph, classify, generate, parse_graph6,
                      parse_weighted_edge_list, read_graph6_file)
from sdegraph.errors import (DuplicateLink, InputError, MalformedGraph6,
                             NegativeWeight, ParseError, SelfLoop,
                             WeightedUnsupported)
from sdegraph.graph import Regular
from sdegraph.io import (GRAPH6_HEADER, encode_graph6, format_value, load_edge_list,
                         read_records_csv, write_records_csv)
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
    assert encode_graph6(Graph.empty(1)) == "@"


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
    g.validate()
    return g


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), graph6_texts, graph6_texts.map("~{}".format)))
@example("Bé")
def test_parse_graph6_arbitrary_text(text):
    g = _parse_or_input_error(parse_graph6, text)
    if g is not None:  # one ASCII character per encoded one
        body = text.strip().removeprefix(GRAPH6_HEADER)
        assert body.isascii() and len(encode_graph6(g)) == len(body)


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


def test_edge_list_one_based():
    g = parse_weighted_edge_list("1 2\n2 3", one_based=True)
    assert g.links() == [(0, 1), (1, 2)]


def test_load_edge_list_invalid_utf8(tmp_path):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"0 1\n1 \xff2\n")
    with pytest.raises(ParseError) as err:
        load_edge_list(path)
    assert err.value.line == 2


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


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "rt.csv"
    records = [_record(2.5), _record(math.inf)]
    write_records_csv(records, path)
    header, back = read_records_csv(path)
    assert list(header) == list(METRIC_NAMES)
    assert back[0]["sde_q"] == 2.5
    assert math.isinf(back[1]["sde_q"])


def test_csv_mismatched_names_rejected(tmp_path):
    with pytest.raises(ParseError):
        write_records_csv([{"wrong": 1.0}], tmp_path / "bad.csv")
    # a later record with other names fails too, not only the first
    with pytest.raises(ParseError):
        write_records_csv([_record(2.5), {"wrong": 1.0}], tmp_path / "bad2.csv")


def test_csv_generator_records(tmp_path):
    # records are read once, so a generator writes every row
    path = tmp_path / "gen.csv"
    write_records_csv((_record(2.0 + k) for k in range(3)), path)
    header, back = read_records_csv(path)
    assert [rec["sde_q"] for rec in back] == [2.0, 3.0, 4.0]


def test_csv_bad_cells_rejected_with_line(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("a,sde_q\n1,2\n1,x\n")
    with pytest.raises(ParseError) as err:
        read_records_csv(path)
    assert err.value.line == 3
    path.write_bytes(b"a,sde_q\n1,2\n\xff,3\n")
    with pytest.raises(ParseError) as err:
        read_records_csv(path)
    assert err.value.line == 3
