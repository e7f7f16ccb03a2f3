import math

import numpy as np
import pytest

from conftest import FIXTURE_N7, random_er
from sdegraph import (Graph, classify, generate, parse_graph6,
                      parse_weighted_edge_list, read_graph6_file)
from sdegraph.errors import (DuplicateLink, MalformedGraph6, NegativeWeight,
                             ParseError, SelfLoop, WeightedUnsupported)
from sdegraph.graph import Regular
from sdegraph.io import (encode_graph6, format_value, read_records_csv,
                         write_records_csv)
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
