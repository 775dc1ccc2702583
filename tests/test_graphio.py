import pytest
from hypothesis import given

from digraph_pfd import (
    export_dot,
    parse_edge_list,
    serialize_edge_list,
    strong_product,
)
from digraph_pfd.errors import (
    ArityMismatchError,
    LoopArcError,
    ParseError,
    SizeLimitExceededError,
    VertexOutOfRangeError,
)
from digraph_pfd.graphio import MAX_VERTICES

from helpers import p2
from strategies import digraphs


def test_parse_single_arc():
    assert parse_edge_list("2 1\n0 1\n") == p2()


def test_parse_reports_loop_with_line():
    with pytest.raises(LoopArcError, match="line 2"):
        parse_edge_list("2 1\n0 0\n")


def test_parse_reports_range_with_line():
    with pytest.raises(VertexOutOfRangeError, match="line 3"):
        parse_edge_list("2 2\n0 1\n0 5\n")


def test_parse_rejects_bad_tokens():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("x y\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\n0 1 2\n")
    # int() reads these, the format does not: underscores, non-ASCII digits
    # and a plus sign.
    cases = [("1_0 0\n", 1), ("\u0663 0\n", 1), ("2 1\n+0 1\n", 2), ("2 1\n0 \uff11\n", 2)]
    for text, line in cases:
        with pytest.raises(ParseError, match=f"line {line}: expected two integers"):
            parse_edge_list(text)
    # A minus sign is part of the format; negative values fail on their range.
    with pytest.raises(ParseError, match="line 1: header counts must be non-negative"):
        parse_edge_list("-1 0\n")
    with pytest.raises(VertexOutOfRangeError, match="line 2"):
        parse_edge_list("2 1\n-1 0\n")


def test_parse_rejects_missing_header():
    with pytest.raises(ParseError):
        parse_edge_list("# nothing here\n")


def test_parse_rejects_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        parse_edge_list("2 2\n0 1\n")


def test_parse_rejects_a_repeated_arc_with_line():
    with pytest.raises(ParseError, match="line 4: arc \\(0, 1\\) repeats line 2"):
        parse_edge_list("2 2\n0 1\n# again\n0 1\n")


def test_comments_and_blanks_ignored():
    text = "# fixture\n\n2 1\n# body\n0 1\n\n"
    assert parse_edge_list(text) == p2()


def test_serialize_is_sorted_and_stable():
    g = strong_product([p2(), p2()]).graph
    out = serialize_edge_list(g)
    assert out == "4 5\n0 1\n0 2\n0 3\n1 3\n2 3\n"
    assert serialize_edge_list(parse_edge_list(out)) == out


@given(digraphs())
def test_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_normalization():
    messy = "# c\n2 1\n\n0   1\n"
    assert serialize_edge_list(parse_edge_list(messy)) == "2 1\n0 1\n"


def test_dot_plain():
    out = export_dot(p2())
    assert out == "digraph G {\n  0;\n  1;\n  0 -> 1;\n}\n"


def test_dot_deterministic():
    g = strong_product([p2(), p2()]).graph
    assert export_dot(g) == export_dot(strong_product([p2(), p2()]).graph)


def test_header_above_vertex_limit_rejected():
    with pytest.raises(SizeLimitExceededError, match="line 1"):
        parse_edge_list(f"{MAX_VERTICES + 1} 0\n")
