import json

import pytest

from digraph_pfd import Digraph, parse_edge_list, serialize_edge_list, strong_product
from digraph_pfd import cli, oracle
from digraph_pfd.cli import main
from digraph_pfd.errors import SizeLimitExceededError
from digraph_pfd.graphio import MAX_VERTICES

from helpers import c3, k2, p2, two_k2


def write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize_edge_list(g), encoding="utf-8")
    return str(path)


def test_product_writes_graph_and_coords(tmp_path, capsys):
    a = write(tmp_path, "a.txt", p2())
    b = write(tmp_path, "b.txt", c3())
    assert main(["product", "--kind", "strong", a, b]) == 0
    out = capsys.readouterr().out
    assert parse_edge_list(out) == strong_product([p2(), c3()]).graph
    assert "# coord 0: 0,0" in out


@pytest.mark.parametrize("kind", ["strong", "cartesian"])
def test_product_with_no_vertices_writes_no_coord_line(tmp_path, capsys, kind):
    empty = write(tmp_path, "e.txt", Digraph(0))
    a = write(tmp_path, "a.txt", p2())
    assert main(["product", "--kind", kind, empty, a]) == 0
    assert capsys.readouterr().out == "0 0\n"


def _refuse(*args, **kwargs):
    raise AssertionError("built or drew a graph for a product over the vertex limit")


@pytest.mark.parametrize("kind", ["strong", "cartesian"])
def test_product_over_the_vertex_limit_exits_1_before_building(tmp_path, capsys, monkeypatch, kind):
    # 2^20 vertices is more than any edge-list header may declare.
    monkeypatch.setattr(cli, "strong_product", _refuse)
    monkeypatch.setattr(cli, "cartesian_product", _refuse)
    a = write(tmp_path, "a.txt", p2())
    out = tmp_path / "out.txt"
    assert main(["product", "--kind", kind, *[a] * 20, "-o", str(out)]) == 1
    assert f"more than {MAX_VERTICES} vertices" in capsys.readouterr().err
    assert not out.exists()
    # The same factors and an empty one, in either order, make 0 vertices.
    monkeypatch.undo()
    empty = write(tmp_path, "e.txt", Digraph(0))
    for graphs in ([*[a] * 20, empty], [empty, *[a] * 20]):
        assert main(["product", "--kind", kind, *graphs]) == 0
        assert capsys.readouterr().out == "0 0\n"


def test_product_size_limit_is_the_header_limit():
    cli._check_product_size(1000 * 1000)
    with pytest.raises(SizeLimitExceededError):
        cli._check_product_size(1000 * 1001)


def test_product_cartesian_kind(tmp_path, capsys):
    a = write(tmp_path, "a.txt", p2())
    assert main(["product", "--kind", "cartesian", a, a]) == 0
    assert parse_edge_list(capsys.readouterr().out).arc_count == 4


def test_skeleton_with_witness_ledger(tmp_path, capsys):
    g = write(tmp_path, "g.txt", strong_product([p2(), p2()]).graph)
    assert main(["skeleton", g, "--witnesses"]) == 0
    out = capsys.readouterr().out
    assert parse_edge_list(out).arc_count == 4
    assert "# removed 0 3 D1 z=1 conds=2+,1-" in out


def test_skeleton_rejects_non_thin_with_hint(tmp_path, capsys):
    g = write(tmp_path, "g.txt", k2())
    assert main(["skeleton", g]) == 1
    assert "quotient" in capsys.readouterr().err


def test_factor_text_output(tmp_path, capsys):
    g = write(tmp_path, "g.txt", strong_product([p2(), c3()]).graph)
    assert main(["factor", g]) == 0
    out = capsys.readouterr().out
    blocks = out.split("---\n")
    assert blocks[0].strip() == "2"
    assert len(blocks) == 4  # count, two factors, coordinate map


def test_factor_json_schema(tmp_path, capsys):
    g = write(tmp_path, "g.txt", strong_product([p2(), k2()]).graph)
    assert main(["factor", g, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"n", "arcs", "factors", "coords"}
    assert payload["n"] == 4
    assert sorted(len(f["arcs"]) for f in payload["factors"]) == [1, 2]
    assert set(payload["coords"]) == {"0", "1", "2", "3"}


def test_factor_product_iso_round_trip(tmp_path, capsys):
    g_path = write(tmp_path, "g.txt", strong_product([p2(), c3()]).graph)
    assert main(["factor", g_path, "--json", "-o", str(tmp_path / "f.json")]) == 0
    payload = json.loads((tmp_path / "f.json").read_text(encoding="utf-8"))
    factor_paths = []
    for i, f in enumerate(payload["factors"]):
        text = f"{f['n']} {len(f['arcs'])}\n" + "".join(
            f"{u} {v}\n" for u, v in f["arcs"]
        )
        path = tmp_path / f"factor{i}.txt"
        path.write_text(text, encoding="utf-8")
        factor_paths.append(str(path))
    prod = str(tmp_path / "rebuilt.txt")
    assert main(["product", "--kind", "strong", *factor_paths, "-o", prod]) == 0
    assert main(["iso", g_path, prod]) == 0


def test_factor_cartesian_kind(tmp_path, capsys):
    from digraph_pfd import cartesian_product

    g = write(tmp_path, "g.txt", cartesian_product([p2(), c3()]).graph)
    assert main(["factor", g, "--kind", "cartesian"]) == 0
    assert capsys.readouterr().out.startswith("2\n")


def test_quotient_output(tmp_path, capsys):
    g = write(tmp_path, "g.txt", strong_product([p2(), k2()]).graph)
    assert main(["quotient", g]) == 0
    out = capsys.readouterr().out
    assert parse_edge_list(out) == p2()
    assert "# mult 0 2" in out and "# mult 1 2" in out


def test_iso_exit_codes(tmp_path, capsys):
    a = write(tmp_path, "a.txt", c3())
    b = write(tmp_path, "b.txt", c3().relabel([2, 0, 1]))
    c = write(tmp_path, "c.txt", p2())
    assert main(["iso", a, b]) == 0
    assert main(["iso", a, c]) == 1


def test_gen_is_deterministic(tmp_path, capsys):
    assert main(["gen", "--model", "thin", "--n", "2:6", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--model", "thin", "--n", "2:6", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    assert parse_edge_list(first).is_connected()


@pytest.mark.parametrize("spec", ["abc", "3:x", "5:3", "\u0663", "2:\u0665", "\uff11"])
def test_gen_rejects_malformed_n_as_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--model", "thin", "--n", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n" in err and repr(spec) in err and "Traceback" not in err


def test_gen_product_model_factors(tmp_path, capsys):
    assert main(["gen", "--model", "product", "--n", "2:3", "--seed", "1",
                 "--factors", "2"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert 4 <= g.n <= 9


def test_gen_product_over_the_vertex_limit_exits_1_before_drawing(capsys, monkeypatch):
    # At least 2^40 vertices: refused before the first factor is drawn.
    monkeypatch.setattr(cli, "random_prime_digraph", _refuse)
    monkeypatch.setattr(cli, "strong_product", _refuse)
    assert main(["gen", "--model", "product", "--n", "2", "--factors", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"more than {MAX_VERTICES} vertices" in captured.err


@pytest.mark.parametrize("model", ["prime", "product"])
def test_gen_primes_over_the_oracle_limit_exit_1_before_drawing(capsys, monkeypatch, model):
    # A prime has at most 10 vertices, the oracle's limit; no digraph is drawn.
    draws = []
    monkeypatch.setattr(oracle, "_random_digraph", lambda *args: draws.append(args))
    n = "2000" if model == "prime" else "11"
    assert main(["gen", "--model", model, "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    assert draws == []


def test_gen_prime_model(tmp_path, capsys):
    from digraph_pfd import brute_force_strong_pfd

    assert main(["gen", "--model", "prime", "--n", "2:4", "--seed", "3"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert len(brute_force_strong_pfd(g).factors) == 1


def test_oracle_factor_matches_format(tmp_path, capsys):
    g = write(tmp_path, "g.txt", strong_product([p2(), p2()]).graph)
    assert main(["oracle-factor", g]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2\n---\n")


def test_oracle_factor_respects_max_n(tmp_path, capsys):
    from digraph_pfd import complete_digraph

    g = write(tmp_path, "g.txt", complete_digraph(6))
    assert main(["oracle-factor", g, "--max-n", "4"]) == 1
    assert "error" in capsys.readouterr().err


def test_dot_subcommand(tmp_path, capsys):
    g = write(tmp_path, "g.txt", p2())
    assert main(["dot", g]) == 0
    assert "0 -> 1;" in capsys.readouterr().out


def test_missing_file_is_error(tmp_path, capsys):
    assert main(["factor", str(tmp_path / "nope.txt")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["strong", "cartesian"])
def test_factor_rejects_disconnected_input(tmp_path, capsys, kind):
    g = write(tmp_path, "g.txt", two_k2())
    assert main(["factor", "--kind", kind, g]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "connected" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_factor_rejects_header_above_vertex_limit(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(f"{MAX_VERTICES + 1} 0\n", encoding="utf-8")
    assert main(["factor", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_factor_rejects_a_repeated_arc(tmp_path, capsys):
    path = tmp_path / "twice.txt"
    path.write_text("2 2\n0 1\n0 1\n", encoding="utf-8")
    assert main(["factor", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3:") and "repeats line 2" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["factor", "skeleton", "quotient"])
def test_non_utf8_input_is_one_line_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe2 1\n0 1\n")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    text = serialize_edge_list(strong_product([p2(), c3()]).graph)
    plain = tmp_path / "plain.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main(["factor", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["factor", str(marked)]) == 0
    assert capsys.readouterr().out == expected


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["factor"])
    assert exc.value.code == 2


def test_deterministic_bytes(tmp_path, capsys):
    g = write(tmp_path, "g.txt", strong_product([p2(), c3()]).graph)
    main(["factor", g])
    first = capsys.readouterr().out
    main(["factor", g])
    assert capsys.readouterr().out == first
