"""Command-line surface tying the pipeline together.

Every subcommand is deterministic: identical inputs and seeds produce
identical bytes.  Exit codes: 0 success, 1 any library error (diagnostic on
stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import sys
from pathlib import Path

from .canon import is_isomorphic
from .cartesian_pfd import cartesian_pfd
from .digraph import Digraph
from .errors import GraphError, ParseError, SizeLimitExceededError
from .factorization import Factorization
from .graphio import MAX_VERTICES, export_dot, parse_edge_list, serialize_edge_list
from .oracle import brute_force_strong_pfd, random_prime_digraph, random_thin_digraph
from .products import cartesian_product, strong_product
from .relations import quotient
from .skeleton import cartesian_skeleton
from .strong_pfd import strong_pfd


def _read_graph(path: str) -> Digraph:
    try:
        return parse_edge_list(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _format_factorization(g: Digraph, f: Factorization) -> str:
    parts = [str(len(f.factors))]
    for factor in f.factors:
        parts.append("---")
        parts.append(serialize_edge_list(factor).rstrip("\n"))
    parts.append("---")
    for v in range(g.n):
        parts.append(f"{v} " + " ".join(str(c) for c in f.coords[v]))
    return "\n".join(parts) + "\n"


def _json_factorization(g: Digraph, f: Factorization) -> str:
    payload = {
        "n": g.n,
        "arcs": [list(a) for a in g.arcs],
        "factors": [
            {"n": factor.n, "arcs": [list(a) for a in factor.arcs]}
            for factor in f.factors
        ],
        "coords": {str(v): list(f.coords[v]) for v in range(g.n)},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _check_product_size(count: int) -> None:
    """Refuse a product of count vertices, more than an edge-list header may declare."""
    if count > MAX_VERTICES:
        raise SizeLimitExceededError(f"product has more than {MAX_VERTICES} vertices")


def _cmd_product(args) -> int:
    factors = [_read_graph(p) for p in args.graphs]
    _check_product_size(math.prod(f.n for f in factors))
    cg = strong_product(factors) if args.kind == "strong" else cartesian_product(factors)
    coord_lines = (f"# coord {v}: {','.join(map(str, c))}\n" for v, c in enumerate(cg.coords))
    _write_output(serialize_edge_list(cg.graph) + "".join(coord_lines), args.output)
    return 0


def _cmd_skeleton(args) -> int:
    g = _read_graph(args.graph)
    result = cartesian_skeleton(g)
    text = serialize_edge_list(result.skeleton)
    if args.witnesses:
        lines = []
        for (u, v), w in result.removed:
            fields = [f"# removed {u} {v} {w.rule}"]
            if w.z is not None:
                fields.append(f"z={w.z}")
            if w.z1 is not None:
                fields.append(f"z1={w.z1}")
            if w.z2 is not None:
                fields.append(f"z2={w.z2}")
            if w.conditions:
                fields.append("conds=" + ",".join(w.conditions))
            lines.append(" ".join(fields))
        if lines:
            text += "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0


def _cmd_factor(args) -> int:
    g = _read_graph(args.graph)
    f = strong_pfd(g) if args.kind == "strong" else cartesian_pfd(g)
    text = _json_factorization(g, f) if args.json else _format_factorization(g, f)
    _write_output(text, args.output)
    return 0


def _cmd_quotient(args) -> int:
    g = _read_graph(args.graph)
    q = quotient(g)
    text = serialize_edge_list(q.quotient)
    text += "".join(f"# mult {i} {m}\n" for i, m in enumerate(q.mult))
    _write_output(text, args.output)
    return 0


def _cmd_iso(args) -> int:
    a = _read_graph(args.a)
    b = _read_graph(args.b)
    if is_isomorphic(a, b):
        print("isomorphic")
        return 0
    print("not isomorphic")
    return 1


def _range_spec(spec: str) -> str:
    """argparse type of `gen --n`: N or LO:HI, ASCII digits, LO <= HI."""
    lo, sep, hi = spec.partition(":")
    hi = hi if sep else lo
    if not (all(s.isascii() and s.isdigit() for s in (lo, hi)) and int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"expected N or LO:HI with LO <= HI, got {spec!r}")
    return spec


def _parse_range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition(":")
    return int(lo), int(hi if sep else lo)


def _cmd_gen(args) -> int:
    n_range = _parse_range(args.n)
    header = f"# gen model={args.model} n={args.n} seed={args.seed}"
    if args.model == "prime":
        g = random_prime_digraph(n_range, args.seed)
    elif args.model == "thin":
        g = random_thin_digraph(n_range, args.seed)
    else:
        # lo**factors bounds the product; the first partial product over the limit stops.
        for count in itertools.accumulate(itertools.repeat(n_range[0], args.factors), operator.mul):
            _check_product_size(count)
        factors = [random_prime_digraph(n_range, args.seed + i) for i in range(args.factors)]
        _check_product_size(math.prod(f.n for f in factors))
        g = strong_product(factors).graph
        header += f" factors={args.factors}"
    _write_output(f"{header}\n{serialize_edge_list(g)}", args.output)
    return 0


def _cmd_oracle_factor(args) -> int:
    g = _read_graph(args.graph)
    f = brute_force_strong_pfd(g, max_vertices=args.max_n)
    _write_output(_format_factorization(g, f), args.output)
    return 0


def _cmd_dot(args) -> int:
    g = _read_graph(args.graph)
    _write_output(export_dot(g), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digraph-pfd",
        description="Prime factor decomposition of digraphs over the strong "
        "and Cartesian products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="product of two or more graphs")
    p.add_argument("--kind", choices=("strong", "cartesian"), default="strong")
    p.add_argument("graphs", nargs="+", metavar="GRAPH")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("skeleton", help="Cartesian skeleton of a thin graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--witnesses", action="store_true", help="append removal ledger")
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("factor", help="prime factor decomposition")
    p.add_argument("graph")
    p.add_argument("--kind", choices=("strong", "cartesian"), default="strong")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("quotient", help="neighborhood-class quotient")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("iso", help="exit 0 iff the two graphs are isomorphic")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("gen", help="seeded fixture generator")
    p.add_argument("--model", choices=("prime", "thin", "product"), required=True)
    p.add_argument(
        "--n", required=True, type=_range_spec, help="vertex count N or range LO:HI"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--factors", type=int, default=2, help="factor count for product")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle-factor", help="brute-force factorization")
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_oracle_factor)

    p = sub.add_parser("dot", help="DOT export")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
