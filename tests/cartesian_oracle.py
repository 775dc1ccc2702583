"""Brute-force Cartesian factorizer: ground truth for cartesian_pfd.

It shares no code with cartesian_pfd.  Like the strong splitter in
digraph_pfd.oracle, it places vertices in BFS order on an a x b grid,
introduces rows and columns in canonical order, and deduces the arc
variables of the two candidate factors as it goes.  A Cartesian product
leaves two vertices that differ in both coordinates non-adjacent, so every
placement either fixes a factor arc or fails at once.
"""

from digraph_pfd import Digraph
from digraph_pfd.oracle import _bfs_order


def split_cartesian(g, a, b):
    """Coordinates (row, col) realizing g as A box B with |A| = a and
    |B| = b, or None."""
    n = g.n
    order = _bfs_order(g)
    pos = {}
    grid = set()
    row_count = [0] * a
    col_count = [0] * b
    arc_a = {}
    arc_b = {}

    def fix(arcs, pair, val, trail):
        known = arcs.get(pair)
        if known is not None:
            return known == val
        arcs[pair] = val
        trail.append((arcs, pair))
        return True

    def try_place(v, x, y, trail):
        for u, (ux, uy) in pos.items():
            fwd, bwd = (u, v) in g.arc_set, (v, u) in g.arc_set
            if ux == x:
                ok = fix(arc_b, (uy, y), fwd, trail) and fix(arc_b, (y, uy), bwd, trail)
            elif uy == y:
                ok = fix(arc_a, (ux, x), fwd, trail) and fix(arc_a, (x, ux), bwd, trail)
            else:
                ok = not (fwd or bwd)
            if not ok:
                return False
        return True

    def place(k, rows_used, cols_used):
        if k == n:
            return True
        v = order[k]
        xs = [x for x in range(rows_used) if row_count[x] < b]
        if rows_used < a:
            xs.append(rows_used)
        ys = [y for y in range(cols_used) if col_count[y] < a]
        if cols_used < b:
            ys.append(cols_used)
        for x in xs:
            for y in ys:
                if (x, y) in grid:
                    continue
                trail = []
                if try_place(v, x, y, trail):
                    pos[v] = (x, y)
                    grid.add((x, y))
                    row_count[x] += 1
                    col_count[y] += 1
                    if place(k + 1, max(rows_used, x + 1), max(cols_used, y + 1)):
                        return True
                    del pos[v]
                    grid.discard((x, y))
                    row_count[x] -= 1
                    col_count[y] -= 1
                for arcs, pair in trail:
                    del arcs[pair]
        return False

    if not place(0, 0, 0):
        return None
    return [pos[v][0] for v in range(n)], [pos[v][1] for v in range(n)]


def brute_force_cartesian_factors(g):
    """Prime factors of a connected digraph over the Cartesian product, by
    exhaustive splitting; a split with the smaller side first covers every
    factorization, since A box B and B box A are isomorphic."""
    n = g.n
    for a in range(2, n + 1):
        if a * a > n:
            break
        if n % a:
            continue
        found = split_cartesian(g, a, n // a)
        if found is None:
            continue
        row, col = found
        arcs_a = {(row[u], row[v]) for u, v in g.arcs if col[u] == col[v]}
        arcs_b = {(col[u], col[v]) for u, v in g.arcs if row[u] == row[v]}
        return brute_force_cartesian_factors(
            Digraph(a, arcs_a)
        ) + brute_force_cartesian_factors(Digraph(n // a, arcs_b))
    return [g]
