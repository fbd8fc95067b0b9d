"""Answer checker for the benchmark, written apart from cvckit.

Nothing here imports cvckit.  Instance and certificate files are parsed
with the small readers below, optima come from a 0/1 program solved by
``scipy.optimize.milp``, and decision answers come from brute force on the
source problem (exactly-one-in-three SAT, multicolored clique, set
multicover).  scipy is imported only when an optimum is asked for, so the
input builder can use the brute-force helpers without paying for it.
"""

from __future__ import annotations

from itertools import combinations, product


class CheckError(ValueError):
    """A file the checker reads is malformed."""


def _records(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            yield line


# ---------------------------------------------------------------------------
# capacitated instances and orientation certificates


def read_instance(text: str) -> tuple[int, list[tuple[int, int]], list[int], int | None]:
    """``cvc n m [k]`` / ``v id cap`` / ``e u v`` -> (n, edges, caps, budget).

    Edges come back as sorted (u, v) pairs with u < v; caps[0] is unused.
    """
    rows = list(_records(text))
    if not rows or rows[0][0] != "cvc" or len(rows[0]) not in (3, 4):
        raise CheckError("missing 'cvc n m [k]' header")
    n, m = int(rows[0][1]), int(rows[0][2])
    budget = int(rows[0][3]) if len(rows[0]) == 4 else None
    caps: list[int | None] = [0] + [None] * n
    edges = set()
    for row in rows[1:]:
        if row[0] == "v" and len(row) == 3:
            v, c = int(row[1]), int(row[2])
            if not 1 <= v <= n or caps[v] is not None or c < 0:
                raise CheckError(f"bad vertex line {row}")
            caps[v] = c
        elif row[0] == "e" and len(row) == 3:
            u, v = sorted((int(row[1]), int(row[2])))
            if not 1 <= u < v <= n or (u, v) in edges:
                raise CheckError(f"bad edge line {row}")
            edges.add((u, v))
        else:
            raise CheckError(f"unknown record {row}")
    if any(c is None for c in caps[1:]) or len(edges) != m:
        raise CheckError("vertex or edge count does not match the header")
    return n, sorted(edges), caps, budget


def read_arcs(text: str) -> list[tuple[int, int]]:
    """``a tail head`` lines -> [(tail, head), ...]."""
    arcs = []
    for row in _records(text):
        if row[0] != "a" or len(row) != 3:
            raise CheckError(f"bad arc line {row}")
        arcs.append((int(row[1]), int(row[2])))
    return arcs


def orientation_size(
    n: int, edges: list[tuple[int, int]], caps: list[int], arcs: list[tuple[int, int]]
) -> tuple[int | None, str]:
    """Size of a valid certificate, or (None, reason).

    Valid means: every instance edge appears exactly once, each arc's head
    is an endpoint of its edge, and no in-degree exceeds the capacity.  The
    size is the number of distinct heads.
    """
    edge_set = set(edges)
    seen = set()
    indeg = [0] * (n + 1)
    for tail, head in arcs:
        e = (min(tail, head), max(tail, head))
        if e not in edge_set:
            return None, f"arc ({tail},{head}) is not an instance edge"
        if e in seen:
            return None, f"edge {e} oriented twice"
        seen.add(e)
        indeg[head] += 1
    if len(seen) != len(edge_set):
        return None, f"{len(edge_set) - len(seen)} edges missing"
    over = [v for v in range(1, n + 1) if indeg[v] > caps[v]]
    if over:
        return None, f"vertex {over[0]} takes {indeg[over[0]]} > capacity {caps[over[0]]}"
    return sum(1 for v in range(1, n + 1) if indeg[v] > 0), "ok"


def min_orientation_milp(n: int, edges: list[tuple[int, int]], caps: list[int]) -> int | None:
    """Minimum number of heads over capacity-respecting orientations, or
    None when none exists.

    Variables: x_e = 1 orients e = (u, v) toward v, 0 toward u; y_w = 1 lets
    w take edges.  For every w: indeg(w) <= cap(w) * y_w.  Minimize sum y.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    m = len(edges)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for i, (u, v) in enumerate(edges):
        rows += [v - 1, u - 1]
        cols += [i, i]
        vals += [1.0, -1.0]
        rhs[u - 1] -= 1.0  # edge i lands on u when x_i = 0
    for w in range(1, n + 1):
        rows.append(w - 1)
        cols.append(m + w - 1)
        vals.append(-float(caps[w]))
    a = coo_matrix((vals, (rows, cols)), shape=(n, m + n)).tocsr()
    cost = np.concatenate([np.zeros(m), np.ones(n)])
    res = milp(
        cost,
        constraints=LinearConstraint(a, -np.inf, rhs),
        integrality=np.ones(m + n),
        bounds=Bounds(0, 1),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"milp did not finish: {res.message}")
    return int(round(res.fun))


# ---------------------------------------------------------------------------
# source problems


def read_cnf(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """``p cnf n m`` then one ``a b c 0`` line per clause (signed literals)."""
    num_vars = None
    clauses = []
    for row in _records(text):
        if row[0] == "c":
            continue
        if row[0] == "p":
            num_vars = int(row[2])
            continue
        lits = [int(x) for x in row if x != "0"]
        if len(lits) != 3:
            raise CheckError(f"clause {row} does not have three literals")
        clauses.append(tuple(lits))
    if num_vars is None:
        raise CheckError("missing 'p cnf' header")
    return num_vars, clauses


def one_in_three(num_vars: int, clauses) -> bool:
    """Some assignment makes exactly one literal true in every clause."""
    for bits in product((False, True), repeat=num_vars):
        if all(
            sum(1 for lit in clause if bits[abs(lit) - 1] == (lit > 0)) == 1
            for clause in clauses
        ):
            return True
    return False


def read_smc(text: str) -> tuple[int, list[set[int]], int, int]:
    """``smc m n b k`` then ``set j elems...`` -> (universe, sets, demand, budget)."""
    header = None
    sets: dict[int, set[int]] = {}
    for row in _records(text):
        if row[0] == "smc":
            header = tuple(int(x) for x in row[1:])
        elif row[0] == "set":
            sets[int(row[1])] = {int(x) for x in row[2:]}
    if header is None:
        raise CheckError("missing smc header")
    m, n, b, k = header
    return m, [sets[j] for j in range(1, n + 1)], b, k


def set_multicover(universe: int, sets, demand: int, budget: int) -> bool:
    """At most ``budget`` sets cover every element at least ``demand`` times."""
    for r in range(min(budget, len(sets)) + 1):
        for pick in combinations(sets, r):
            if all(sum(1 for s in pick if x in s) >= demand for x in range(1, universe + 1)):
                return True
    return False


def read_mcc(text: str) -> tuple[int, list[list[int]], set[frozenset[int]]]:
    """``mcc k n`` / ``class i ids...`` / ``e u v`` -> (k, classes, edges)."""
    k = None
    classes: dict[int, list[int]] = {}
    edges = set()
    for row in _records(text):
        if row[0] == "mcc":
            k = int(row[1])
        elif row[0] == "class":
            classes[int(row[1])] = [int(x) for x in row[2:]]
        elif row[0] == "e":
            edges.add(frozenset((int(row[1]), int(row[2]))))
    if k is None:
        raise CheckError("missing mcc header")
    return k, [classes[i] for i in range(1, k + 1)], edges


def multicolored_clique(classes, edges) -> bool:
    """One vertex per class, every chosen pair adjacent."""
    for pick in product(*classes):
        if all(frozenset(pair) in edges for pair in combinations(pick, 2)):
            return True
    return False
