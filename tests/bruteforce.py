"""Independent brute-force oracles used to validate the package solvers.

Everything here enumerates raw solution spaces directly (orientations,
subfamilies, assignments) and never calls the code paths under test.
"""

from itertools import product

from cvckit.core import CapacitatedGraph, Orientation


def all_orientations(g: CapacitatedGraph):
    """Yield every orientation of g as an edge -> head dict (2^m of them)."""
    m = len(g.edges)
    for mask in range(1 << m):
        heads = {}
        for i, (u, v) in enumerate(g.edges):
            heads[(u, v)] = v if (mask >> i) & 1 else u
        yield heads


def brute_min_orientation(g: CapacitatedGraph):
    """Minimum feasible-orientation size by raw enumeration (m <= ~14)."""
    best = None
    best_heads = None
    for heads in all_orientations(g):
        indeg = [0] * (g.n + 1)
        for h in heads.values():
            indeg[h] += 1
        if any(indeg[v] > g.capacity[v] for v in range(1, g.n + 1)):
            continue
        size = sum(1 for v in range(1, g.n + 1) if indeg[v] > 0)
        if best is None or size < best:
            best, best_heads = size, heads
    if best is None:
        return float("inf"), None
    return best, Orientation(best_heads)


def brute_assignable(g: CapacitatedGraph, selected):
    """True iff some orientation has indeg 0 outside `selected` and respects
    capacities (raw enumeration, independent of the flow check)."""
    sel = set(selected)
    for heads in all_orientations(g):
        indeg = [0] * (g.n + 1)
        for h in heads.values():
            indeg[h] += 1
        if any(indeg[v] > 0 for v in range(1, g.n + 1) if v not in sel):
            continue
        if any(indeg[v] > g.capacity[v] for v in sel):
            continue
        return True
    return False


def brute_smc(universe_size, sets, demand, budget):
    """Set multicover decision by enumerating all subfamilies."""
    n = len(sets)
    for mask in range(1 << n):
        if bin(mask).count("1") > budget:
            continue
        cover = [0] * (universe_size + 1)
        for j in range(n):
            if (mask >> j) & 1:
                for x in sets[j]:
                    cover[x] += 1
        if all(cover[x] >= demand for x in range(1, universe_size + 1)):
            return True
    return False


def brute_one_in_three(n_vars, clauses):
    """Exactly-one satisfiability over all 2^n assignments.

    Clauses are triples of (variable, positive) pairs.
    """
    for bits in product((False, True), repeat=n_vars):
        ok = True
        for clause in clauses:
            true_count = sum(1 for var, positive in clause if bits[var - 1] == positive)
            if true_count != 1:
                ok = False
                break
        if ok:
            return True
    return False


def brute_multicolored_clique(k, n, cross_edges):
    """Multicolored clique with implicit self-adjacency.

    Vertices are (class, index); cross_edges is a set of frozensets of two
    such pairs.  Needs one pick per class, pairwise adjacent.
    """
    for picks in product(range(1, n + 1), repeat=k):
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                e = frozenset(((i + 1, picks[i]), (j + 1, picks[j])))
                if e not in cross_edges:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_forest_min(g: CapacitatedGraph, preload):
    """Minimum orientation size of a forest instance with committed in-degrees."""
    if any(preload[v] > g.capacity[v] for v in range(1, g.n + 1)):
        return float("inf")
    best = float("inf")
    for heads in all_orientations(g):
        indeg = list(preload)
        for h in heads.values():
            indeg[h] += 1
        if any(indeg[v] > g.capacity[v] for v in range(1, g.n + 1)):
            continue
        size = sum(1 for v in range(1, g.n + 1) if indeg[v] > 0)
        best = min(best, size)
    return best


def forest_dp_exhaustive(g: CapacitatedGraph):
    """Tree DP that picks inward child subsets by raw enumeration at every
    vertex, as an independent check of the sorted-prefix rule."""
    from itertools import combinations
    import math

    n = g.n
    adj = [[] for _ in range(n + 1)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * (n + 1)
    total = 0.0

    def solve(root):
        order = []
        parent = {root: 0}
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in sorted(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    stack.append(w)
        kids = {v: [w for w in adj[v] if parent.get(w) == v] for v in order}
        f = {}
        for v in reversed(order):
            for pin in (0, 1):
                best = math.inf
                ch = kids[v]
                for t in range(len(ch) + 1):
                    if t + pin > g.capacity[v]:
                        continue
                    for taken in combinations(ch, t):
                        cost = 1 if t + pin > 0 else 0
                        for c in ch:
                            cost += f[(c, 0)] if c in taken else f[(c, 1)]
                        best = min(best, cost)
                f[(v, pin)] = best
        return f[(root, 0)]

    for r in range(1, n + 1):
        if not seen[r]:
            total += solve(r)
    return total


def brute_cutwidth(g: CapacitatedGraph):
    """Cutwidth by a subset DP: the best order of a set S ends in some v of
    S, so best[S] = max(cut(S), min over v of best[S - v]) (n <= ~15)."""
    best = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        cut = sum(1 for u, v in g.edges if (mask >> (u - 1) & 1) != (mask >> (v - 1) & 1))
        best[mask] = max(cut, min(best[mask ^ (1 << i)] for i in range(g.n) if mask >> i & 1))
    return best[-1]
