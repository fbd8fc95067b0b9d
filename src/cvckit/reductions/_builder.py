"""The vertex ids, pendant pins and capacities every construction shares.

Each vertex carries a demand: how many of its edges it must push onto a
neighbour.  Its capacity is deg(v) - demand, floored at 0, with degrees
counted once the edge list is complete.  A marked vertex is pinned by more
pendant leaves than the budget, so every solution within budget selects
it; a leaf of demand 0 has capacity 1, a leaf of demand 1 capacity 0.
"""

from __future__ import annotations

from itertools import islice, repeat, starmap
from operator import itemgetter, lt

from ..core import CapacitatedGraph, StructuralError


class Builder:
    def __init__(self):
        self.edges: list[tuple[int, int]] = []  # canonical (min, max) pairs
        self.demand: list[int] = [0]  # index 0 unused, demand[v] for v = 1, 2, ...

    def vertex(self, demand: int = 0) -> int:
        """A new vertex; ids are 1, 2, ... in call order."""
        self.demand.append(demand)
        return len(self.demand) - 1

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v) if u < v else (v, u))

    def pin(self, v: int, count: int, demand: int = 0) -> range:
        """Hang ``count`` new pendant leaves on v; returns their ids."""
        leaves = range(len(self.demand), len(self.demand) + count)
        self.demand.extend([demand] * count)
        self.edges.extend(zip(repeat(v), leaves))  # leaves get later ids, so the pairs are canonical
        return leaves

    def graph(self, budget: int) -> CapacitatedGraph:
        """The graph built so far.  Its edges are sorted once and checked in
        bulk; a loop, a repeated edge or an id outside 1..n is a
        ``StructuralError``.  Capacities are floored at 0 and never exceed
        the degree, so the graph is built without further checks."""
        n = len(self.demand) - 1
        edges = sorted(self.edges)
        if edges and (edges[0][0] < 1 or max(map(itemgetter(1), edges)) > n):
            raise StructuralError(f"edge outside the vertex ids 1..{n}")
        if not all(starmap(lt, edges)):
            raise StructuralError("loop in a built graph")
        if not all(map(lt, edges, islice(edges, 1, None))):
            raise StructuralError("repeated edge in a built graph")
        deg = [0] * (n + 1)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        caps = tuple([d - dem if d > dem else 0 for d, dem in zip(deg, self.demand)])
        return CapacitatedGraph._trusted(n, tuple(edges), caps, budget)
