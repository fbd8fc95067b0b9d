"""The vertex ids, pendant pins and capacities every construction shares.

Each vertex carries a demand: how many of its edges it must push onto a
neighbour.  Its capacity is deg(v) - demand, floored at 0, with degrees
counted once the edge list is complete.  A marked vertex is pinned by more
pendant leaves than the budget, so every solution within budget selects
it; a leaf of demand 0 has capacity 1, a leaf of demand 1 capacity 0.
"""

from __future__ import annotations

from ..core import CapacitatedGraph


class Builder:
    def __init__(self):
        self.edges: list[tuple[int, int]] = []
        self.demand: list[int] = [0]  # index 0 unused, demand[v] for v = 1, 2, ...

    def vertex(self, demand: int = 0) -> int:
        """A new vertex; ids are 1, 2, ... in call order."""
        self.demand.append(demand)
        return len(self.demand) - 1

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def pin(self, v: int, count: int, demand: int = 0) -> range:
        """Hang ``count`` new pendant leaves on v; returns their ids."""
        leaves = range(len(self.demand), len(self.demand) + count)
        self.demand.extend([demand] * count)
        self.edges.extend((v, leaf) for leaf in leaves)
        return leaves

    def graph(self, budget: int) -> CapacitatedGraph:
        deg = [0] * len(self.demand)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        caps = [d - dem if d > dem else 0 for d, dem in zip(deg, self.demand)]
        return CapacitatedGraph.build(len(caps) - 1, self.edges, caps, budget=budget)
