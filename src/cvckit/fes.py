"""Feedback-edge-set solver: guess the non-forest arcs, then solve each tree.

Removing a feedback edge set leaves a spanning forest.  Each of the 2^fes
head assignments for the removed edges turns into per-vertex preloads on
the forest, and the remaining problem decomposes into one rooted-tree DP
per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from .core import (
    CapacitatedGraph,
    CapExceededError,
    Edge,
    Orientation,
    normalize_capacities,
)

DEFAULT_FES_CAP = 22
INF = math.inf


def feedback_edge_set(g: CapacitatedGraph) -> tuple[Edge, ...]:
    """Edges outside a deterministic spanning forest (id-ordered union-find)."""
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    extra = []
    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            extra.append((u, v))
        else:
            parent[max(ru, rv)] = min(ru, rv)
    return tuple(extra)


@dataclass(frozen=True)
class ForestInstance:
    """A forest plus arcs already committed by the feedback-edge guess."""

    graph: CapacitatedGraph  # capacities of the full instance
    forest_edges: tuple[Edge, ...]
    forced_arcs: tuple[tuple[Edge, int], ...]  # (non-forest edge, head)

    def __post_init__(self):
        forest = set(self.forest_edges)
        forced = {e for e, _ in self.forced_arcs}
        if forest | forced != self.graph.edge_set or forest & forced:
            raise ValueError("forest edges and forced arcs must partition E")

    def preload(self) -> list[int]:
        p = [0] * (self.graph.n + 1)
        for _, head in self.forced_arcs:
            p[head] += 1
        return p


def _root_forest(n: int, forest_edges) -> tuple[list[int], list[int], list[list[int]], list[int]]:
    """Root every component at its smallest id and walk it depth-first.

    Neighbours are pushed in sorted order.  Returns ``(roots, parent,
    children, order)``: ``parent[root]`` is 0 and ``order`` lists every
    vertex after its parent, so ``reversed(order)`` is leaf to root.
    """
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in forest_edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [0] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    seen = [False] * (n + 1)
    roots = []
    order = []
    for root in range(1, n + 1):
        if seen[root]:
            continue
        roots.append(root)
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in sorted(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    children[v].append(w)
                    stack.append(w)
    return roots, parent, children, order


_DEAD = ((INF, 0), (INF, 0), (), ())  # a child subtree that fits neither way


def _vertex_values(room: int, loaded: bool, kids: list[int], f) -> tuple[tuple, tuple, list, list]:
    """Tree DP at one vertex, for its parent arc outward (pin 0) and inward (pin 1).

    ``room`` is cap(v) - preload(v), ``loaded`` says whether preload(v) > 0,
    and ``f[c]`` holds each child's (cost with its parent arc outward, cost
    with it inward).  Returns ``(cost, taken)`` per pin, then the forced
    children and the flippable ones as (cost delta, child) sorted by delta.
    The best set of inward child edges for a pin is the forced ones plus
    the first ``taken`` flippable ones: flipping a child edge inward changes
    the subtree cost by f(child, outward) - f(child, inward), and for a
    fixed count the smallest deltas are optimal by exchange.
    """
    base = 0
    forced: list[int] = []  # child edge must point toward v
    flippable: list[tuple[int, int]] = []  # (cost delta when flipped inward, child)
    for c in kids:
        up, down = f[c]  # up: edge toward v (child pin 0); down: edge into child
        if down == INF:
            if up == INF:
                return _DEAD
            forced.append(c)
            base += up
        else:  # pin 1 has one unit less room than pin 0, so up is finite here too
            base += down
            flippable.append((up - down, c))
    flippable.sort()
    out = []
    for pin in (0, 1):
        free = room - pin - len(forced)
        if free < 0:
            out.append((INF, 0))
            continue
        occupied = loaded or pin + len(forced) > 0
        best: int | float = INF
        best_extra = 0
        running = base
        for extra in range(min(len(flippable), free) + 1):
            if extra > 0:
                running += flippable[extra - 1][0]
            total = running + (1 if occupied or extra > 0 else 0)
            if total < best:
                best, best_extra = total, extra
        out.append((best, best_extra))
    return out[0], out[1], forced, flippable


def forest_dp(fi: ForestInstance) -> tuple[int | float, Orientation | None]:
    """Exact minimum orientation size of a forest instance.

    Trees are rooted at the smallest id per component and evaluated leaf to
    root.  At each vertex the state is whether the parent edge points in;
    ``_vertex_values`` picks the inward child edges by the sorted-prefix rule.
    A preload above a capacity needs no check of its own: it leaves that
    vertex no room on either pin, so its root's total is infinite.
    """
    g = fi.graph
    n = g.n
    preload = fi.preload()
    cap = g.capacity
    roots, _, children, order = _root_forest(n, fi.forest_edges)
    # f[v] = (cost with parent arc outward, cost with parent arc inward)
    f: list[tuple[int | float, int | float]] = [(0, 0)] * (n + 1)

    def values(v: int) -> tuple[tuple, tuple, list, list]:
        return _vertex_values(cap[v] - preload[v], preload[v] > 0, children[v], f)

    for v in reversed(order):
        (out_cost, _), (in_cost, _), _, _ = values(v)
        f[v] = (out_cost, in_cost)

    total = sum(f[r][0] for r in roots)
    if math.isinf(total):
        return INF, None

    heads = {e: head for e, head in fi.forced_arcs}
    for r in roots:
        stack = [(r, 0)]
        while stack:
            v, pin = stack.pop()
            # f is final, so this repeats the bottom-up pass's picks at v
            *per_pin, forced, flippable = values(v)
            inward = {*forced, *(c for _, c in flippable[: per_pin[pin][1]])}
            for c in children[v]:
                e = (v, c) if v < c else (c, v)
                if c in inward:
                    heads[e] = v
                    stack.append((c, 0))
                else:
                    heads[e] = c
                    stack.append((c, 1))
    return int(total), Orientation(heads)


def solve_fes(
    g: CapacitatedGraph, *, fes_cap: int = DEFAULT_FES_CAP
) -> tuple[int | float, Orientation | None]:
    """Minimum orientation size via depth-first guesses over the non-forest arcs.

    The spanning forest is rooted once.  Each guess turns one non-forest
    edge into a preload on its head (``u`` before ``v``; a preload above
    the head's capacity kills the branch).  The tree DP values
    ``f[v] = (cost with parent arc outward, cost with it inward)`` are
    kept for the current partial preload: a new preload recomputes ``f``
    only from its head up toward the root, stopping at the first value
    that does not change, and backtracking restores the old values.

    Every node of the guess tree is pruned when ``Σ f[root][0] ≥ best``.
    That sum is the forest optimum under the partial preload, and it is a
    lower bound for every leaf below: the remaining guesses only add
    preload, and an orientation valid under a larger preload is valid
    under a smaller one with a subset of the occupied vertices.  A leaf
    that survives the prune improves on ``best`` and records its arcs.
    The first leaf in guess order that reaches the optimum is always
    visited and never replaced, so one ``forest_dp`` call on its arcs,
    after the search, builds the certificate that evaluating every leaf
    in order would keep.
    """
    g = normalize_capacities(g)
    extra = feedback_edge_set(g)
    if len(extra) > fes_cap:
        raise CapExceededError(f"feedback edge set {len(extra)} above cap {fes_cap}")
    extra_set = set(extra)
    forest = tuple(e for e in g.edges if e not in extra_set)
    cap = g.capacity
    roots, parent, children, order = _root_forest(g.n, forest)

    preload = [0] * (g.n + 1)
    f: list[tuple[int | float, int | float]] = [(0, 0)] * (g.n + 1)
    undo: list[tuple[int, tuple[int | float, int | float]]] = []

    def evaluate(v: int) -> tuple[int | float, int | float]:
        (out_cost, _), (in_cost, _), _, _ = _vertex_values(
            cap[v] - preload[v], preload[v] > 0, children[v], f
        )
        return out_cost, in_cost

    for v in reversed(order):
        f[v] = evaluate(v)

    def add_preload(head: int, bound: int | float) -> int | float:
        """Preload ``head`` once, update its root path, return the new bound."""
        preload[head] += 1
        v = head
        while v:
            new = evaluate(v)
            old = f[v]
            if new == old:
                break
            undo.append((v, old))
            f[v] = new
            if not parent[v]:
                bound += new[0] - old[0]
            v = parent[v]
        return bound

    def remove_preload(head: int, mark: int) -> None:
        while len(undo) > mark:
            v, old = undo.pop()
            f[v] = old
        preload[head] -= 1

    best: int | float = INF
    best_arcs: tuple[tuple[Edge, int], ...] = ()

    def rec(i: int, chosen: list[int], bound: int | float):
        nonlocal best, best_arcs
        if bound >= best:
            return
        if i == len(extra):
            best, best_arcs = bound, tuple(zip(extra, chosen))
            return
        u, v = extra[i]
        for head in (u, v):
            if preload[head] + 1 <= cap[head]:
                mark = len(undo)
                chosen.append(head)
                rec(i + 1, chosen, add_preload(head, bound))
                chosen.pop()
                remove_preload(head, mark)

    rec(0, [], sum(f[r][0] for r in roots))
    if best == INF:
        return INF, None
    return forest_dp(ForestInstance(g, forest, best_arcs))
