"""Ground-truth exact solvers used to validate algorithms and reductions.

Three entry points, all desk-scale:

* solve_exact: plain subset enumeration, the reference answer.
* solve_pruned: decision by solution size k.  Branches on uncovered
  edges for vertex covers of at most k vertices, then only counts how
  many interchangeable twins outside the cover are taken; refuses above
  its search cap before any assignment call.
* solve_canonical: searches only the canonical solution shapes that a
  reduction's correctness argument establishes (forced vertices, one pick
  per choice group, a few free extras).  Complete only over that space;
  it is never invoked without reduction metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Sequence

from .core import (
    CapacitatedGraph,
    CapExceededError,
    GraphFormatError,
    Orientation,
    StructuralError,
    _augment,
    _content_lines,
    _fold,
    _ints,
    assign_edges,
    normalize_capacities,
    orient_into,
)

DEFAULT_EXACT_CAP = 20
DEFAULT_PRUNED_CAP = 4_000_000

INF = math.inf


@dataclass(frozen=True)
class ChoiceGroups:
    """Canonical solution-space metadata emitted by the reductions.

    ``forced`` must all be selected, exactly one vertex per set in
    ``groups`` is selected, and any subset of ``free`` may be added.
    """

    forced: frozenset[int]
    groups: tuple[frozenset[int], ...]
    free: frozenset[int]

    def validate(self, n: int) -> None:
        pools = [self.forced, *self.groups, self.free]
        seen: set[int] = set()
        for pool in pools:
            for v in pool:
                if not 1 <= v <= n:
                    raise StructuralError(f"vertex {v} outside instance range")
                if v in seen:
                    raise StructuralError(f"vertex {v} appears in two metadata pools")
                seen.add(v)

    def members(self) -> frozenset[int]:
        out = set(self.forced) | set(self.free)
        for grp in self.groups:
            out |= grp
        return frozenset(out)


def parse_choice_groups(text: str) -> ChoiceGroups:
    forced: set[int] = set()
    groups: list[frozenset[int]] = []
    free: set[int] = set()
    for lineno, parts in _content_lines(text):
        ids = _ints(parts[1:], lineno, "vertex id")
        if parts[0] == "forced":
            forced.update(ids)
        elif parts[0] == "group":
            groups.append(frozenset(ids))
        elif parts[0] == "free":
            free.update(ids)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{parts[0]}'")
    return ChoiceGroups(frozenset(forced), tuple(groups), frozenset(free))


def format_choice_groups(meta: ChoiceGroups) -> str:
    out = ["forced " + " ".join(map(str, sorted(meta.forced)))]
    for grp in meta.groups:
        out.append("group " + " ".join(map(str, sorted(grp))))
    out.append("free " + " ".join(map(str, sorted(meta.free))))
    return "\n".join(line.rstrip() for line in out) + "\n"


# ---------------------------------------------------------------------------
# exact enumeration

def solve_exact(g: CapacitatedGraph) -> tuple[int | float, Orientation | None]:
    """Minimum feasible-orientation size with a witnessing certificate.

    Enumerates candidate support sets by cardinality, then lexicographic id
    order, so the first feasible set yields both the optimum and a
    deterministic certificate.  Returns (inf, None) when no feasible
    orientation exists at all.

    Before the assignment call, each set must pass three necessary
    conditions, checked on integer bitmasks: it covers every edge (no
    unselected vertex has an unselected neighbour), its capacities sum to
    at least the edge count, and no selected vertex has more neighbours
    outside the set than its capacity (those edges are forced onto it).
    A set that fails one of them has no feasible assignment, so the first
    set that passes both the checks and the assignment is the one plain
    enumeration would return: the optimum and the certificate are
    unchanged.
    """
    if g.n > DEFAULT_EXACT_CAP:
        raise CapExceededError(f"solve_exact capped at {DEFAULT_EXACT_CAP} vertices, got {g.n}")
    g = normalize_capacities(g)
    caps = g.capacity
    m = len(g.edges)
    candidates = [v for v in g.vertices() if g.deg(v) >= 1 and caps[v] >= 1]
    bit = [1 << v for v in range(g.n + 1)]
    nbr = [0] * (g.n + 1)
    for u, v in g.edges:
        nbr[u] |= bit[v]
        nbr[v] |= bit[u]
    touched = [v for v in g.vertices() if nbr[v]]
    for size in range(0, len(candidates) + 1):
        for sel in combinations(candidates, size):
            if sum(map(caps.__getitem__, sel)) < m:
                continue
            mask = sum(map(bit.__getitem__, sel))
            if any(nbr[v] & ~mask for v in touched if not mask & bit[v]):
                continue  # an edge with no selected endpoint
            if any((nbr[v] & ~mask).bit_count() > caps[v] for v in sel):
                continue  # more forced edges than capacity
            o = assign_edges(g, sel)
            if o is not None:
                return size, o
    return INF, None


# ---------------------------------------------------------------------------
# decision by solution size

def _count_vectors(limits: Sequence[int], total: int):
    """Yield as {i: count > 0} each vector with entry i in 0..limits[i] and
    sum min(total, sum(limits)), depth first on an explicit stack."""
    # (vector so far, next entry i, sum still to place, sum(limits[i:]))
    stack = [({}, 0, min(total, sum(limits)), sum(limits))]
    while stack:
        vector, i, need, left = stack.pop()
        if need == 0:
            yield vector
        elif left >= need:  # else entries i.. cannot place it
            stack.append((vector, i + 1, need, left - limits[i]))
            stack.extend(({**vector, i: c}, i + 1, need - c, left - limits[i]) for c in range(min(limits[i], need), 0, -1))


def _vector_count(limits: Sequence[int], total: int) -> int:
    """How many vectors ``_count_vectors`` yields, by a DP over the entries."""
    total = min(total, sum(limits))
    ways = [1] + [0] * total  # ways[t]: vectors over the entries so far with sum t
    for lim in limits:
        ways = [sum(ways[max(t - lim, 0):t + 1]) for t in range(total + 1)]
    return ways[total]


def _covers(g: CapacitatedGraph, forced: frozenset[int], k: int):
    """Yield once each node of the branching from ``forced`` on the first
    uncovered edge (u, v), u in or u out and N(u) in, over at most k vertices
    of capacity >= 1: a cover C with its twin classes (vertices of capacity
    >= 1 outside C by neighbourhood, by decreasing capacity), others with None."""
    stack = [forced]
    while stack:
        sel = stack.pop()
        edge = next((e for e in g.edges if e[0] not in sel and e[1] not in sel), None)
        if edge is None:
            outside = sorted((v for v in g.vertices() if v not in sel and g.capacity[v]), key=g.neighbors)
            yield sel, [sorted(c, key=lambda v: (-g.capacity[v], v)) for _, c in groupby(outside, g.neighbors)]
            continue
        yield sel, None
        for branch in (sel.union(g.neighbors(edge[0])), sel | {edge[0]}):
            if len(branch) <= k and all(g.capacity[v] for v in branch - sel):
                stack.append(branch)


def solve_pruned(g: CapacitatedGraph, k: int) -> tuple[bool, Orientation | None]:
    """Decide whether a feasible orientation of size <= k exists.

    A solution's heads form a vertex cover of at most k vertices: it holds
    every vertex of degree > k and one cover C from ``_covers``.  Twins
    outside C are interchangeable (a selected one can hand its edges to an
    unselected one of at least its capacity) and feasibility only grows
    with the selection, so one assignment call per count vector of twins,
    highest capacity first, min(k - |C|, all) in total.  Refuses
    (``CapExceededError``) before any such call once the branch nodes and
    the vectors, times m + 1, exceed ``DEFAULT_PRUNED_CAP``.
    """
    g = normalize_capacities(g)
    k = min(k, sum(1 for v in g.vertices() if g.capacity[v]))  # no support is larger
    forced = frozenset(v for v in g.vertices() if g.deg(v) > k)
    if len(forced) > k or not all(g.capacity[v] for v in forced):
        return False, None
    unit = len(g.edges) + 1
    work = 0
    for cover, twins in _covers(g, forced, k):
        work += 1 if twins is None else 1 + _vector_count([len(c) for c in twins], k - len(cover))
        if work * unit > DEFAULT_PRUNED_CAP:
            raise CapExceededError(f"pruned search above {DEFAULT_PRUNED_CAP}: {work}+ branch nodes and count vectors")
    for cover, twins in _covers(g, forced, k):
        if twins is None:
            continue
        for counts in _count_vectors([len(c) for c in twins], k - len(cover)):
            o = assign_edges(g, cover.union(*(twins[i][:c] for i, c in counts.items())))
            if o is not None:
                return True, o
    return False, None


# ---------------------------------------------------------------------------
# canonical-space search

def solve_canonical(
    g: CapacitatedGraph, meta: ChoiceGroups, k: int
) -> tuple[bool, Orientation | None]:
    """Decide feasibility within the canonical space described by ``meta``.

    Yes iff selecting all forced vertices, exactly one member per group,
    and some subset of the free pool -- at most k vertices in total --
    admits a capacity-respecting edge assignment.  Complete only over
    that space; reductions pair it with the structural argument that all
    solutions have this shape.

    Subtrees of the group-choice search are pruned through the superset
    relaxation: feasibility is monotone in the selected set, so if even
    "everything still open" fails, no completion can succeed.  Refuses
    (``CapExceededError``) before any assignment call when the free
    subsets one leaf checks, times m + 1, exceed ``DEFAULT_PRUNED_CAP``.
    """
    meta.validate(g.n)
    g = normalize_capacities(g)
    if len(meta.forced) + len(meta.groups) > k:
        return False, None

    # Edges leaving the metadata pools can only point at their pool end,
    # so they are charged to it once; every search step then works on
    # the edges inside the pools and the capacities left over.
    folded = _fold(g.edges, g.capacity, meta.members())
    if folded is None:
        return False, None
    core_edges, room = folded
    residual = list(g.capacity)
    for v, r in room.items():
        residual[v] = r
    required = {v for v, r in room.items() if r < g.capacity[v]}

    groups: list[list[int]] = []
    for grp in meta.groups:
        must = sorted(grp & required)
        if len(must) > 1:
            return False, None
        groups.append(must if must else sorted(grp))

    free_required = sorted(set(meta.free) & required)
    free_optional = sorted(set(meta.free) - required)
    budget_left = k - len(meta.forced) - len(meta.groups) - len(free_required)
    if budget_left < 0:
        return False, None

    # Every required vertex is in ``base`` or is the only member left in
    # its group, so each selection below contains all charged vertices.
    base = frozenset(meta.forced) | frozenset(free_required)

    def feasible(selection: frozenset[int]) -> bool:
        folded = _fold(core_edges, residual, selection)
        return folded is not None and _augment(*folded) is not None

    # feasibility is monotone in the selection, so only maximal
    # affordable free subsets need checking
    take = min(budget_left, len(free_optional))
    subsets = math.comb(len(free_optional), take)
    if subsets * (len(g.edges) + 1) > DEFAULT_PRUNED_CAP:
        raise CapExceededError(f"canonical search above {DEFAULT_PRUNED_CAP}: {subsets} free subsets of size {take}")

    # Depth-first over one member per group, first member first, with an
    # explicit stack so that the depth is not bounded by the group count.
    # The stack holds (depth, member picked in group depth - 1); ``path``
    # holds the members picked above the popped node, so memory is linear
    # in the groups.
    found = None
    path: list[int] = []
    stack = [(0, None)]
    while stack and found is None:
        depth, member = stack.pop()
        del path[max(depth - 1, 0):]
        if depth:
            path.append(member)
        chosen = base.union(path)
        # everything a selection may still gain from this depth on
        if not feasible(chosen.union(free_optional, *groups[depth:])):
            continue
        if depth < len(groups):
            stack.extend((depth + 1, member) for member in reversed(groups[depth]))
        else:
            for combo in combinations(free_optional, take):
                if feasible(chosen.union(combo)):
                    found = chosen.union(combo)
                    break
    if found is None:
        return False, None
    heads = orient_into(g.edges, g.capacity, found)
    if heads is None:  # cannot happen: core feasibility implies full feasibility
        raise AssertionError("canonical selection lost feasibility on the full graph")
    return True, Orientation(heads)
