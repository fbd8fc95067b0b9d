"""Ground-truth exact solvers used to validate algorithms and reductions.

Three entry points, all desk-scale:

* solve_exact: plain subset enumeration, the reference answer.
* solve_pruned: decision variant with two sound pendant-leaf rules, so
  instances carrying huge leaf bundles (the reduction outputs) stay
  searchable.
* solve_canonical: searches only the canonical solution shapes that a
  reduction's correctness argument establishes (forced vertices, one pick
  per choice group, a few free extras).  Complete only over that space;
  it is never invoked without reduction metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import (
    CapacitatedGraph,
    CapExceededError,
    GraphFormatError,
    Orientation,
    StructuralError,
    _content_lines,
    _fold,
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
        try:
            ids = [int(x) for x in parts[1:]]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from None
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

def solve_exact(
    g: CapacitatedGraph, *, max_vertices: int = DEFAULT_EXACT_CAP
) -> tuple[int | float, Orientation | None]:
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
    if g.n > max_vertices:
        raise CapExceededError(f"solve_exact capped at {max_vertices} vertices, got {g.n}")
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
# pruned decision procedure

def _pendant_leaves(g: CapacitatedGraph) -> dict[int, list[int]]:
    """Map each vertex to its pendant-leaf neighbors (deg-1, attached to a
    vertex of degree >= 2)."""
    out: dict[int, list[int]] = {}
    for v in g.vertices():
        if g.deg(v) == 1:
            w = g.neighbors(v)[0]
            if g.deg(w) >= 2:
                out.setdefault(w, []).append(v)
    for leaves in out.values():
        leaves.sort()
    return out


def _count_vectors(limits: Sequence[int], total: int):
    """Yield count tuples with entry i in [0, limits[i]] and sum <= total,
    in lexicographic order (all zeros first)."""
    if not limits:
        yield ()
        return
    head = limits[0]
    for c in range(0, min(head, total) + 1):
        for rest in _count_vectors(limits[1:], total - c):
            yield (c,) + rest


def solve_pruned(
    g: CapacitatedGraph, k: int, *, search_cap: int = DEFAULT_PRUNED_CAP
) -> tuple[bool, Orientation | None]:
    """Decide whether a feasible orientation of size <= k exists.

    Two sound rules shrink the search before enumeration: a vertex with
    more than k pendant leaves must be selected (omitting it forces all
    those leaves in), and pendant leaves hanging off the same vertex are
    interchangeable, so only how many get selected per star matters.
    """
    if k < 0:
        return False, None
    g = normalize_capacities(g)
    stars = _pendant_leaves(g)
    leaf_ids = {leaf for leaves in stars.values() for leaf in leaves}

    forced = sorted(v for v, leaves in stars.items() if len(leaves) > k)
    if len(forced) > k:
        return False, None
    forced_set = set(forced)

    optional = [
        v
        for v in g.vertices()
        if v not in leaf_ids
        and v not in forced_set
        and g.deg(v) >= 1
        and g.capacity[v] >= 1
    ]
    usable = {v: [leaf for leaf in leaves if g.capacity[leaf] >= 1] for v, leaves in stars.items()}
    zero_leaves = {v: sum(1 for leaf in leaves if g.capacity[leaf] == 0) for v, leaves in stars.items()}

    space = 2 ** len(optional)
    for v in stars:
        space *= min(len(usable[v]), k) + 1
        if space > search_cap:
            raise CapExceededError(f"pruned search space above {search_cap}")
    if space > search_cap:
        raise CapExceededError(f"pruned search space above {search_cap}")

    star_vertices = sorted(stars)
    for size in range(0, min(len(optional), k - len(forced)) + 1):
        for extra in combinations(optional, size):
            core = forced_set | set(extra)
            mandatory: list[int] = []
            ok = True
            for v in star_vertices:
                if v in core:
                    continue
                if zero_leaves[v] or len(usable[v]) < len(stars[v]):
                    ok = False  # an unselected star vertex strands a cap-0 leaf edge
                    break
                mandatory.extend(usable[v])
            if not ok:
                continue
            base = len(core) + len(mandatory)
            if base > k:
                continue
            open_stars = [v for v in star_vertices if v in core and usable[v]]
            limits = [min(len(usable[v]), k - base) for v in open_stars]
            for counts in _count_vectors(limits, k - base):
                chosen = set(core) | set(mandatory)
                for v, cnt in zip(open_stars, counts):
                    chosen.update(usable[v][:cnt])
                o = assign_edges(g, chosen)
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
    "everything still open" fails, no completion can succeed.
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
    # still_open[d]: every vertex a selection may gain from depth d on
    still_open = [frozenset(free_optional)]
    for grp in reversed(groups):
        still_open.append(still_open[-1] | frozenset(grp))
    still_open.reverse()

    def feasible(selection: frozenset[int]) -> bool:
        return orient_into(core_edges, residual, selection) is not None

    # feasibility is monotone in the selection, so only maximal
    # affordable free subsets need checking
    take = min(budget_left, len(free_optional))

    # Depth-first over one member per group, first member first, with an
    # explicit stack so that the depth is not bounded by the group count.
    found = None
    stack = [(0, base)]
    while stack and found is None:
        depth, chosen = stack.pop()
        if not feasible(chosen | still_open[depth]):
            continue
        if depth < len(groups):
            stack.extend((depth + 1, chosen | {member}) for member in reversed(groups[depth]))
        else:
            for combo in combinations(free_optional, take):
                if feasible(chosen.union(combo)):
                    found = chosen.union(combo)
                    break
    if found is None:
        return False, None
    orientation = assign_edges(g, found)
    if orientation is None:  # cannot happen: core feasibility implies full feasibility
        raise AssertionError("canonical selection lost feasibility on the full graph")
    return True, orientation
