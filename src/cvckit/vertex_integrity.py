"""Modulator-based exact solver: guess the solution on a small separator,
catalog each leftover component's valid partial orientations, then pick one
option per component under shared capacity budgets.

Without a given modulator, ``compute_modulator`` finds one of least
vertex integrity by a depth-first walk over deletion sets that cuts a
branch once the vertices it can no longer delete hold a component too
large to beat the incumbent: an improving set of size s must hit every
connected set of (incumbent − s) vertices.

The component selection step is a block-structured program: one local
"pick exactly one option" constraint per component, plus global constraints
tying component loads to the modulator residuals and the solution size.
It is solved here by an exact dynamic program over residual vectors
clamped to the loads the components can reach, each state carrying the
options that reach it; the engine passes its incumbent as the budget.

Both the guesses and the catalogs walk the orientations of their free
edges depth first, cutting a branch once a vertex goes over its capacity,
so only orientations that fit are reached.  Where no capacity binds that
is all 2^(free edges) of them, so a component (or the modulator itself)
with more than ``MAX_FREE_EDGES`` free edges is refused with
``CapExceededError``: a weak modulator given from outside is refused at
once instead of walked.  The guesses range over the subsets of the
modulator, so a given one above ``DEFAULT_MODULATOR_CAP`` vertices, the
most ``compute_modulator`` ever returns, is refused as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter, sub
from typing import Container, Iterable, Iterator, Sequence

from .core import (
    CapacitatedGraph,
    CapExceededError,
    Edge,
    GraphFormatError,
    Orientation,
    StructuralError,
    _content_lines,
    _ints,
    normalize_capacities,
)

INF = math.inf
DEFAULT_MODULATOR_CAP = 18
# a walk reaches all 2^free orientations only where no capacity binds;
# 2^20 of them take about a second
MAX_FREE_EDGES = 20


@dataclass(frozen=True)
class Modulator:
    """A vertex set witnessing the instance's vertex integrity."""

    vertices: tuple[int, ...]
    vi: int


def parse_modulator(text: str) -> tuple[int, ...]:
    """One ``modulator <ids...>`` record; no record at all is the empty set."""
    vertices = None
    for lineno, parts in _content_lines(text):
        if parts[0] != "modulator" or vertices is not None:
            raise GraphFormatError(f"line {lineno}: expected one 'modulator <ids...>' record")
        vertices = tuple(sorted(_ints(parts[1:], lineno, "vertex id")))
    return vertices or ()


def format_modulator(vertices: Iterable[int]) -> str:
    return "modulator " + " ".join(map(str, sorted(vertices))) + "\n"


def components_outside(g: CapacitatedGraph, modulator: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected components of G minus the modulator, ordered by smallest id."""
    mod = set(modulator)
    seen = set(mod)
    comps = []
    for s in g.vertices():
        if s in seen:
            continue
        stack = [s]
        seen.add(s)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def compute_modulator(
    g: CapacitatedGraph, *, exact_cap: int = DEFAULT_MODULATOR_CAP, stats: dict | None = None
) -> Modulator:
    """Minimum vertex integrity with a witnessing set, by exact search.

    A greedy pass first deletes the vertex with the most neighbours in the
    largest component until no vertex is left; one above its best value
    is the starting incumbent when that beats the empty set.  The search
    then walks deletion sets in increasing size, each size in
    ``combinations`` order, and keeps the first set of the smallest value,
    so the greedy pass changes only how many sets are scored; a set of size s
    can only beat the incumbent when s + 1 is still smaller, since at least
    one vertex remains outside.  Each size is walked depth-first, one pick
    per level.  Every vertex below the next pick that is not deleted is
    frozen: no later pick of the branch removes it.  With limit =
    incumbent − s, a branch is cut, together with its later siblings
    (which freeze a superset), once a component of the frozen vertices
    has ``limit`` vertices, or a just-frozen vertex keeps at least
    ``limit`` of its closed neighbourhood after the picks still to make.
    Only sets that cannot beat the incumbent are skipped, so the result is
    that of scoring every set.  The other sets are scored by growing
    bitmask components breadth-first from closed neighbourhoods, and a set
    is dropped as soon as one of its components reaches the limit.

    ``stats["modulator_sets"]`` receives the number of sets scored.
    """
    if g.n > exact_cap:
        raise CapExceededError(f"modulator search capped at {exact_cap} vertices, got {g.n}")
    n = g.n
    closed = [1 << i for i in range(n)]  # bit i stands for vertex i + 1
    for u, v in g.edges:
        closed[u - 1] |= 1 << (v - 1)
        closed[v - 1] |= 1 << (u - 1)

    def component(rest: int, limit: int) -> int:
        """The component of G[rest] holding rest's lowest vertex, grown
        breadth-first; cut short once it has ``limit`` vertices."""
        comp = frontier = rest & -rest
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= closed[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & rest & ~comp
            comp |= frontier
            if comp.bit_count() >= limit:
                break
        return comp

    def largest_component(rest: int, limit: int) -> int:
        """Order of the largest component of G[rest]; ``limit`` as soon as
        a growing component reaches it."""
        largest = 0
        while rest and rest.bit_count() > largest:
            comp = component(rest, limit)
            if comp.bit_count() >= limit:
                return limit
            largest = max(largest, comp.bit_count())
            rest ^= comp
        return largest

    # Greedy incumbent: delete the vertex with the most neighbours in the
    # largest component, all the way down, and keep the best value seen.
    full = (1 << n) - 1
    rest, greedy = full, n
    for deleted in range(n):
        if deleted + 1 >= greedy:  # every later value is at least deleted + 1
            break
        comps, left = [], rest
        while left:
            comps.append(component(left, n + 1))
            left ^= comps[-1]
        big = max(comps, key=int.bit_count)
        greedy = min(greedy, deleted + big.bit_count())
        members = (i for i in range(n) if big >> i & 1)
        rest ^= 1 << max(members, key=lambda i: (closed[i] & big).bit_count())

    # Below the empty set's value the search starts just above the greedy
    # value with no set recorded: it is sure to score a set of at most that
    # value, and keeps the first set of least value in its order.
    best = min(largest_component(full, n + 1), greedy + 1)
    best_cut = 0
    scored = 0

    def search(cut: int, lo: int, r: int, frozen: list[int]) -> None:
        """Pick r more vertices of index lo or above, in ``combinations``
        order; ``frozen`` holds the components of the frozen vertices."""
        nonlocal best, best_cut, scored
        for i in range(lo, n - r + 1):
            bit = 1 << i
            if r == 1:
                scored += 1
                val = s + largest_component(full ^ cut ^ bit, best - s)
                if val < best:
                    best, best_cut = val, cut | bit
            else:
                search(cut | bit, i + 1, r - 1, frozen)
            # vertex i is skipped, so it is frozen for the rest of the loop
            limit = best - s
            nb = closed[i]
            if (nb & ~cut).bit_count() - r >= limit:
                return
            comp, rest = bit, []
            for c in frozen:
                if c & nb:
                    comp |= c
                else:
                    rest.append(c)
            if comp.bit_count() >= limit:
                return
            rest.append(comp)
            frozen = rest

    for s in range(1, n + 1):
        if s + 1 >= best:
            break
        search(0, 0, s, [])
    if stats is not None:
        stats["modulator_sets"] = scored
    return Modulator(tuple(v for v in g.vertices() if best_cut >> (v - 1) & 1), best)


# ---------------------------------------------------------------------------
# guesses

def _selected_sets(g: CapacitatedGraph, modulator: Sequence[int]) -> Iterator[frozenset[int]]:
    """Subsets of the modulator that touch every modulator-internal edge,
    ascending by size then lexicographically."""
    mod = sorted(modulator)
    in_mod = set(mod)
    internal = [(u, v) for u, v in g.edges if u in in_mod and v in in_mod]
    for size in range(0, len(mod) + 1):
        for sel in combinations(mod, size):
            ssel = frozenset(sel)
            if all(u in ssel or v in ssel for u, v in internal):
                yield ssel


def _orientations_for_selected(
    g: CapacitatedGraph, modulator: Sequence[int], selected: frozenset[int]
) -> Iterator[tuple[dict[Edge, int], dict[int, int]]]:
    """Valid orientations of the modulator-internal edges for a fixed
    selected set, with the residual capacities they leave behind.

    ``selected`` comes from ``_selected_sets``, so it touches every
    internal edge: an edge with one selected endpoint points there, and an
    edge with two is free.  The free edges are walked as one component
    made of the whole modulator.
    """
    mod_set = set(modulator)
    internal = (e for e in g.edges if e[0] in mod_set and e[1] in mod_set)
    forced, free = _split_edges(internal, selected)
    room = {u: g.capacity[u] if u in selected else 0 for u in modulator}
    for _, _, mask in _component_orientations(g, (), modulator, forced, free):
        heads = _component_heads(forced, free, mask)
        residual = dict(room)
        for head in heads.values():
            residual[head] -= 1
        yield heads, residual


# ---------------------------------------------------------------------------
# component catalogs

def _split_edges(
    edges: Iterable[Edge], receivers: Container[int]
) -> tuple[list[tuple[Edge, int]], list[Edge]]:
    """Split edges into forced (edge, head) pairs and free edges.  An edge
    whose endpoints can both receive is free; any other edge is forced
    onto the endpoint that can."""
    forced: list[tuple[Edge, int]] = []
    free: list[Edge] = []
    for u, v in edges:
        if u in receivers and v in receivers:
            free.append((u, v))
        else:
            forced.append(((u, v), u if u in receivers else v))
    return forced, free


def _component_edges(
    g: CapacitatedGraph, selected: frozenset[int], comp: Sequence[int]
) -> tuple[list[tuple[Edge, int]], list[Edge]]:
    """The edges touching one component, split into forced (edge, head)
    pairs and free edges.

    Edges into unselected modulator vertices are forced toward the
    component; the rest (component-internal and to selected vertices) are
    free.
    """
    comp_set = set(comp)
    touching = (e for e in g.edges if e[0] in comp_set or e[1] in comp_set)
    return _split_edges(touching, comp_set | selected)


def _component_heads(
    forced: Sequence[tuple[Edge, int]], free: Sequence[Edge], mask: int
) -> dict[Edge, int]:
    """The edge heads of one orientation: bit b of ``mask`` points free
    edge b at its larger endpoint, a clear bit at its smaller one."""
    heads = dict(forced)
    for b, (u, v) in enumerate(free):
        heads[(u, v)] = v if (mask >> b) & 1 else u
    return heads


def _component_orientations(
    g: CapacitatedGraph,
    mod_order: Sequence[int],
    comp: Sequence[int],
    forced: Sequence[tuple[Edge, int]],
    free: Sequence[Edge],
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Valid orientations of all edges touching one component.

    Bit b of a mask points free edge b at its larger endpoint, a clear bit
    at its smaller one.  The masks are walked depth first, one free edge
    per level from the highest index down, the smaller endpoint before the
    larger, so they come out in increasing order.  Placing an edge adds
    one unit of in-degree to its head, and in-degrees only grow along a
    branch, so a branch is cut as soon as a component vertex would go over
    its capacity: nothing below it fits.  Modulator vertices are not
    capped here; their loads are checked by the block selection.  Yields
    (load on each modulator vertex, vertices of the component with
    positive in-degree, mask) for every mask that keeps the component
    within capacity; ``_component_heads`` turns a mask into edge heads.
    The walk keeps one stack entry per free edge and refuses more than
    ``MAX_FREE_EDGES`` of them.
    """
    if len(free) > MAX_FREE_EDGES:
        raise CapExceededError(f"{len(free)} free edges to orient, cap is {MAX_FREE_EDGES}")
    c = len(comp)
    # slots 0..c-1 are the component's vertices, c.. the modulator's
    slot = {w: i for i, w in enumerate(comp)}
    for i, u in enumerate(mod_order):
        slot[u] = c + i
    # room[i]: the most in-degree slot i may hold; modulator slots get more
    # than any walk can reach
    room = [g.capacity[w] for w in comp] + [len(free) + 1] * len(mod_order)
    indeg = [0] * (c + len(mod_order))
    for _, head in forced:
        indeg[slot[head]] += 1
    if any(indeg[i] > room[i] for i in range(c)):
        return
    positive = sum(1 for i in range(c) if indeg[i] > 0)
    last = len(free) - 1
    if last < 0:
        yield tuple(indeg[c:]), positive, 0
        return
    # level d decides free edge last - d, which is bit last - d of the mask;
    # the last level tries both ends of edge 0 in one pass
    ends = [(slot[u], slot[v]) for u, v in reversed(free)]
    side = [0] * last  # next end to try at each level; 2 when both are done
    took = [0] * last  # slot that took the edge of each level above the current one
    lo, hi = ends[last]
    mask = 0
    d = 0
    while True:
        if d == last:
            x = indeg[lo]
            if x < room[lo]:
                indeg[lo] = x + 1
                yield tuple(indeg[c:]), positive + (lo < c and not x), mask
                indeg[lo] = x
            x = indeg[hi]
            if x < room[hi]:
                indeg[hi] = x + 1
                yield tuple(indeg[c:]), positive + (hi < c and not x), mask | 1
                indeg[hi] = x
        else:
            s = side[d]
            if s < 2:
                side[d] = s + 1
                w = ends[d][s]
                x = indeg[w]
                if x < room[w]:
                    indeg[w] = x + 1
                    if w < c and not x:
                        positive += 1
                    took[d] = w
                    if s:
                        mask |= 1 << (last - d)
                    d += 1
                continue
            side[d] = 0
        # both ends tried: back up and take back the parent's edge
        d -= 1
        if d < 0:
            return
        w = took[d]
        indeg[w] -= 1
        if w < c and not indeg[w]:
            positive -= 1
        if side[d] == 2:
            mask ^= 1 << (last - d)


# ---------------------------------------------------------------------------
# block selection

def _reduce_options(options: Iterable[tuple[tuple[int, ...], int, object]]):
    """Keep the minimum size gain per distinct load vector."""
    best: dict[tuple[int, ...], tuple[int, object]] = {}
    for load, gain, payload in options:
        cur = best.get(load)
        if cur is None or gain < cur[0]:
            best[load] = (gain, payload)
    return sorted((load, gain, payload) for load, (gain, payload) in best.items())


def _reach(reduced: Sequence[Sequence[tuple]], width: int) -> list[int]:
    """Per modulator coordinate, the most load one option per block can put
    there; residual capacity above it is never used."""
    return [sum(max((load[i] for load, _, _ in block), default=0) for block in reduced)
            for i in range(width)]


def _block_select(
    reduced: Sequence[Sequence[tuple[tuple[int, ...], int, object]]],
    start: Sequence[int],
    budget: int | float | None = None,
) -> tuple[int | float, list[object] | None]:
    """Exact minimum total size gain, one option per block, loads bounded by
    the residual vector ``start``.  Returns (value, chosen payloads), or
    (inf, None) when no selection fits or every one totals above ``budget``.

    Callers clamp ``start`` by ``_reach`` once, so that residuals differing
    only in capacity no selection can use share one key; clamping changes
    neither the answer nor the picks.  A state is the residual still free
    and maps to (least total gain, payloads that reach it).  States are
    visited in sorted order and options in block order, an entry is
    replaced only by a strictly smaller total, and the answer is the first
    final state of least total.
    """
    limit = INF if budget is None else budget
    start = tuple(start)
    if limit < 0 or min(start, default=0) < 0:
        return INF, None
    states: dict[tuple[int, ...], tuple[int, tuple]] = {start: (0, ())}
    for block in reduced:
        nxt: dict[tuple[int, ...], tuple[int, tuple]] = {}
        for state, (total, picks) in sorted(states.items()):
            for load, gain, payload in block:
                new_total = total + gain
                if new_total > limit:
                    continue
                rem = tuple(map(sub, state, load))
                if min(rem, default=0) < 0:
                    continue
                cur = nxt.get(rem)
                if cur is None or new_total < cur[0]:
                    nxt[rem] = (new_total, picks + (payload,))
        if not nxt:
            return INF, None
        states = nxt
    best_total, picks = min(states.values(), key=itemgetter(0))
    return best_total, list(picks)


# ---------------------------------------------------------------------------
# full pipeline

def _vi_engine(
    g: CapacitatedGraph,
    modulator: Sequence[int] | None,
    k: int | None,
    stats: dict | None,
):
    g = normalize_capacities(g)
    if stats is not None:
        stats.setdefault("guesses", 0)
        stats.setdefault("modulator_sets", 0)
    if modulator is None:
        mod = compute_modulator(g, stats=stats).vertices
    else:
        mod = tuple(sorted(set(modulator)))
        outside = [u for u in mod if not 1 <= u <= g.n]
        if outside:
            raise StructuralError(f"modulator vertex {outside[0]} is not in 1..{g.n}")
        if len(mod) > DEFAULT_MODULATOR_CAP:  # the guesses walk every subset of it
            raise CapExceededError(f"given modulator capped at {DEFAULT_MODULATOR_CAP} vertices, got {len(mod)}")
    comps = components_outside(g, mod)
    if stats is not None:
        stats["modulator"] = mod

    # a decision is the optimisation started from incumbent k + 1
    best: int | float = INF if k is None else k + 1
    best_assembly = None
    for selected in _selected_sets(g, mod):
        if len(selected) >= best:
            break
        blocks = []
        block_edges = []
        for comp in comps:
            forced, free = _component_edges(g, selected, comp)
            reduced = _reduce_options(_component_orientations(g, mod, comp, forced, free))
            if not reduced:
                break
            blocks.append(reduced)
            block_edges.append((forced, free))
        if len(blocks) < len(comps):  # some component has no valid option
            continue
        reach = _reach(blocks, len(mod))
        # An entry is the exact optimum or inf, which means above the budget
        # it was made under; budgets only fall, so every entry stays valid.
        memo: dict[tuple[int, ...], tuple[int | float, list | None]] = {}
        for heads_u, residual in _orientations_for_selected(g, mod, selected):
            if stats is not None:
                stats["guesses"] += 1
            res_key = tuple(min(residual[u], r) for u, r in zip(mod, reach))
            if res_key not in memo:
                memo[res_key] = _block_select(blocks, res_key, best - 1 - len(selected))
            total_gain, picks = memo[res_key]
            value = len(selected) + total_gain
            if value < best:
                best = value
                best_assembly = dict(heads_u)
                for (forced, free), mask in zip(block_edges, picks):
                    best_assembly.update(_component_heads(forced, free, mask))
                if k is not None:
                    return value, Orientation(best_assembly)
    if best_assembly is None:
        return INF, None
    return best, Orientation(best_assembly)


def solve_vi(
    g: CapacitatedGraph,
    k: int,
    *,
    modulator: Sequence[int] | None = None,
    stats: dict | None = None,
) -> tuple[bool, Orientation | None]:
    """Decide whether a feasible orientation of size at most k exists, by
    modulator guessing plus exact block selection."""
    if k < 0:
        return False, None
    value, cert = _vi_engine(g, modulator, k, stats)
    if value == INF or value > k:
        return False, None
    return True, cert


def solve_vi_opt(
    g: CapacitatedGraph,
    *,
    modulator: Sequence[int] | None = None,
    stats: dict | None = None,
) -> tuple[int | float, Orientation | None]:
    """Optimization variant: minimize over all guesses directly instead of
    re-running the decision for every budget."""
    return _vi_engine(g, modulator, None, stats)
