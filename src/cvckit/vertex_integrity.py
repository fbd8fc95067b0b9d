"""Modulator-based exact solver: guess the solution on a small separator,
catalog each leftover component's valid partial orientations, then pick one
option per component under shared capacity budgets.

The component selection step is a block-structured program: one local
"pick exactly one option" constraint per component, plus global constraints
tying component loads to the modulator residuals and the solution size.
It is solved here by an exact dynamic program over capped residual
vectors, which keeps the same feasibility semantics as the integer-
programming formulation it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    CapacitatedGraph,
    CapExceededError,
    Edge,
    GraphFormatError,
    Orientation,
    StructuralError,
    normalize_capacities,
)

INF = math.inf
DEFAULT_MODULATOR_CAP = 18


@dataclass(frozen=True)
class Modulator:
    """A vertex set witnessing the instance's vertex integrity."""

    vertices: tuple[int, ...]
    vi: int


@dataclass
class ModulatorGuess:
    """One guessed behavior on the modulator: which modulator vertices may
    receive edges, how the modulator-internal edges point, and what
    capacity each selected vertex still has for component edges."""

    selected: frozenset[int]
    orientation_u: dict[Edge, int]
    residual: dict[int, int]


@dataclass(frozen=True)
class CatalogOption:
    load: tuple[int, ...]  # extra edges pushed onto each modulator vertex
    size_gain: int  # component vertices that end up with positive in-degree
    heads: tuple[tuple[Edge, int], ...]  # the partial orientation realizing it


@dataclass(frozen=True)
class ComponentCatalog:
    component_id: int
    vertices: tuple[int, ...]
    modulator_order: tuple[int, ...]
    options: tuple[CatalogOption, ...]


def parse_modulator(text: str) -> tuple[int, ...]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "modulator":
            raise GraphFormatError(f"line {lineno}: expected 'modulator <ids...>'")
        try:
            return tuple(sorted(int(x) for x in parts[1:]))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from None
    return ()


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
    g: CapacitatedGraph, *, exact_cap: int = DEFAULT_MODULATOR_CAP
) -> Modulator:
    """Minimum vertex integrity with a witnessing set, by exact search.

    Tries deletion sets in increasing size; a set of size s can only beat
    the incumbent when s + 1 is still smaller, since at least one vertex
    remains outside.
    """
    if g.n > exact_cap:
        raise CapExceededError(f"modulator search capped at {exact_cap} vertices, got {g.n}")

    def score(mod: tuple[int, ...]) -> int:
        comps = components_outside(g, mod)
        return len(mod) + max((len(c) for c in comps), default=0)

    best_u: tuple[int, ...] = ()
    best = score(())
    for s in range(1, g.n + 1):
        if s + 1 >= best:
            break
        for cand in combinations(g.vertices(), s):
            val = score(cand)
            if val < best:
                best, best_u = val, cand
    return Modulator(tuple(best_u), best)


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
    selected set, with the residual capacities they leave behind."""
    mod_set = set(modulator)
    internal = [(u, v) for u, v in g.edges if u in mod_set and v in mod_set]
    forced: list[tuple[Edge, int]] = []
    free: list[Edge] = []
    for u, v in internal:
        su, sv = u in selected, v in selected
        if su and sv:
            free.append((u, v))
        elif su:
            forced.append(((u, v), u))
        elif sv:
            forced.append(((u, v), v))
        else:
            return  # an internal edge nobody may receive: no valid guess
    base_indeg = {u: 0 for u in modulator}
    for _, head in forced:
        base_indeg[head] += 1
    cap = g.capacity
    for mask in range(1 << len(free)):
        heads = dict(forced)
        indeg = dict(base_indeg)
        ok = True
        for b, (u, v) in enumerate(free):
            head = v if (mask >> b) & 1 else u
            heads[(u, v)] = head
            indeg[head] += 1
            if indeg[head] > cap[head]:
                ok = False
                break
        if not ok:
            continue
        if any(indeg[u] > cap[u] for u in modulator):
            continue
        residual = {
            u: (cap[u] - indeg[u] if u in selected else 0) for u in modulator
        }
        yield heads, residual


def enumerate_guesses(g: CapacitatedGraph, modulator: Iterable[int]) -> Iterator[ModulatorGuess]:
    """All valid (selected set, internal orientation) pairs with residuals.

    A guess is valid when the internal orientation respects capacities and
    only selected vertices receive edges; the count is therefore at most
    2^(|U| + |E(G[U])|).
    """
    g = normalize_capacities(g)
    mod = tuple(sorted(set(modulator)))
    for selected in _selected_sets(g, mod):
        for heads, residual in _orientations_for_selected(g, mod, selected):
            yield ModulatorGuess(selected, heads, residual)


# ---------------------------------------------------------------------------
# component catalogs

def _component_orientations(
    g: CapacitatedGraph,
    mod_order: Sequence[int],
    selected: frozenset[int],
    comp: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], int, dict[Edge, int]]]:
    """Valid orientations of all edges touching one component.

    Edges into unselected modulator vertices are forced toward the
    component; the rest (component-internal and to selected vertices) are
    enumerated.  Yields (load on each modulator vertex, vertices of the
    component with positive in-degree, edge heads).
    """
    comp_set = set(comp)
    mod_index = {u: i for i, u in enumerate(mod_order)}
    cap = g.capacity
    forced: list[tuple[Edge, int]] = []
    free: list[Edge] = []
    preload = {w: 0 for w in comp}
    for u, v in g.edges:
        inu, inv = u in comp_set, v in comp_set
        if not (inu or inv):
            continue
        if inu and inv:
            free.append((u, v))
            continue
        other, inside = (u, v) if inv else (v, u)
        if other in selected:
            free.append((u, v))
        else:
            forced.append(((u, v), inside))
            preload[inside] += 1
    if any(preload[w] > cap[w] for w in comp):
        return
    for mask in range(1 << len(free)):
        heads = dict(forced)
        indeg = dict(preload)
        load = [0] * len(mod_order)
        ok = True
        for b, (u, v) in enumerate(free):
            head = v if (mask >> b) & 1 else u
            heads[(u, v)] = head
            if head in comp_set:
                indeg[head] += 1
                if indeg[head] > cap[head]:
                    ok = False
                    break
            else:
                load[mod_index[head]] += 1
        if not ok:
            continue
        gain = sum(1 for w in comp if indeg[w] > 0)
        yield tuple(load), gain, heads


def component_catalog(
    g: CapacitatedGraph, modulator: Iterable[int], guess: ModulatorGuess, j: int
) -> ComponentCatalog:
    """Every valid partial orientation of component j under the guess, with
    its load vector and size contribution."""
    g = normalize_capacities(g)
    mod = tuple(sorted(set(modulator)))
    comps = components_outside(g, mod)
    comp = comps[j]
    options = tuple(
        CatalogOption(load, gain, tuple(sorted(heads.items())))
        for load, gain, heads in _component_orientations(g, mod, guess.selected, comp)
    )
    return ComponentCatalog(j, comp, mod, options)


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


def _block_select(
    reduced: Sequence[Sequence[tuple[tuple[int, ...], int, object]]],
    residual: Sequence[int],
    budget: int | float | None = None,
) -> tuple[int | float, list[object] | None]:
    """Exact minimum total size gain, one option per block, loads bounded by
    the residual vector.  Returns (value, chosen payloads) or (inf, None)."""
    width = len(residual)
    caps = list(residual)
    for i in range(width):
        reachable = sum(max((load[i] for load, _, _ in block), default=0) for block in reduced)
        caps[i] = min(caps[i], reachable)
    if any(c < 0 for c in caps):
        return INF, None
    limit = math.inf if budget is None else budget
    start = tuple(caps)
    states: dict[tuple[int, ...], tuple[int, tuple]] = {start: (0, ())}
    for block in reduced:
        nxt: dict[tuple[int, ...], tuple[int, tuple]] = {}
        for state, (total, path) in sorted(states.items()):
            for load, gain, payload in block:
                new_total = total + gain
                if new_total > limit:
                    continue
                rem = list(state)
                ok = True
                for i in range(width):
                    rem[i] -= load[i]
                    if rem[i] < 0:
                        ok = False
                        break
                if not ok:
                    continue
                key = tuple(rem)
                cur = nxt.get(key)
                if cur is None or new_total < cur[0]:
                    nxt[key] = (new_total, path + (payload,))
        if not nxt:
            return INF, None
        states = nxt
    best_total, best_path = min(states.values(), key=lambda item: item[0])
    return best_total, list(best_path)


def solve_block_selection(
    catalogs: Sequence[ComponentCatalog],
    residual: Mapping[int, int] | Sequence[int],
    budget: int | None = None,
) -> int | float:
    """Minimum total size contribution of one option per catalog, subject to
    the residual capacities; inf when no selection fits."""
    if not catalogs:
        return 0
    order = catalogs[0].modulator_order
    if any(c.modulator_order != order for c in catalogs):
        raise StructuralError("catalogs disagree on the modulator order")
    if isinstance(residual, Mapping):
        res = [residual.get(u, 0) for u in order]
    else:
        res = list(residual)
    reduced = [
        _reduce_options((o.load, o.size_gain, None) for o in cat.options)
        for cat in catalogs
    ]
    if any(not block for block in reduced):
        return INF
    value, _ = _block_select(reduced, res, budget)
    return value


# ---------------------------------------------------------------------------
# full pipeline

def _vi_engine(
    g: CapacitatedGraph,
    modulator: Sequence[int] | None,
    k: int | None,
    stats: dict | None,
):
    g = normalize_capacities(g)
    if modulator is None:
        mod = compute_modulator(g).vertices
    else:
        mod = tuple(sorted(set(modulator)))
    comps = components_outside(g, mod)
    if stats is not None:
        stats.setdefault("guesses", 0)
        stats["modulator"] = mod

    best: int | float = INF
    best_assembly = None
    for selected in _selected_sets(g, mod):
        if k is not None and len(selected) > k:
            break
        if k is None and len(selected) >= best:
            break
        blocks = []
        empty = False
        for comp in comps:
            reduced = _reduce_options(
                (load, gain, heads)
                for load, gain, heads in _component_orientations(g, mod, selected, comp)
            )
            if not reduced:
                empty = True
                break
            blocks.append(reduced)
        if empty:
            continue
        memo: dict[tuple[int, ...], tuple[int | float, list | None]] = {}
        for heads_u, residual in _orientations_for_selected(g, mod, selected):
            if stats is not None:
                stats["guesses"] += 1
            res_key = tuple(residual[u] for u in mod)
            if res_key not in memo:
                memo[res_key] = _block_select(blocks, res_key)
            total_gain, picks = memo[res_key]
            value = len(selected) + total_gain
            if value >= best:
                continue
            if k is None or value <= k:
                assembly = dict(heads_u)
                for pick in picks or []:
                    assembly.update(pick)
                best = value
                best_assembly = assembly
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
