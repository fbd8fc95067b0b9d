"""Dynamic programming over a linear arrangement, one table per cut.

A state at cut i is a direction assignment for the edges crossing the cut,
so each layer holds exactly 2^{|crossing set|} values: the minimum number
of already-placed vertices with positive in-degree, over orientations that
agree with the assignment and respect capacities on the placed prefix.

Each layer is built from the previous cut.  The edges ending at the new
vertex leave it; the kept edges move, in their order, to the high bits of
the signature, and the edges from the new vertex to later ones fill the
low bits.  A previous entry is compared as one packed key, value above
signature, so one integer comparison ``p if p < q else q`` per element,
in list comprehensions over whole columns of kept patterns, is the whole
tie-break rule: the smallest value, then the smallest predecessor
signature.  Predecessors are bucketed by how many edges enter the new
vertex from the left, then prefix minima over the buckets give one row per
count of new edges entering it.  One layer costs time proportional to
2^{|prev cut|} + 2^{|cut|} times a small polynomial, and its scratch lists
are bounded by running over the kept patterns in blocks.  Values and
predecessor signatures are stored as 32-bit arrays.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import or_
from typing import Sequence

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
MAX_CUT_BITS = 20  # widest arrangement the cut DP runs on: a layer holds 2^width entries
DEFAULT_EXACT_ARRANGEMENT_CAP = 16
NONE = 1 << 62  # key of an infeasible entry: above every value << S | signature, also after a step
_BLOCK = 4096  # kept patterns per pass of the cut DP transition, which bounds its scratch lists


@dataclass(frozen=True)
class LinearArrangement:
    """A vertex ordering; order[i] is the vertex at position i+1."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(1, len(self.order) + 1)):
            raise StructuralError("arrangement is not a permutation of 1..n")

    @cached_property
    def position(self) -> tuple[int, ...]:
        pos = [0] * (len(self.order) + 1)
        for i, v in enumerate(self.order, start=1):
            pos[v] = i
        return tuple(pos)

    def __len__(self) -> int:
        return len(self.order)


def parse_arrangement(text: str) -> LinearArrangement:
    records = list(_content_lines(text))
    if not records or records[0][1][0] != "arrangement":
        raise GraphFormatError("expected 'arrangement <n>' header")
    del records[0][1][0]  # the count may follow on this line or a later one
    values = [x for lineno, parts in records for x in _ints(parts, lineno, "field")]
    if not values:
        raise GraphFormatError("malformed arrangement file")
    n, *ids = values
    if len(ids) != n:
        raise GraphFormatError(f"arrangement declares {n} vertices, lists {len(ids)}")
    return LinearArrangement(tuple(ids))


def format_arrangement(arr: LinearArrangement) -> str:
    return f"arrangement {len(arr)}\n" + "\n".join(map(str, arr.order)) + "\n"


def cut_edges(g: CapacitatedGraph, arr: LinearArrangement, i: int) -> list[tuple[int, int]]:
    """Edges crossing the cut after position i, as (left, right) pairs in
    canonical order (by position of the left, then the right endpoint)."""
    if len(arr) != g.n:
        raise StructuralError("arrangement size does not match the instance")
    if not 0 <= i <= g.n:
        raise StructuralError(f"cut index {i} out of range")
    pos = arr.position
    out = []
    for u, v in g.edges:
        pu, pv = pos[u], pos[v]
        if pu > pv:
            u, v, pu, pv = v, u, pv, pu
        if pu <= i < pv:
            out.append((pu, pv, u, v))
    out.sort()
    return [(u, v) for _, _, u, v in out]


def cutwidth_of(g: CapacitatedGraph, arr: LinearArrangement) -> int:
    """Maximum number of edges crossing any prefix cut.  The arrangement
    must list the instance's n vertices."""
    if len(arr) != g.n:
        raise StructuralError("arrangement size does not match the instance")
    return max(_cut_profile(g, arr.order))


def check_degree_floor(g: CapacitatedGraph) -> None:
    """Refuse, in O(n + m), a graph that no arrangement fits under ``MAX_CUT_BITS``.

    A vertex of degree d leaves at least ceil(d / 2) of its edges on one
    side of its slot, so every arrangement is at least that wide.
    """
    top = max(g.degree, default=0)
    floor = -(-top // 2)
    if floor > MAX_CUT_BITS:
        raise CapExceededError(f"a vertex of degree {top} forces cutwidth {floor}, above cap {MAX_CUT_BITS}")


def _cut_profile(g: CapacitatedGraph, order: Sequence[int]) -> list[int]:
    """Entry j: the edges between the first j vertices of ``order`` and the rest."""
    pos = [0] * (len(order) + 1)
    for i, v in enumerate(order, start=1):
        pos[v] = i
    diff = [0] * (len(order) + 1)
    for u, v in g.edges:
        lo, hi = sorted((pos[u], pos[v]))
        diff[lo] += 1
        diff[hi] -= 1
    return list(accumulate(diff))


class DpLayer:
    """One DP table: every direction assignment of the cut's edges.

    ``values`` and ``preds`` are flat 32-bit arrays (``array("i")``) indexed
    by the signature integer (edge 0 at the most significant bit, so integer
    order is lexicographic bit order): the value and the predecessor
    signature in the previous layer.  -1 encodes "no feasible orientation".
    Values are at most n and signatures below 2^MAX_CUT_BITS, so both fit.
    """

    __slots__ = ("cut_index", "edges", "values", "preds", "work")

    def __init__(self, cut_index, edges, values, preds, work=0):
        self.cut_index = cut_index
        self.edges = tuple(edges)
        self.values = values
        self.preds = preds
        self.work = work

    @property
    def table_size(self) -> int:
        return len(self.values)


def _scatter_table(width: int, positions: Sequence[int]) -> list[int]:
    """scatter[m] places bit j of m at target bit positions[j]."""
    out = [0]
    for p in positions[:width]:
        bit = 1 << p
        out += [m | bit for m in out]
    return out


def base_layer() -> DpLayer:
    return DpLayer(0, (), array("i", [0]), array("i", [-1]), 0)


def process_layer(prev: DpLayer, g: CapacitatedGraph, arr: LinearArrangement, i: int) -> DpLayer:
    """Advance the DP across the vertex v at position i, from the previous cut.

    The new cut, ``cut_edges(g, arr, i)``, is the ``nc`` kept edges of the
    previous cut in their order (high bits) followed by the ``nr`` edges
    (v, w), w after v, by w's position (low bits): kept pattern ``ti`` with
    new-edge bits ``rm`` is entry ``(ti << nr) | rm``.

    A previous entry is compared as one key, ``value << S | signature``
    with S the previous cut's width, or ``NONE`` when infeasible, so the
    smaller of two keys has the smaller value, then the smaller
    predecessor, and occupying v adds ``1 << S``.  Over ``_BLOCK`` kept
    patterns at a time, each pattern of the ``nl`` edges ending at v gives
    one column of keys; the columns fold into buckets by how many of those
    edges enter v, the buckets into prefix minima, and each count b of new
    edges entering v gives one row, decoded once into the 32-bit
    ``values``/``preds`` of every ``rm`` with that count.  Every fold is a
    comprehension ``p if p < q else q`` over two columns, with the step of
    a row added in the same pass.
    """
    if prev.cut_index != i - 1:
        raise StructuralError("layers must be processed in position order")
    v = arr.order[i - 1]
    cap_v = g.capacity[v]
    pos = arr.position

    low_first = list(enumerate(reversed(prev.edges)))  # (bit, edge) from bit 0 up
    kept_bits = [bit for bit, (_, right) in low_first if right != v]
    left_bits = [bit for bit, (_, right) in low_first if right == v]
    kept = [e for e in prev.edges if e[1] != v]
    new = [(v, w) for w in sorted((w for w in g.neighbors(v) if pos[w] > i), key=pos.__getitem__)]
    nc, nl, nr = len(kept_bits), len(left_bits), len(new)

    tau_prev = _scatter_table(nc, kept_bits)
    l_scatter = _scatter_table(nl, left_bits)

    S = len(prev.edges)
    step, low_mask = 1 << S, (1 << S) - 1
    pv = prev.values
    NL, NR = 1 << nl, 1 << nr
    by_right = [[] for _ in range(nr + 1)]  # new-edge patterns by b, the edges they point at v
    for rm in range(NR):
        by_right[nr - rm.bit_count()].append(rm)

    values = array("i", [-1]) * (1 << (nc + nr))
    preds = array("i", [-1]) * (1 << (nc + nr))
    for lo in range(0, 1 << nc, _BLOCK):
        block = tau_prev[lo : lo + _BLOCK]
        size = len(block)
        bucket = [None] * (nl + 1)
        for lm in range(NL):
            t = lm.bit_count()  # edges entering v from the left
            column = [
                NONE if (val := pv[sp]) < 0 else val << S | sp
                for sp in map(or_, block, repeat(l_scatter[lm], size))
            ]
            held = bucket[t]
            bucket[t] = column if held is None else [p if p < q else q for p, q in zip(held, column)]
        prefix = [None, *bucket[1:2]]  # prefix[t], t >= 1: least key over buckets 1..t
        for t in range(2, nl + 1):
            prefix.append([p if p < q else q for p, q in zip(prefix[-1], bucket[t])])
        for b, rms in enumerate(by_right):
            if b > cap_v:
                break
            tmax = min(cap_v - b, nl)
            # bucket 0 occupies v only through new edges; buckets 1..tmax always do
            if not tmax:
                row = [k + step for k in bucket[0]] if b else bucket[0]
            elif b:
                row = [(p if p < q else q) + step for p, q in zip(bucket[0], prefix[tmax])]
            else:
                row = [p if p < (r := q + step) else r for p, q in zip(bucket[0], prefix[tmax])]
            row_values = array("i", [k >> S if k < NONE else -1 for k in row])
            row_preds = array("i", [k & low_mask if k < NONE else -1 for k in row])
            for rm in rms:
                values[lo * NR + rm : (lo + size) * NR : NR] = row_values
                preds[lo * NR + rm : (lo + size) * NR : NR] = row_preds
    work = (1 << nc) * (NL + NR + nl + 2) + NL
    return DpLayer(i, kept + new, values, preds, work)


def solve_cutdp_detailed(
    g: CapacitatedGraph, arr: LinearArrangement
) -> tuple[int | float, Orientation | None, list[DpLayer]]:
    """Run the full DP and keep every layer for inspection/reconstruction.

    Refuses with ``CapExceededError`` before the first layer when the
    arrangement's cutwidth is above ``MAX_CUT_BITS``.
    """
    width = cutwidth_of(g, arr)
    if width > MAX_CUT_BITS:
        raise CapExceededError(f"arrangement cutwidth {width} above cap {MAX_CUT_BITS}")
    g = normalize_capacities(g)
    layers = [base_layer()]
    for i in range(1, g.n + 1):
        layers.append(process_layer(layers[-1], g, arr, i))
    final = layers[g.n]
    if final.values[0] < 0:
        return INF, None, layers
    minsize = final.values[0]

    heads: dict[Edge, int] = {}
    sig = 0
    for i in range(g.n, 0, -1):
        layer = layers[i]
        v = arr.order[i - 1]
        # the edges introduced at this layer hold the low bits
        for bit, (left, right) in enumerate(reversed(layer.edges)):
            if left != v:
                break
            e = (left, right) if left < right else (right, left)
            heads[e] = right if (sig >> bit) & 1 else left
        sig = layer.preds[sig]
    return minsize, Orientation(heads), layers


def solve_cutdp(g: CapacitatedGraph, arr: LinearArrangement) -> tuple[int | float, Orientation | None]:
    """Minimum feasible-orientation size along the given arrangement."""
    minsize, cert, _ = solve_cutdp_detailed(g, arr)
    return minsize, cert


# ---------------------------------------------------------------------------
# arrangements

def find_arrangement(
    g: CapacitatedGraph, mode: str = "exact", *, exact_cap: int = DEFAULT_EXACT_ARRANGEMENT_CAP
) -> LinearArrangement:
    """Produce a linear arrangement.

    Heuristic mode runs breadth-first placement plus first-improvement
    reinsertion and carries no optimality guarantee.  Exact mode is capped
    and takes the heuristic order, then a width-bounded prefix search that
    proves it optimal: an order one width lower, until there is none.
    """
    if mode == "exact":
        if g.n > exact_cap:
            raise CapExceededError(f"exact arrangement capped at {exact_cap} vertices")
        arr = _heuristic_arrangement(g)
        failed: set[int] = set()
        while (narrower := _order_within(g, cutwidth_of(g, arr) - 1, failed)) is not None:
            arr = narrower
        return arr
    if mode == "heuristic":
        return _heuristic_arrangement(g)
    raise ValueError(f"unknown arrangement mode '{mode}'")


def _order_within(g: CapacitatedGraph, width: int, failed: set[int]) -> LinearArrangement | None:
    """An arrangement with every prefix cut at most ``width``, or None.

    Depth-first over prefix sets S (vertex bitmasks), vertices in id order; adding v
    changes the cut by deg(v) - 2|N(v) & S|.  ``failed`` gains each set with no completion:
    it fails at every lower width too, so one set serves a descending run of widths.
    """
    if width < 0:
        return None
    n, deg = g.n, g.degree
    nbm = [sum(1 << (w - 1) for w in g.neighbors(v)) for v in range(n + 1)]
    full = (1 << n) - 1
    stack = [[0, 0, 1]]  # per prefix: its set, its cut and the next vertex to try
    while stack:
        mask, cut, v = stack[-1]
        if mask == full:  # below the top, each frame's next vertex is one past the one it placed
            return LinearArrangement(tuple(f[2] - 1 for f in stack[:-1]))
        while v <= n:
            bit = 1 << (v - 1)
            if not mask & bit:
                grown = cut + deg[v] - 2 * (nbm[v] & mask).bit_count()
                if grown <= width and mask | bit not in failed:
                    break
            v += 1
        if v > n:
            failed.add(mask)
            stack.pop()
            continue
        stack[-1][2] = v + 1
        stack.append([mask | bit, grown, 1])
    return None


def _heuristic_arrangement(g: CapacitatedGraph) -> LinearArrangement:
    n = g.n
    if n == 0:
        return LinearArrangement(())
    # breadth-first start from a minimum-degree vertex, components in id order
    seen = [False] * (n + 1)
    order: list[int] = []
    starts = sorted(range(1, n + 1), key=lambda v: (g.deg(v), v))
    for s in starts:
        if seen[s]:
            continue
        queue = [s]
        seen[s] = True
        for v in queue:  # the loop reaches the vertices appended behind it
            order.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    width = max(_cut_profile(g, order))
    while True:  # first-improvement reinsertion until no single move narrows the widest cut
        for v in order:
            base = [w for w in order if w != v]
            # v in slot s: the cuts up to s are those of base + [v], the cuts after s those of [v] + base
            left = list(accumulate(_cut_profile(g, base + [v]), max))
            right = list(accumulate(reversed(_cut_profile(g, [v] + base)), max))[::-1]
            slot = next((s for s in range(n) if max(left[s], right[s + 1]) < width), None)
            if slot is not None:
                order = base[:slot] + [v] + base[slot:]
                width = max(left[slot], right[slot + 1])
                break
        else:
            return LinearArrangement(tuple(order))
