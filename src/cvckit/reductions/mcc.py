"""Multicolored clique to capacitated vertex cover with shallow structure.

One choice gadget per color class picks a vertex index; a four-way
recursive family of adjacency gadgets checks every ordered class pair at
its base, with copy gadgets transporting the chosen index down the
recursion.  Index transport and adjacency validation both run through
bundles of parallel degree-2 pendant-forced vertices whose bundle sizes
encode the index in unary from both ends.

The same recursion yields an elimination forest: each level's copy
vertices form the separator chain, the four sub-gadgets hang below in
parallel, and everything else is constant-depth, so the witness depth
grows linearly in the class count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from ..core import (
    CapacitatedGraph,
    CapExceededError,
    GraphFormatError,
    _content_lines,
    _ints,
    _plain_records,
)
from ..oracle import ChoiceGroups
from ._builder import Builder

ClassVertex = tuple[int, int]  # (class, index)
MAX_TD_VERTICES = 10**6  # larger mcc-td outputs are refused before they are built


@dataclass(frozen=True)
class MccInstance:
    """k independent classes of n vertices plus cross-class edges.

    Self-adjacency is implicit: the diagonal pairs exist in every class
    without being listed.
    """

    k: int
    n: int
    edges: frozenset[frozenset[ClassVertex]]

    def __post_init__(self):
        for e in self.edges:
            pair = sorted(e)
            if len(pair) != 2:
                raise GraphFormatError("malformed class edge")
            (i, a), (j, b) = pair
            if i == j:
                raise GraphFormatError("classes must be independent sets")
            for cls, idx in pair:
                if not (1 <= cls <= self.k and 1 <= idx <= self.n):
                    raise GraphFormatError(f"vertex ({cls},{idx}) out of range")


@dataclass(frozen=True)
class TreedepthWitness:
    """Elimination forest: parent id per vertex, 0 for roots."""

    parent: dict[int, int]


def verify_td_witness(g: CapacitatedGraph, witness: TreedepthWitness) -> tuple[bool, int]:
    """Valid iff the parent map is a forest over V(G) and every edge joins
    an ancestor-descendant pair.  Returns (valid, depth in vertices).

    One depth-first walk from the roots lists the forest in preorder, so
    every subtree fills a run of positions, and an edge is valid when its
    later endpoint falls in the run of its earlier one."""
    parent = witness.parent
    n = g.n
    if set(parent) != set(g.vertices()):
        return False, 0
    children: list[list[int]] = [[] for _ in range(n + 1)]  # children[0]: the roots
    for v, p in parent.items():
        if not 0 <= p <= n:
            return False, 0
        children[p].append(v)
    order = []
    depth = [0] * (n + 1)
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for c in children[v]:
            depth[c] = depth[v] + 1
        stack += children[v]
    if len(order) <= n:
        return False, 0  # a cycle: its vertices hang below no root
    pos = [0] * (n + 1)
    for i, v in enumerate(order):
        pos[v] = i
    size = [1] * (n + 1)  # vertices in the subtree
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    max_depth = max(depth)
    for u, v in g.edges:
        if pos[u] > pos[v]:
            u, v = v, u
        if pos[v] >= pos[u] + size[u]:
            return False, max_depth
    return True, max_depth


def parse_witness(text: str) -> TreedepthWitness:
    """Parse ``parent <v> <p|0>`` lines.  Text in the plain shape, one such
    line per newline and nothing else, is read in one pass; any other text
    is read line by line."""
    records = _plain_records(text, ("parent", text.count("\n")))
    if records is not None:
        [(vertices, parents)] = records
        parent = dict(zip(vertices, parents))
        if len(parent) == len(vertices):  # no vertex listed twice
            return TreedepthWitness(parent)
    return _parse_witness_lines(text)


def _parse_witness_lines(text: str) -> TreedepthWitness:
    """``parse_witness`` one line at a time, with every error and its line."""
    parent: dict[int, int] = {}
    for lineno, parts in _content_lines(text):
        if parts[0] != "parent" or len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'parent <v> <p|0>'")
        v, p = _ints(parts[1:], lineno, "field")
        if v in parent:
            raise GraphFormatError(f"line {lineno}: duplicate entry for {v}")
        parent[v] = p
    return TreedepthWitness(parent)


def format_witness(witness: TreedepthWitness) -> str:
    """One ``parent <v> <p|0>`` line per vertex in id order, as one
    template format; an empty forest is a single newline."""
    parent = witness.parent
    ids = sorted(parent)
    return "parent %d %d\n" * len(ids) % tuple(chain.from_iterable(zip(ids, map(parent.__getitem__, ids)))) or "\n"


def parse_mcc(text: str) -> MccInstance:
    """``mcc <k> <n>`` then ``class <i> <ids...>`` and ``e <u> <v>`` lines
    over global vertex ids."""
    header = None
    classes: dict[int, tuple[int, list[int]]] = {}  # class -> (line, ids)
    raw_edges: list[tuple[int, int]] = []
    for lineno, parts in _content_lines(text):
        kind = parts[0]
        if not (kind in ("mcc", "e") and len(parts) == 3 or kind == "class" and len(parts) >= 2):
            raise GraphFormatError(f"line {lineno}: unknown record")
        ids = _ints(parts[1:], lineno, "field")
        if kind == "mcc":
            if header is not None:
                raise GraphFormatError(f"line {lineno}: second mcc header")
            if min(ids) < 0:
                raise GraphFormatError(f"line {lineno}: negative header field")
            header = (ids[0], ids[1])
        elif kind == "class":
            if ids[0] in classes:
                raise GraphFormatError(f"line {lineno}: duplicate class {ids[0]}")
            classes[ids[0]] = (lineno, ids[1:])
        else:
            raw_edges.append((ids[0], ids[1]))
    if header is None:
        raise GraphFormatError("missing mcc header")
    k, n = header
    for i, (lineno, _) in classes.items():
        if not 1 <= i <= k:
            raise GraphFormatError(f"line {lineno}: class {i} outside 1..{k}")
    where: dict[int, ClassVertex] = {}
    for i in range(1, k + 1):
        _, ids = classes.get(i, (0, None))
        if ids is None or len(ids) != n:
            raise GraphFormatError(f"class {i} must list exactly {n} ids")
        for j, vid in enumerate(ids, start=1):
            if vid in where:
                raise GraphFormatError(f"vertex id {vid} in two classes")
            where[vid] = (i, j)
    edges = set()
    for u, v in raw_edges:
        if u not in where or v not in where:
            raise GraphFormatError(f"edge ({u},{v}) references unknown id")
        edges.add(frozenset((where[u], where[v])))
    return MccInstance(k, n, frozenset(edges))


def format_mcc(inst: MccInstance) -> str:
    out = [f"mcc {inst.k} {inst.n}"]
    gid = lambda cv: (cv[0] - 1) * inst.n + cv[1]
    for i in range(1, inst.k + 1):
        ids = [str((i - 1) * inst.n + j) for j in range(1, inst.n + 1)]
        out.append(f"class {i} " + " ".join(ids))
    for e in sorted(inst.edges, key=lambda e: sorted(gid(cv) for cv in e)):
        a, b = sorted(gid(cv) for cv in e)
        out.append(f"e {a} {b}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class MccReduction:
    graph: CapacitatedGraph
    budget: int
    witness: TreedepthWitness
    meta: ChoiceGroups
    choice_groups: tuple[frozenset[int], ...]
    edge_groups: tuple[frozenset[int], ...]
    clique_selection: dict  # (class, index) -> per-instance chosen vertex ids


class _Builder(Builder):
    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.marked: list[int] = []
        self.parent: dict[int, int] = {}
        self.choice_instances: list[dict] = []
        self.edge_groups: list[tuple[int, frozenset[int], dict]] = []

    def marked_vertex(self, dem: int) -> int:
        v = self.vertex(dem)
        self.marked.append(v)
        return v

    def unary(self, v: int, j: int, lo: int, hi: int) -> None:
        """Index j in unary from both ends: j parallel pendant-forced
        degree-2 vertices between v and lo, then n - j between v and hi,
        all hanging under v in the witness."""
        for count, hub in ((j, lo), (self.n - j, hi)):
            for _ in range(count):
                z = self.marked_vertex(1)
                self.edge(z, v)
                self.edge(z, hub)
                self.parent[z] = v

    def choice_instance(self, cls: int) -> dict:
        head = self.marked_vertex(1)
        picks = [self.vertex() for _ in range(self.n)]
        for v in picks:
            self.edge(head, v)
        inst = {"class": cls, "head": head, "picks": picks}
        self.choice_instances.append(inst)
        return inst


def _build_gadget(b: _Builder, epair, lo1, hi1, lo2, hi2) -> dict:
    n = b.n
    row = {p: b.choice_instance(p) for p in range(lo1, hi1 + 1)}
    col = {p: b.choice_instance(p) for p in range(lo2, hi2 + 1)}
    if lo1 == hi1 and lo2 == hi2:
        i, ip = lo1, lo2
        ehead = b.marked_vertex(1)
        alpha = b.marked_vertex(n)
        beta = b.marked_vertex(n)
        kappa = b.marked_vertex(n)
        lam = b.marked_vertex(n)
        pair_vertices: dict[tuple[int, int], int] = {}
        for j, jp in epair(i, ip):
            ve = b.vertex()
            pair_vertices[(j, jp)] = ve
            b.edge(ehead, ve)
        for j, v in enumerate(row[i]["picks"], start=1):
            b.unary(v, j, alpha, beta)
        for jp, v in enumerate(col[ip]["picks"], start=1):
            b.unary(v, jp, kappa, lam)
        for (j, jp), ve in pair_vertices.items():
            b.unary(ve, n - j, alpha, beta)
            b.unary(ve, n - jp, kappa, lam)
        chain = [alpha, beta, kappa, lam, ehead, row[i]["head"], col[ip]["head"]]
        for prev, cur in zip(chain, chain[1:]):
            b.parent[cur] = prev
        bottom = chain[-1]
        for v in row[i]["picks"] + col[ip]["picks"]:
            b.parent[v] = bottom
        for ve in pair_vertices.values():
            b.parent[ve] = bottom
        b.edge_groups.append(((i, ip), frozenset(pair_vertices.values()), pair_vertices))
        return {"row": row, "col": col, "top": chain[0]}

    mid1 = (lo1 + hi1) // 2
    mid2 = (lo2 + hi2) // 2
    subs = [
        _build_gadget(b, epair, lo1, mid1, lo2, mid2),
        _build_gadget(b, epair, lo1, mid1, mid2 + 1, hi2),
        _build_gadget(b, epair, mid1 + 1, hi1, lo2, mid2),
        _build_gadget(b, epair, mid1 + 1, hi1, mid2 + 1, hi2),
    ]
    copy_vertices: list[int] = []

    def copy_gadget(parent_inst: dict, sub_inst: dict) -> None:
        g1 = b.marked_vertex(n)
        g2 = b.marked_vertex(n)
        copy_vertices.extend((g1, g2))
        for j, v in enumerate(parent_inst["picks"], start=1):
            b.unary(v, j, g1, g2)
        for j, v in enumerate(sub_inst["picks"], start=1):
            b.unary(v, n - j, g1, g2)

    for p in range(lo1, hi1 + 1):
        pair = (subs[0], subs[1]) if p <= mid1 else (subs[2], subs[3])
        copy_gadget(row[p], pair[0]["row"][p])
        copy_gadget(row[p], pair[1]["row"][p])
    for p in range(lo2, hi2 + 1):
        pair = (subs[0], subs[2]) if p <= mid2 else (subs[1], subs[3])
        copy_gadget(col[p], pair[0]["col"][p])
        copy_gadget(col[p], pair[1]["col"][p])

    for prev, cur in zip(copy_vertices, copy_vertices[1:]):
        b.parent[cur] = prev
    bottom = copy_vertices[-1]
    for sub in subs:
        b.parent[sub["top"]] = bottom
    for inst in list(row.values()) + list(col.values()):
        b.parent[inst["head"]] = bottom
        for v in inst["picks"]:
            b.parent[v] = inst["head"]
    return {"row": row, "col": col, "top": copy_vertices[0]}


def _padded(k: int) -> int:
    """The class count the gadget recursion runs on: k rounded up to a
    power of two, the new classes adjacent to everything else."""
    kk = 1
    while kk < k:
        kk *= 2
    return kk


def _class_size(inst: MccInstance) -> int:
    """Vertices per class in the gadgets: n, but at least 1 when k = 0, so
    that the lone padding class still gives its choice head a pick and the
    empty clique stays a yes-input."""
    return inst.n if inst.k else max(inst.n, 1)


def _output_vertices(inst: MccInstance) -> int:
    """Vertices of ``reduce_mcc_td(inst)``, counted without building it.

    The gadget recursion halves both class ranges of kk = ``_padded(k)``
    classes, so it has (kk / r)^2 gadgets of range r for r = kk, kk/2,
    ..., 1, and one base gadget per ordered class pair.  A base gadget of
    pair (i, i') has one pair vertex per edge between the two classes: n
    on the diagonal, n^2 when a padding class takes part, and otherwise
    the pair's cross edges, each counted for both orders.
    """
    k, n = inst.k, _class_size(inst)
    kk = _padded(k)
    pairs = kk * n + 2 * len(inst.edges) + (kk * (kk - 1) - k * (k - 1)) * n * n
    gamma = 2 * kk * (2 * kk - 1)  # choice instances: 2r per gadget of range r
    delta = (  # marked vertices
        gamma  # choice heads
        + 8 * kk * (kk - 1) * (1 + n * n)  # 4r copy gadgets per gadget of range r > 1
        + kk * kk * (5 + 2 * n * n)  # base hubs, unary bundles of the row and column picks
        + 2 * n * pairs  # unary bundles of the pair vertices
    )
    budget = kk * kk + gamma + delta
    # n picks per choice instance, the pair vertices, and each marked
    # vertex with its budget + 1 pendant leaves
    return gamma * n + pairs + delta * (budget + 2)


def reduce_mcc_td(inst: MccInstance) -> MccReduction:
    """Emit the derived instance, its budget, a tree-depth witness, and the
    canonical-space metadata (choice groups first, then edge groups).
    Refuses an output above ``MAX_TD_VERTICES`` vertices before building
    any of it."""
    k, n = inst.k, _class_size(inst)
    size = _output_vertices(inst)
    if size > MAX_TD_VERTICES:
        raise CapExceededError(f"mcc-td output would have {size} vertices, cap is {MAX_TD_VERTICES}")
    kk = _padded(k)

    def epair(i, ip):
        if i == ip:
            return [(j, j) for j in range(1, n + 1)]
        padding = max(i, ip) > k  # a padding class is adjacent to everything else
        return [
            (j, jp)
            for j in range(1, n + 1)
            for jp in range(1, n + 1)
            if padding or frozenset(((i, j), (ip, jp))) in inst.edges
        ]

    b = _Builder(n)
    root = _build_gadget(b, epair, 1, kk, 1, kk)
    b.parent[root["top"]] = 0

    gamma = len(b.choice_instances)
    delta = len(b.marked)
    budget = kk * kk + gamma + delta

    for v in b.marked:
        for leaf in b.pin(v, budget + 1):
            b.parent[leaf] = v
    graph = b.graph(budget)
    witness = TreedepthWitness(dict(b.parent))

    choice_groups = tuple(frozenset(inst_["picks"]) for inst_ in b.choice_instances)
    edge_groups = tuple(grp for _, grp, _ in b.edge_groups)
    meta = ChoiceGroups(
        frozenset(b.marked), choice_groups + edge_groups, frozenset()
    )
    selection: dict = {}
    for inst_ in b.choice_instances:
        for j, vid in enumerate(inst_["picks"], start=1):
            selection.setdefault((inst_["class"], j), []).append(vid)
    for (pair, _, mapping) in b.edge_groups:
        selection[("edge", pair)] = mapping
    return MccReduction(
        graph, budget, witness, meta, choice_groups, edge_groups, selection
    )
