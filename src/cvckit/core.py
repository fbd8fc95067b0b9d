"""Capacitated graph instances, edge orientations, and assignment feasibility.

A problem instance is a simple undirected graph with one non-negative
capacity per vertex and an optional decision budget.  Solvers work on the
orientation view: every edge is directed toward the endpoint that covers
it, a vertex may receive at most its capacity, and the objective counts
vertices with positive in-degree.  The reference solvers in ``oracle``
ask whether the edges fit into a chosen vertex set (``orient_into``):
edges with one chosen endpoint are folded onto it, and the rest are
placed by augmenting paths.

Instance and certificate files are line-oriented records, read line by
line with ``#`` comments and line numbers in every error.  Text in
exactly the shape the formatters write (a header, then lines ``<kw>
<digits> <digits>``, each ended by a newline) is read in one pass
instead: one regex checks its shape, one C-level pass (``json``) reads
every integer, and the object it describes is checked as a whole (an
instance by the ``CapacitatedGraph`` constructor).  Any other text, and
any text that fails such a check, is read by the per-line code, which
alone decides every error and its message.

All objects here are immutable after construction and every operation is
a pure function of its inputs, so instances can be shared freely across
threads or worker processes.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence


class GraphFormatError(ValueError):
    """Malformed instance or certificate text."""


class StructuralError(ValueError):
    """Structured input violates its contract (wrong arc set, bad groups, ...)."""


class CapExceededError(RuntimeError):
    """An exact search would exceed its configured size cap."""


Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class CapacitatedGraph:
    """Simple undirected graph with per-vertex capacities.

    Vertices are the contiguous ids 1..n.  Edges are stored as sorted
    (u, v) pairs in lexicographic order; loops and parallel edges are
    rejected.  ``budget`` is the optional decision bound carried by the
    instance file.
    """

    n: int
    edges: tuple[Edge, ...]
    capacity: tuple[int, ...]  # index 0 unused, capacity[v] for v in 1..n
    budget: int | None = None

    def __post_init__(self):
        if self.n < 0:
            raise StructuralError("vertex count must be non-negative")
        self._check_capacity()
        prev = (0, 0)
        for e in self.edges:
            u, v = e
            if u == v:
                raise StructuralError(f"loop at vertex {u}")
            if not (1 <= u < v <= self.n):
                raise StructuralError(f"edge ({u},{v}) outside the vertex ids 1..{self.n} or not canonical")
            if e <= prev:  # strictly increasing, so no duplicates either
                if e == prev:
                    raise StructuralError(f"repeated edge ({u},{v})")
                raise StructuralError("edges not in canonical order")
            prev = e

    def _check_capacity(self) -> None:
        if len(self.capacity) != self.n + 1:
            raise StructuralError("capacity table must have one entry per vertex")

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        capacity: Mapping[int, int] | Sequence[int],
        budget: int | None = None,
    ) -> "CapacitatedGraph":
        """Construct from unordered edge pairs and a capacity map or list."""
        canon = sorted({canonical_edge(u, v) for u, v in edges})
        if isinstance(capacity, Mapping):
            caps = [0] * (n + 1)
            for v, c in capacity.items():
                caps[v] = c
        else:
            caps = list(capacity)
            if len(caps) == n:  # allow 0-based lists
                caps = [0] + caps
        return cls(n, tuple(canon), tuple(caps), budget)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degree(self) -> tuple[int, ...]:
        deg = [0] * (self.n + 1)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def deg(self, v: int) -> int:
        return self.degree[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def with_capacity(self, capacity: Sequence[int]) -> "CapacitatedGraph":
        """The same graph with new capacities.  The edges were checked when
        this graph was built, so only the capacity table is checked here;
        the cached adjacency, degrees and edge set carry over."""
        g = object.__new__(CapacitatedGraph)
        g.__dict__.update(self.__dict__, capacity=tuple(capacity))
        g._check_capacity()
        return g


class Orientation:
    """One arc per edge of an underlying graph, stored as edge -> head."""

    __slots__ = ("heads",)

    def __init__(self, heads: Mapping[Edge, int]):
        self.heads = dict(heads)

    def arcs(self):
        """Yield (tail, head) pairs."""
        for (u, v), head in self.heads.items():
            yield (v if head == u else u, head)

    def indegrees(self, n: int) -> list[int]:
        indeg = [0] * (n + 1)
        for head in self.heads.values():
            indeg[head] += 1
        return indeg

    def __len__(self) -> int:
        return len(self.heads)

    def __eq__(self, other) -> bool:
        return isinstance(other, Orientation) and self.heads == other.heads

    def __repr__(self) -> str:
        return f"Orientation({len(self.heads)} arcs)"


@dataclass(frozen=True)
class FeasReport:
    """Outcome of checking an orientation against capacities."""

    feasible: bool
    size: int
    violations: tuple[tuple[int, int, int], ...]  # (vertex, indeg, capacity)


def normalize_capacities(g: CapacitatedGraph) -> CapacitatedGraph:
    """Clamp every capacity into [0, deg(v)]; isolated vertices get 0.

    Answer-preserving for both the decision and the optimization query,
    since no vertex can ever receive more than deg(v) edges.  Idempotent:
    a graph whose capacities are all in range is returned as it is.
    """
    deg = g.degree
    if min(g.capacity) >= 0 and all(map(operator.le, g.capacity, deg)):
        return g
    caps = list(g.capacity)
    for v in range(1, g.n + 1):
        caps[v] = min(max(caps[v], 0), deg[v])
    return g.with_capacity(caps)


def verify_orientation(g: CapacitatedGraph, orientation: Orientation) -> FeasReport:
    """Check that an orientation covers exactly E(G) and respects capacities."""
    if set(orientation.heads) != g.edge_set:
        raise StructuralError("orientation arc set does not match the instance edges")
    for (u, v), head in orientation.heads.items():
        if head not in (u, v):
            raise StructuralError(f"arc head {head} not an endpoint of ({u},{v})")
    indeg = orientation.indegrees(g.n)
    violations = tuple(
        (v, indeg[v], g.capacity[v])
        for v in range(1, g.n + 1)
        if indeg[v] > g.capacity[v]
    )
    size = sum(1 for v in range(1, g.n + 1) if indeg[v] > 0)
    return FeasReport(not violations, size, violations)


def _fold(
    edges: Sequence[Edge],
    capacity: Sequence[int],
    selected: frozenset[int] | set[int],
) -> tuple[list[Edge], dict[int, int]] | None:
    """Settle every edge that does not have both endpoints in ``selected``.

    An edge with one selected endpoint can only point there, so it is
    charged to that endpoint's capacity.  Returns (core, room): the edges
    with both endpoints selected, and each selected vertex's capacity left
    after the charges.  None when an edge has no selected endpoint or the
    charges exceed a capacity.
    """
    room = {v: capacity[v] for v in selected}
    core = []
    for e in edges:
        u, v = e
        if u in room:
            if v in room:
                core.append(e)
                continue
            w = u
        elif v in room:
            w = v
        else:
            return None
        room[w] -= 1
        if room[w] < 0:
            return None
    return core, room


def _augment(edges: Sequence[Edge], room: dict[int, int]) -> list[int] | None:
    """One head per edge such that vertex v receives at most ``room[v]``
    edges, or None when no such choice exists.  Uses up ``room``.

    Each edge goes to a vertex with room, found by a BFS from its two
    endpoints (the one with more room first) that walks placed edges
    backwards, from their head to their other endpoint; the edges on the
    path are flipped.  That is an augmenting path of the edge -> vertex
    flow network, and all earlier edges are placed, so an edge without one
    proves that not every edge fits.
    """
    heads: list[int] = []
    placed: dict[int, list[int]] = {}  # vertex -> indices of placed edges touching it
    for i, (u, v) in enumerate(edges):
        via: dict[int, tuple[int, int] | None] = {u: None, v: None}
        queue = [u, v] if room[u] >= room[v] else [v, u]
        for x in queue:
            if room[x] > 0:
                break
            for j in placed.get(x, ()):
                a, b = edges[j]
                y = b if a == x else a
                if heads[j] == x and y not in via:
                    via[y] = (j, x)
                    queue.append(y)
        else:
            return None
        room[x] -= 1
        while via[x] is not None:
            j, y = via[x]
            heads[j] = x
            x = y
        heads.append(x)
        placed.setdefault(u, []).append(i)
        placed.setdefault(v, []).append(i)
    return heads


def orient_into(
    edges: Sequence[Edge],
    capacity: Sequence[int],
    selected: frozenset[int] | set[int],
) -> dict[Edge, int] | None:
    """Assign each edge a head inside ``selected`` without exceeding capacities.

    Edges with one selected endpoint are folded onto it (``_fold``); the
    edges with both endpoints selected are placed by augmenting paths
    (``_augment``).  Returns edge -> head, or None.
    """
    folded = _fold(edges, capacity, selected)
    if folded is None:
        return None
    core, room = folded
    core_heads = _augment(core, room)
    if core_heads is None:
        return None
    heads = {e: e[0] if e[0] in selected else e[1] for e in edges}
    heads.update(zip(core, core_heads))
    return heads


def assign_edges(g: CapacitatedGraph, selected: Iterable[int]) -> Orientation | None:
    """Orientation with in-degree 0 outside ``selected`` and capacities
    respected inside, or None when no such orientation exists.

    Deterministic for a fixed input.
    """
    sel = frozenset(selected)
    heads = orient_into(g.edges, g.capacity, sel)
    if heads is None:
        return None
    return Orientation(heads)


# ---------------------------------------------------------------------------
# instance and certificate files

def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _ints(fields: Iterable[str], lineno: int, what: str) -> list[int]:
    """The integer value of each field of line ``lineno``; a field that is
    not an integer is a ``GraphFormatError`` naming ``what`` it was."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer {what}") from None


# keywords and newlines dropped, spaces made commas: ``<kw> <a> <b>\n`` becomes ``,<a>,<b>``
_JSON_INTEGERS = str.maketrans(" ", ",", "\nabcdefghijklmnopqrstuvwxyz")


def _plain_records(text: str, *blocks: tuple[str, int]) -> list[tuple[list[int], list[int]]] | None:
    """The two integer columns of each block of ``text``, or None.

    ``text`` qualifies when it is exactly the blocks in order, block
    ``(kw, count)`` being ``count`` lines ``<kw> <digits> <digits>``, each
    ended by a newline: no comment, blank line, other whitespace, sign,
    leading zero or non-ASCII digit.  The line count is compared first, so
    that nothing of a declared size is read or allocated before the text is
    known to hold that many lines.  One regex then checks the whole shape;
    its repeats are possessive, so the matcher keeps no backtracking state
    per line.  One C-level pass reads every integer: the text, translated to
    comma-separated digits, is read as one JSON list, and each column is a
    stride-2 slice of it.
    """
    if text.count("\n") != sum(count for _, count in blocks):
        return None
    if re.fullmatch("".join(f"(?:{kw} [0-9]++ [0-9]++\n){{{count}}}+" for kw, count in blocks), text) is None:
        return None
    try:
        numbers = json.loads(f"[0{text.translate(_JSON_INTEGERS)}]")
    except ValueError:  # a leading zero, or more digits than int() converts
        return None
    columns = []
    start = 1
    for _, count in blocks:
        stop = start + 2 * count
        columns.append((numbers[start:stop:2], numbers[start + 1:stop:2]))
        start = stop
    return columns


_PLAIN_HEADER = re.compile(r"cvc ([0-9]+) ([0-9]+)(?: ([0-9]+))?")


def _parse_plain_instance(text: str) -> CapacitatedGraph | None:
    """The graph of an instance file in the shape ``format_instance``
    writes (vertex lines 1..n in order, then canonical edges in strictly
    increasing order), or None for any other text.  The constructor checks
    the edges; text it refuses is None too, so that the per-line reader
    names the bad line."""
    head, _, body = text.partition("\n")
    header = _PLAIN_HEADER.fullmatch(head)
    if header is None:
        return None
    try:
        n, m = int(header[1]), int(header[2])
        budget = None if header[3] is None else int(header[3])
    except ValueError:  # more digits than int() converts
        return None
    records = _plain_records(body, ("v", n), ("e", m))
    if records is None:
        return None
    (ids, caps), (us, vs) = records
    if ids != list(range(1, n + 1)):
        return None
    try:
        return CapacitatedGraph(n, tuple(zip(us, vs)), (0, *caps), budget)
    except StructuralError:
        return None


def parse_instance(text: str) -> CapacitatedGraph:
    """Parse the line-oriented instance format.

    Header ``cvc <n> <m>`` with an optional trailing budget, then ``v <id>
    <capacity>`` for every vertex and ``e <u> <v>`` per edge.  ``#`` starts
    a comment.  Errors carry the offending line number.

    Text exactly as ``format_instance`` writes it is read in one pass and
    checked by the ``CapacitatedGraph`` constructor; any other text, or
    text that fails one of those checks, is read line by line, which
    accepts the same graphs and gives every error.
    """
    g = _parse_plain_instance(text)
    return g if g is not None else _parse_instance_lines(text)


def _parse_instance_lines(text: str) -> CapacitatedGraph:
    """``parse_instance`` one line at a time, with every error and its line."""
    lines = list(_content_lines(text))
    if not lines:
        raise GraphFormatError("empty instance")
    lineno, head = lines[0]
    if head[0] != "cvc" or len(head) not in (3, 4):
        raise GraphFormatError(f"line {lineno}: expected 'cvc <n> <m> [k]'")
    n, m, *rest = _ints(head[1:], lineno, "header field")
    budget = rest[0] if rest else None
    if n < 0 or m < 0 or (budget is not None and budget < 0):
        raise GraphFormatError(f"line {lineno}: negative header field")
    if max(n, m) > len(lines) - 1:
        raise GraphFormatError(
            f"line {lineno}: header declares {n} vertices and {m} edges, "
            f"but only {len(lines) - 1} records follow"
        )

    caps = [None] * (n + 1)
    edges: list[Edge] = []
    seen_edges: set[Edge] = set()
    for lineno, parts in lines[1:]:
        kind = parts[0]
        if kind == "v":
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'v <id> <capacity>'")
            v, c = _ints(parts[1:], lineno, "vertex field")
            if not 1 <= v <= n:
                raise GraphFormatError(f"line {lineno}: unknown vertex id {v}")
            if caps[v] is not None:
                raise GraphFormatError(f"line {lineno}: duplicate vertex line for {v}")
            if c < 0:
                raise GraphFormatError(f"line {lineno}: negative capacity")
            caps[v] = c
        elif kind == "e":
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = _ints(parts[1:], lineno, "edge field")
            if u == v:
                raise GraphFormatError(f"line {lineno}: loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"line {lineno}: unknown vertex id in edge")
            e = canonical_edge(u, v)
            if e in seen_edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u},{v})")
            seen_edges.add(e)
            edges.append(e)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{kind}'")
    missing = [v for v in range(1, n + 1) if caps[v] is None]
    if missing:
        raise GraphFormatError(f"missing capacity line for vertex {missing[0]}")
    if len(edges) != m:
        raise GraphFormatError(f"declared {m} edges, found {len(edges)}")
    return CapacitatedGraph(n, tuple(sorted(edges)), (0, *caps[1:]), budget)


def format_instance(g: CapacitatedGraph) -> str:
    """The header, one ``v <id> <capacity>`` line per vertex, then one
    ``e <u> <v>`` line per edge; each block is one template format."""
    head = f"cvc {g.n} {len(g.edges)}" + ("" if g.budget is None else f" {g.budget}")
    vertices = "v %d %d\n" * g.n % tuple(chain.from_iterable(zip(range(1, g.n + 1), g.capacity[1:])))
    return f"{head}\n{vertices}" + "e %d %d\n" * len(g.edges) % tuple(chain.from_iterable(g.edges))


def parse_orientation(text: str, g: CapacitatedGraph) -> Orientation:
    """Parse an ``a <tail> <head>`` certificate against an instance.

    Text in the plain shape (one ``a`` line per instance edge and nothing
    else) is read in one pass; any other text is read line by line.
    """
    records = _plain_records(text, ("a", len(g.edges)))
    if records is not None:
        [(tails, heads)] = records
        arcs = dict(zip([(t, h) if t < h else (h, t) for t, h in zip(tails, heads)], heads))
        # as many lines as edges: equal key sets mean every arc lies over an
        # edge and none is repeated
        if arcs.keys() == g.edge_set:
            return Orientation(arcs)
    return _parse_orientation_lines(text, g)


def _parse_orientation_lines(text: str, g: CapacitatedGraph) -> Orientation:
    """``parse_orientation`` one line at a time, with every error and its line."""
    heads: dict[Edge, int] = {}
    for lineno, parts in _content_lines(text):
        if parts[0] != "a" or len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'a <tail> <head>'")
        tail, head = _ints(parts[1:], lineno, "arc field")
        e = canonical_edge(tail, head)
        if e not in g.edge_set:
            raise StructuralError(f"line {lineno}: arc over a non-edge ({tail},{head})")
        if e in heads:
            raise StructuralError(f"line {lineno}: duplicate arc for edge {e}")
        heads[e] = head
    if len(heads) != len(g.edges):
        raise StructuralError("certificate does not cover every edge")
    return Orientation(heads)


def format_orientation(orientation: Orientation) -> str:
    """One ``a <tail> <head>`` line per arc in sorted order, as one template
    format; an orientation without arcs is a single newline."""
    arcs = sorted(orientation.arcs())
    return "a %d %d\n" * len(arcs) % tuple(chain.from_iterable(arcs)) or "\n"
