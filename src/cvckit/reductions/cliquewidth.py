"""Linear clique-width expressions over at most six labels, with a replayer.

An expression is a flat script of intro / join / relabel operations.  The
verifier replays it and compares the resulting labeled graph against a
target instance, vertex ids and edge set both exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from ..core import CapacitatedGraph, GraphFormatError, StructuralError, _content_lines, _ints

MAX_LABELS = 6

Op = tuple  # ("intro", vertex, label) | ("join", a, b) | ("relabel", a, b)


@dataclass(frozen=True)
class CliquewidthExpression:
    ops: tuple[Op, ...]


def _check_label(label: int) -> int:
    if not 1 <= label <= MAX_LABELS:
        raise StructuralError(f"unknown label {label} (alphabet is 1..{MAX_LABELS})")
    return label


def replay(
    expr: CliquewidthExpression, max_edges: int | float = math.inf
) -> tuple[set[int], set[tuple[int, int]] | None]:
    """Execute the script; returns (vertices, edges) of the built graph.

    Once the graph would have more than ``max_edges`` edges no more are
    built and ``edges`` comes back None; the rest of the script is still
    checked.  Labels partition the vertices, so the pairs of one join are
    distinct, and a join over more pairs than that is not built at all.
    """
    by_label: dict[int, set[int]] = {lab: set() for lab in range(1, MAX_LABELS + 1)}
    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for op in expr.ops:
        kind = op[0]
        if kind == "intro":
            _, v, label = op
            _check_label(label)
            if v in vertices:
                raise StructuralError(f"vertex {v} introduced twice")
            vertices.add(v)
            by_label[label].add(v)
        elif kind == "join":
            _, a, b = op
            _check_label(a)
            _check_label(b)
            if a == b:
                raise StructuralError("join needs two distinct labels")
            if edges is not None and len(by_label[a]) * len(by_label[b]) > max_edges:
                edges = None
            if edges is not None:
                for u in by_label[a]:
                    for v in by_label[b]:
                        edges.add((u, v) if u < v else (v, u))
                if len(edges) > max_edges:
                    edges = None
        elif kind == "relabel":
            _, a, b = op
            _check_label(a)
            _check_label(b)
            if a != b:
                by_label[b] |= by_label[a]
                by_label[a] = set()
        else:
            raise StructuralError(f"unknown operation '{kind}'")
    return vertices, edges


def verify_cw_expression(expr: CliquewidthExpression, g: CapacitatedGraph) -> bool:
    """True iff the script rebuilds exactly the instance graph."""
    vertices, edges = replay(expr, len(g.edges))
    return edges is not None and vertices == set(g.vertices()) and edges == set(g.edges)


def parse_expression(text: str) -> CliquewidthExpression:
    ops: list[Op] = []
    for lineno, parts in _content_lines(text):
        if parts[0] not in ("intro", "join", "relabel") or len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: unknown operation")
        ops.append((parts[0], *_ints(parts[1:], lineno, "field")))
    return CliquewidthExpression(tuple(ops))


def format_expression(expr: CliquewidthExpression) -> str:
    return "\n".join(" ".join(map(str, op)) for op in expr.ops) + "\n"
