"""Set multicover to capacitated vertex cover.

One element vertex per universe element (forced by a bundle of pendant
leaves), one set vertex per input set with capacity equal to its degree,
and element capacities short by the coverage demand, so each element must
push that many edges onto selected set vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core import CapacitatedGraph, CapExceededError, GraphFormatError, _content_lines, _ints
from ..oracle import ChoiceGroups
from ._builder import Builder

MAX_SMC_VERTICES = 10**6  # larger smc outputs are refused before they are built


@dataclass(frozen=True)
class SmcInstance:
    universe_size: int
    sets: tuple[frozenset[int], ...]
    demand: int
    budget: int

    def __post_init__(self):
        for s in self.sets:
            if fault := _set_fault(s, self.universe_size):
                raise GraphFormatError(fault)


def _set_fault(elements: Iterable[int], universe_size: int) -> str | None:
    """Which element lies outside 1..universe_size, or None."""
    x = next((x for x in elements if not 1 <= x <= universe_size), None)
    return None if x is None else f"element {x} outside universe"


@dataclass(frozen=True)
class SmcReduction:
    graph: CapacitatedGraph
    budget: int
    meta: ChoiceGroups
    element_vertices: tuple[int, ...]
    set_vertices: tuple[int, ...]


def reduce_smc(inst: SmcInstance) -> SmcReduction:
    """Emit the derived instance with budget m + k.

    Pendant leaves carry capacity 0, so they can never absorb a pushed
    edge: an element short of coverage stays uncoverable and the
    equivalence holds for degenerate inputs too.  The element vertices
    form a vertex cover of the output by construction.  Refuses an output
    above ``MAX_SMC_VERTICES`` vertices before building any of it.
    """
    kprime = inst.universe_size + inst.budget
    # element and set vertices, and kprime + 1 leaves per element
    size = inst.universe_size * (kprime + 2) + len(inst.sets)
    if size > MAX_SMC_VERTICES:
        raise CapExceededError(f"smc output would have {size} vertices, cap is {MAX_SMC_VERTICES}")
    b = Builder()
    elements = tuple(b.vertex(inst.demand) for _ in range(inst.universe_size))
    set_vertices = tuple(b.vertex() for _ in inst.sets)
    for s, u in zip(inst.sets, set_vertices):
        for x in sorted(s):
            b.edge(x, u)
    for x in elements:
        b.pin(x, kprime + 1, demand=1)
    graph = b.graph(kprime)
    meta = ChoiceGroups(frozenset(elements), (), frozenset(set_vertices))
    return SmcReduction(graph, kprime, meta, elements, set_vertices)


def parse_smc(text: str) -> SmcInstance:
    """``smc <m> <n> <b> <k>`` then one ``set <j> <elements...>`` per set."""
    header = None
    sets: dict[int, frozenset[int]] = {}
    for lineno, parts in _content_lines(text):
        if parts[0] == "smc":
            if header is not None or len(parts) != 5:
                raise GraphFormatError(f"line {lineno}: bad smc header")
            header = _ints(parts[1:], lineno, "header")
            if min(header) < 0:
                raise GraphFormatError(f"line {lineno}: negative header field")
        elif parts[0] == "set":
            if header is None:
                raise GraphFormatError(f"line {lineno}: set before header")
            if len(parts) < 2:
                raise GraphFormatError(f"line {lineno}: expected 'set <j> <elements...>'")
            j, *elems = _ints(parts[1:], lineno, "set field")
            if j in sets:
                raise GraphFormatError(f"line {lineno}: duplicate set {j}")
            if fault := _set_fault(elems, header[0]):
                raise GraphFormatError(f"line {lineno}: {fault}")
            sets[j] = frozenset(elems)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{parts[0]}'")
    if header is None:
        raise GraphFormatError("missing smc header")
    m, n, b, k = header
    if len(sets) != n or set(sets) != set(range(1, n + 1)):
        raise GraphFormatError(f"expected sets 1..{n}")
    return SmcInstance(m, tuple(sets[j] for j in range(1, n + 1)), b, k)


def format_smc(inst: SmcInstance) -> str:
    out = [f"smc {inst.universe_size} {len(inst.sets)} {inst.demand} {inst.budget}"]
    for j, s in enumerate(inst.sets, start=1):
        out.append(f"set {j} " + " ".join(map(str, sorted(s))))
    return "\n".join(line.rstrip() for line in out) + "\n"
