"""Exactly-one-in-three SAT to capacitated vertex cover, two ways.

The natural-parameter construction groups variables and clauses, picks one
partial assignment per variable group through a choice gadget, and audits
clause satisfaction only through aggregate counts over a detecting family.
The clique-width construction keeps the graph's label structure flat
(complete bipartite clause/literal sides plus selector pairs) and encodes
clause incidence purely through capacities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ..core import CapacitatedGraph, CapExceededError, GraphFormatError, StructuralError, _ints
from ..detecting import DetectingFamily, is_detecting
from ..oracle import ChoiceGroups
from ._builder import Builder
from .cliquewidth import CliquewidthExpression

Literal = tuple[int, bool]  # (variable, positive?)

MAX_NATURAL_VERTICES = 10**6  # larger sat-natural outputs, or twice as many edges, are refused before they are built
MAX_CW_VERTICES = 10**6  # larger sat-cw outputs are refused before they are built


@dataclass(frozen=True)
class Cnf1in3:
    """CNF with exactly three distinct variables per clause; the query is
    an assignment making exactly one literal true per clause."""

    num_vars: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if fault := _clause_fault(clause, self.num_vars):
                raise GraphFormatError(fault)

    def occurrences(self, var: int) -> int:
        return sum(1 for clause in self.clauses for v, _ in clause if v == var)

    def within_degree_bound(self, limit: int = 4) -> bool:
        return all(self.occurrences(v) <= limit for v in range(1, self.num_vars + 1))


def _clause_fault(clause: tuple[Literal, ...], num_vars: int) -> str | None:
    """Why ``clause`` is not three distinct variables in 1..num_vars, or None."""
    vs = [v for v, _ in clause]
    if len(set(vs)) != 3:
        return "clauses need three distinct variables"
    if any(not 1 <= v <= num_vars for v in vs):
        return "clause variable out of range"
    return None


def parse_dimacs(text: str) -> Cnf1in3:
    num_vars = None
    declared = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "cnf":
                raise GraphFormatError(f"line {lineno}: expected 'p cnf <n> <m>'")
            if num_vars is not None:
                raise GraphFormatError(f"line {lineno}: second 'p cnf' header")
            num_vars, declared = _ints(parts[2:], lineno, "header field")
            if min(num_vars, declared) < 0:
                raise GraphFormatError(f"line {lineno}: negative header field")
            continue
        if num_vars is None:
            raise GraphFormatError(f"line {lineno}: clause before header")
        lits = _ints(parts, lineno, "literal")
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if 0 in lits:
            raise GraphFormatError(f"line {lineno}: literal 0 before the clause end")
        if len(lits) != 3:
            raise GraphFormatError(f"line {lineno}: expected exactly 3 literals")
        clause = tuple((abs(x), x > 0) for x in lits)
        if fault := _clause_fault(clause, num_vars):
            raise GraphFormatError(f"line {lineno}: {fault}")
        clauses.append(clause)
    if num_vars is None:
        raise GraphFormatError("missing 'p cnf' header")
    if declared is not None and declared != len(clauses):
        raise GraphFormatError(f"declared {declared} clauses, found {len(clauses)}")
    return Cnf1in3(num_vars, tuple(clauses))


def format_dimacs(psi: Cnf1in3) -> str:
    out = [f"p cnf {psi.num_vars} {len(psi.clauses)}"]
    for clause in psi.clauses:
        out.append(" ".join(str(v if pos else -v) for v, pos in clause) + " 0")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# grouping

@dataclass(frozen=True)
class Grouping:
    variable_groups: tuple[tuple[int, ...], ...]
    clause_groups: tuple[tuple[int, ...], ...]  # clause indices, 0-based


def _occurrences(psi: Cnf1in3, grouping: Grouping) -> dict[tuple[int, int], tuple[int, Literal]] | None:
    """The occurrence of each variable group p inside each clause group i,
    as ``{(p, i): (clause index, literal)}``, found in one walk over every
    clause group's literals.  None unless the groups partition the
    variables and the clauses and no pair of groups shares two occurrences."""
    vs = sorted(v for grp in grouping.variable_groups for v in grp)
    if vs != list(range(1, psi.num_vars + 1)):
        return None
    cs = sorted(c for grp in grouping.clause_groups for c in grp)
    if cs != list(range(len(psi.clauses))):
        return None
    group_of = {v: p for p, vgroup in enumerate(grouping.variable_groups) for v in vgroup}
    occurrence: dict[tuple[int, int], tuple[int, Literal]] = {}
    for i, cgroup in enumerate(grouping.clause_groups):
        for c in cgroup:
            for lit in psi.clauses[c]:
                key = (group_of[lit[0]], i)
                if key in occurrence:
                    return None
                occurrence[key] = (c, lit)
    return occurrence


def verify_grouping(psi: Cnf1in3, grouping: Grouping) -> bool:
    """Check the partition property: for each variable group and clause
    group, at most one occurrence of the group's variables in total."""
    return _occurrences(psi, grouping) is not None


def _first_fit(items: Iterable[tuple[int, set[int], set[int]]], target: int) -> list[tuple[list[int], set[int]]]:
    """Pack ``(item, footprint, blocked)`` triples in order: each item joins
    the first group of fewer than ``target`` items whose footprint (the
    union of its items' footprints) misses ``blocked``, else a new group.
    Returns each group's items with its footprint.  Only the groups with
    room are scanned, in the order they were opened."""
    groups: list[tuple[list[int], set[int]]] = []
    open_groups: list[tuple[list[int], set[int]]] = []
    for item, footprint, blocked in items:
        for i, (members, used) in enumerate(open_groups):
            if not (used & blocked):
                break
        else:
            i, members, used = len(open_groups), [], set()
            groups.append((members, used))
            open_groups.append((members, used))
        members.append(item)
        used |= footprint
        if len(members) == target:
            del open_groups[i]
    return groups


def group_formula(psi: Cnf1in3, mode: str = "trivial") -> Grouping:
    """Partition variables and clauses so every pair of groups shares at
    most one occurrence.

    trivial: singleton groups on both sides, always valid since clause
    variables are distinct.  greedy: two first-fit packings in input order.
    Clauses go into groups of at most isqrt(m) with pairwise-disjoint
    variable sets; then variables go into groups of at most log2(n) with
    no two that share a clause group.  The result is verified, with
    fallback to trivial if packing ever fails the check.
    """
    if mode not in ("trivial", "greedy"):
        raise ValueError(f"unknown mode '{mode}'")
    m = len(psi.clauses)
    if mode == "greedy":
        clause_target = max(1, math.isqrt(max(m, 1)))
        clause_vars = [{v for v, _ in clause} for clause in psi.clauses]
        cgroups = _first_fit(((c, vs, vs) for c, vs in enumerate(clause_vars)), clause_target)
        conflicts: dict[int, set[int]] = {v: set() for v in range(1, psi.num_vars + 1)}
        for _, vs in cgroups:
            for a in vs:
                conflicts[a] |= vs - {a}
        var_target = _var_target(psi.num_vars)
        vgroups = _first_fit(((v, {v}, conflicts[v]) for v in range(1, psi.num_vars + 1)), var_target)
        grouping = Grouping(
            tuple(tuple(grp) for grp, _ in vgroups),
            tuple(tuple(grp) for grp, _ in cgroups),
        )
        if verify_grouping(psi, grouping):
            return grouping
    return Grouping(
        tuple((v,) for v in range(1, psi.num_vars + 1)),
        tuple((c,) for c in range(m)),
    )


def _var_target(num_vars: int) -> int:
    """The most variables a greedy variable group holds: log2(n), at least 1."""
    return max(1, int(math.log2(num_vars)) if num_vars > 1 else 1)


def check_natural_floor(psi: Cnf1in3) -> None:
    """Refuse a formula whose ``reduce_sat_natural`` output over
    ``group_formula(psi, "greedy")`` must exceed ``MAX_NATURAL_VERTICES``,
    before any grouping is built.

    A variable group holds at most ``_var_target(n)`` variables, and the
    trivial fallback one each, so there are n_v >= ceil(n / target) groups.
    Each has a marked choice head with at least 2 n_v + 1 pendant leaves and
    at least two assignment vertices: at least 2 n_v^2 + 4 n_v vertices.
    """
    n_v = -(-psi.num_vars // _var_target(psi.num_vars))
    floor = 2 * n_v * n_v + 4 * n_v
    if floor > MAX_NATURAL_VERTICES:
        raise CapExceededError(f"sat-natural output would have at least {floor} vertices, cap is {MAX_NATURAL_VERTICES}")


# ---------------------------------------------------------------------------
# natural-parameter reduction

@dataclass(frozen=True)
class NaturalReduction:
    graph: CapacitatedGraph
    budget: int
    meta: ChoiceGroups
    grouping: Grouping
    families: tuple[DetectingFamily, ...]
    choice_heads: tuple[int, ...]  # one per variable group
    test_pairs: tuple[tuple[int, int, int], ...]  # (a, a-complement, set size)


def reduce_sat_natural(
    psi: Cnf1in3, grouping: Grouping, families: tuple[DetectingFamily, ...] | list
) -> NaturalReduction:
    """Choice gadget per variable group, one aggregate-test vertex pair per
    detecting set; capacities are derived from the actual degrees rather
    than any closed-form count, so arbitrary verified groupings work."""
    occurrence = _occurrences(psi, grouping)
    if occurrence is None:
        raise StructuralError("grouping fails the one-occurrence property")
    if len(families) != len(grouping.clause_groups):
        raise StructuralError("need one detecting family per clause group")
    for fam, cgroup in zip(families, grouping.clause_groups):
        if fam.universe_size != len(cgroup) or fam.d != 4:
            raise StructuralError("family universe/d does not match its clause group")
        if not is_detecting(fam.universe_size, fam.sets, fam.d):
            raise StructuralError("family failed detecting verification")

    n_v = len(grouping.variable_groups)
    total_sets = sum(len(f.sets) for f in families)
    k = 2 * n_v + 2 * total_sets
    # choice heads, assignment vertices, test pairs, and k + 1 leaves per marked vertex
    marked_count = n_v + 2 * total_sets
    assignments = sum(1 << len(vgroup) for vgroup in grouping.variable_groups)
    size = marked_count + assignments + marked_count * (k + 1)
    if size > MAX_NATURAL_VERTICES:
        raise CapExceededError(f"sat-natural output would have {size} vertices, cap is {MAX_NATURAL_VERTICES}")
    # each assignment vertex joins its choice head and one vertex of every
    # test pair; each leaf joins its marked vertex
    edges = assignments * (1 + total_sets) + marked_count * (k + 1)
    if edges > 2 * MAX_NATURAL_VERTICES:
        raise CapExceededError(f"sat-natural output would have {edges} edges, cap is {2 * MAX_NATURAL_VERTICES}")

    b = Builder()
    choice_heads: list[int] = []  # u_p ids
    # per group; assignment t sets the group's j-th variable true exactly
    # when bit len(group) - 1 - j of t is set
    assignment_ids: list[list[int]] = []
    for vgroup in grouping.variable_groups:
        u_p = b.vertex(1)
        choice_heads.append(u_p)
        ids = []
        for _ in range(1 << len(vgroup)):
            vid = b.vertex()
            ids.append(vid)
            b.edge(u_p, vid)
        assignment_ids.append(ids)
    all_assignment = [vid for ids in assignment_ids for vid in ids]

    test_pairs: list[tuple[int, int, int]] = []  # (a id, a' id, |detecting set|)
    for i, (fam, cgroup) in enumerate(zip(families, grouping.clause_groups)):
        for subset in fam.sets:
            clause_ids = {cgroup[x - 1] for x in subset}
            a_id = b.vertex(len(subset))
            a_mate = b.vertex(max(n_v - len(subset), 0))  # capacity never above degree
            test_pairs.append((a_id, a_mate, len(subset)))
            satisfied: set[int] = set()
            for p in range(n_v):
                occ = occurrence.get((p, i))
                if occ is None or occ[0] not in clause_ids:
                    continue
                _, (var, positive) = occ
                vgroup = grouping.variable_groups[p]
                shift = len(vgroup) - 1 - vgroup.index(var)
                satisfied.update(vid for t, vid in enumerate(assignment_ids[p]) if (t >> shift & 1) == positive)
            for vid in all_assignment:
                target = a_id if vid in satisfied else a_mate
                b.edge(target, vid)

    marked = choice_heads + [x for pair in test_pairs for x in pair[:2]]
    for v in marked:
        b.pin(v, k + 1)
    graph = b.graph(k)
    meta = ChoiceGroups(
        frozenset(marked),
        tuple(frozenset(ids) for ids in assignment_ids),
        frozenset(),
    )
    return NaturalReduction(
        graph,
        k,
        meta,
        grouping,
        tuple(families),
        tuple(choice_heads),
        tuple(test_pairs),
    )


# ---------------------------------------------------------------------------
# clique-width reduction

@dataclass(frozen=True)
class CwReduction:
    graph: CapacitatedGraph
    budget: int
    expression: CliquewidthExpression
    meta: ChoiceGroups


def reduce_sat_cw(psi: Cnf1in3) -> CwReduction:
    """Flat-label construction: positive and negative clause/literal sides
    as complete bipartite blocks, one selector pair per variable, every
    non-selector vertex pinned by a leaf bundle, budget 8m + n.

    Vertex ids follow the build script, so the emitted expression
    introduces ids in increasing order.  Refuses an output above
    ``MAX_CW_VERTICES`` vertices before building any of it.
    """
    n, m = psi.num_vars, len(psi.clauses)
    k = 8 * m + n
    # two selectors per variable; two literal copies per occurrence and two
    # clause vertices per clause are marked, each with k + 1 leaves
    size = 2 * n + 8 * m * (k + 2)
    if size > MAX_CW_VERTICES:
        raise CapExceededError(f"sat-cw output would have {size} vertices, cap is {MAX_CW_VERTICES}")

    b = Builder()
    ops: list[tuple] = []

    def intro_marked(label: int, dem: int) -> int:
        v = b.vertex(dem)
        ops.append(("intro", v, label))
        ops.extend(("intro", leaf, 5) for leaf in b.pin(v, k + 1))
        ops.append(("join", label, 5))
        ops.append(("relabel", 5, 6))
        return v

    # each variable's occurrences as (clause index, literal positive?)
    occurrences: dict[int, list[tuple[int, bool]]] = {v: [] for v in range(1, n + 1)}
    for j, clause in enumerate(psi.clauses):
        for var, positive in clause:
            occurrences[var].append((j, positive))

    # side 1: positive literal copies, side 2: negative ones; the side is also
    # the label a copy keeps until its clause vertices join it
    copies: dict[int, list[int]] = {1: [], 2: []}
    selectors: list[frozenset[int]] = []  # {v_i, its negation} per variable

    for var in range(1, n + 1):
        v_id = b.vertex()
        ops.append(("intro", v_id, 3))
        for j, positive in occurrences[var]:  # the copy at v_i has the literal's sign
            side = 1 if positive else 2
            lit = intro_marked(4, j + 1)
            copies[side].append(lit)
            b.edge(v_id, lit)
            ops.append(("join", 3, 4))
            ops.append(("relabel", 4, side))
        bar_id = b.vertex()
        ops.append(("intro", bar_id, 4))
        b.edge(v_id, bar_id)
        ops.append(("join", 3, 4))
        ops.append(("relabel", 3, 6))
        for j, positive in occurrences[var]:  # the copy at the negation has the other sign
            side = 2 if positive else 1
            lit = intro_marked(3, j + 1)
            copies[side].append(lit)
            b.edge(bar_id, lit)
            ops.append(("join", 4, 3))
            ops.append(("relabel", 3, side))
        ops.append(("relabel", 4, 6))
        selectors.append(frozenset((v_id, bar_id)))

    clause_ids = []
    for side in (1, 2):
        for j in range(m):
            c = intro_marked(3, 3 * j + side)
            clause_ids.append(c)
            for lit in copies[side]:
                b.edge(c, lit)
            ops.append(("join", 3, side))
            ops.append(("relabel", 3, 6))

    graph = b.graph(k)
    marked = frozenset(copies[1] + copies[2] + clause_ids)
    meta = ChoiceGroups(marked, tuple(selectors), frozenset())
    return CwReduction(graph, k, CliquewidthExpression(tuple(ops)), meta)
