import math
import random

import pytest

import cvckit.reductions.sat as sat
from cvckit.core import CapExceededError, GraphFormatError, StructuralError, verify_orientation
from cvckit.detecting import DetectingFamily, build_family
from cvckit.oracle import solve_canonical
from cvckit.reductions.sat import (
    Cnf1in3,
    Grouping,
    check_natural_floor,
    format_dimacs,
    group_formula,
    parse_dimacs,
    reduce_sat_cw,
    reduce_sat_natural,
    verify_grouping,
)
from cvckit.reductions.cliquewidth import verify_cw_expression
from bruteforce import brute_one_in_three


def clause(*lits):
    return tuple((abs(x), x > 0) for x in lits)


def families_for(grouping):
    return [build_family(len(cg), 4, "greedy") for cg in grouping.clause_groups]


SINGLE = Cnf1in3(3, (clause(1, 2, 3),))
CONTRA = Cnf1in3(3, (clause(1, 2, 3), clause(-1, -2, -3)))


# --- formula model -----------------------------------------------------------

def test_rejects_repeated_variable_in_clause():
    with pytest.raises(Exception):
        Cnf1in3(3, (clause(1, 1, 2),))


def test_degree_bound_check():
    psi = Cnf1in3(3, tuple(clause(1, 2, 3) for _ in range(5)))
    assert not psi.within_degree_bound(4)
    assert SINGLE.within_degree_bound(4)


def test_dimacs_roundtrip():
    psi = Cnf1in3(4, (clause(1, -2, 3), clause(2, 3, -4)))
    assert parse_dimacs(format_dimacs(psi)) == psi


# --- grouping ----------------------------------------------------------------

def test_trivial_grouping_single_clause():
    grouping = group_formula(SINGLE, "trivial")
    assert len(grouping.variable_groups) == 3
    assert len(grouping.clause_groups) == 1
    assert verify_grouping(SINGLE, grouping)


def test_greedy_grouping_disjoint_clauses():
    psi = Cnf1in3(6, (clause(1, 2, 3), clause(4, 5, 6)))
    grouping = group_formula(psi, "greedy")
    assert verify_grouping(psi, grouping)


def test_greedy_always_passes_verifier():
    import random

    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(3, 8)
        clauses = []
        for _ in range(rng.randint(1, 5)):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple((v, rng.random() < 0.5) for v in vs))
        psi = Cnf1in3(n, tuple(clauses))
        assert verify_grouping(psi, group_formula(psi, "greedy"))


def _reference_greedy_grouping(psi):
    """The greedy grouping as two hand-written first-fit loops, clauses
    then variables."""
    m = len(psi.clauses)
    clause_target = max(1, math.isqrt(max(m, 1)))
    cgroups: list[list[int]] = []
    cvars: list[set[int]] = []
    for c in range(m):
        vs = {v for v, _ in psi.clauses[c]}
        placed = False
        for gi, grp in enumerate(cgroups):
            if len(grp) < clause_target and not (cvars[gi] & vs):
                grp.append(c)
                cvars[gi] |= vs
                placed = True
                break
        if not placed:
            cgroups.append([c])
            cvars.append(set(vs))

    conflicts: dict[int, set[int]] = {v: set() for v in range(1, psi.num_vars + 1)}
    for gi, grp in enumerate(cgroups):
        vs = sorted(cvars[gi])
        for i, a in enumerate(vs):
            for b in vs[i + 1 :]:
                conflicts[a].add(b)
                conflicts[b].add(a)
    var_target = max(1, int(math.log2(psi.num_vars)) if psi.num_vars > 1 else 1)
    vgroups: list[list[int]] = []
    for v in range(1, psi.num_vars + 1):
        placed = False
        for grp in vgroups:
            if len(grp) < var_target and not (conflicts[v] & set(grp)):
                grp.append(v)
                placed = True
                break
        if not placed:
            vgroups.append([v])
    grouping = Grouping(
        tuple(tuple(grp) for grp in vgroups),
        tuple(tuple(grp) for grp in cgroups),
    )
    if not verify_grouping(psi, grouping):
        return group_formula(psi, "trivial")
    return grouping


def test_greedy_grouping_equals_the_two_loop_reference():
    rng = random.Random(19)
    packed = 0
    for _ in range(1000):
        n = rng.randint(3, 60)
        clauses = tuple(
            tuple((v, rng.random() < 0.5) for v in rng.sample(range(1, n + 1), 3))
            for _ in range(rng.randint(0, 50))
        )
        psi = Cnf1in3(n, clauses)
        got = group_formula(psi, "greedy")
        assert got == _reference_greedy_grouping(psi)
        packed += len(got.variable_groups) < n and len(got.clause_groups) < len(clauses)
    assert packed >= 500  # most draws pack both sides


def test_natural_floor_never_exceeds_the_output(monkeypatch):
    # with the cap at the output's exact size the floor passes, one below the
    # floor it refuses
    rng = random.Random(23)
    sized = []
    for _ in range(30):
        n = rng.randint(3, 40)
        clauses = tuple(
            tuple((v, rng.random() < 0.5) for v in rng.sample(range(1, n + 1), 3))
            for _ in range(rng.randint(0, 12))
        )
        psi = Cnf1in3(n, clauses)
        grouping = group_formula(psi, "greedy")
        sized.append((psi, reduce_sat_natural(psi, grouping, families_for(grouping)).graph.n))
    for psi, size in sized:
        monkeypatch.setattr(sat, "MAX_NATURAL_VERTICES", size)
        check_natural_floor(psi)
        monkeypatch.setattr(sat, "MAX_NATURAL_VERTICES", 0)
        with pytest.raises(CapExceededError, match="at least"):
            check_natural_floor(psi)


def test_verify_grouping_rejects_double_occurrence():
    psi = Cnf1in3(4, (clause(1, 2, 3), clause(1, 2, 4)))
    bad = Grouping(((1, 2), (3,), (4,)), ((0, 1),))
    assert not verify_grouping(psi, bad)


@pytest.mark.parametrize(
    "variable_groups, clause_groups",
    [
        (((1, 2), (2, 3), (4,)), ((0,), (1,))),  # variable 2 in two groups
        (((1, 2), (3,)), ((0,), (1,))),  # variable 4 in none
        (((1,), (2,), (3,), (4,)), ((0,),)),  # clause 1 missing
        (((1,), (2,), (3,), (4,)), ((0, 1), (1,))),  # clause 1 repeated
    ],
)
def test_verify_grouping_rejects_non_partitions(variable_groups, clause_groups):
    psi = Cnf1in3(4, (clause(1, 2, 3), clause(1, 2, 4)))
    assert verify_grouping(psi, Grouping(((1,), (2,), (3,), (4,)), ((0,), (1,))))
    assert not verify_grouping(psi, Grouping(variable_groups, clause_groups))


def test_natural_refuses_double_occurrence_grouping():
    psi = Cnf1in3(4, (clause(1, 2, 3), clause(1, 2, 4)))
    bad = Grouping(((1, 2), (3,), (4,)), ((0, 1),))
    with pytest.raises(StructuralError, match="one-occurrence"):
        reduce_sat_natural(psi, bad, [build_family(2, 4)])


# --- natural-parameter reduction ----------------------------------------------

def test_natural_single_clause_yes():
    grouping = group_formula(SINGLE, "trivial")
    red = reduce_sat_natural(SINGLE, grouping, families_for(grouping))
    assert brute_one_in_three(3, SINGLE.clauses)
    yes, cert = solve_canonical(red.graph, red.meta, red.budget)
    assert yes and verify_orientation(red.graph, cert).feasible


def test_natural_contradiction_no():
    grouping = group_formula(CONTRA, "trivial")
    red = reduce_sat_natural(CONTRA, grouping, families_for(grouping))
    assert not brute_one_in_three(3, CONTRA.clauses)
    assert solve_canonical(red.graph, red.meta, red.budget)[0] is False


def test_natural_budget_formula():
    grouping = group_formula(SINGLE, "trivial")
    fams = families_for(grouping)
    red = reduce_sat_natural(SINGLE, grouping, fams)
    assert red.budget == 2 * len(grouping.variable_groups) + 2 * sum(
        len(f.sets) for f in fams
    )


def test_natural_degree_bookkeeping():
    # singleton groups, one clause: each aggregate-test vertex sees exactly
    # one satisfying assignment vertex per clause variable (half of each
    # two-assignment group), so three assignment neighbors on each side
    grouping = group_formula(SINGLE, "trivial")
    red = reduce_sat_natural(SINGLE, grouping, families_for(grouping))
    g = red.graph
    assignment = {v for grp in red.meta.groups for v in grp}
    assert len(assignment) == 6
    k = red.budget
    assert len(red.test_pairs) == 1
    a, mate, size = red.test_pairs[0]
    assert size == 1
    assert len(set(g.neighbors(a)) & assignment) == 3
    assert len(set(g.neighbors(mate)) & assignment) == 3
    assert set(g.neighbors(a)) & set(g.neighbors(mate)) & assignment == set()
    assert (set(g.neighbors(a)) | set(g.neighbors(mate))) >= assignment
    assert g.deg(a) == 3 + k + 1
    assert g.capacity[a] == g.deg(a) - size
    n_v = len(red.meta.groups)
    assert g.capacity[mate] == g.deg(mate) - (n_v - size)


def test_natural_capacities_from_degrees():
    grouping = group_formula(CONTRA, "trivial")
    fams = families_for(grouping)
    red = reduce_sat_natural(CONTRA, grouping, fams)
    g = red.graph
    for u_p in red.choice_heads:
        assert g.capacity[u_p] == g.deg(u_p) - 1
    for grp in red.meta.groups:
        for v in grp:
            assert g.capacity[v] == g.deg(v)


def test_natural_refuses_unverified_family():
    grouping = group_formula(SINGLE, "trivial")
    bad = [DetectingFamily(1, 4, (frozenset(),))]
    with pytest.raises(StructuralError):
        reduce_sat_natural(SINGLE, grouping, bad)


def test_natural_matches_bruteforce_small():
    import random

    rng = random.Random(97)
    for _ in range(12):
        n = rng.randint(3, 4)
        m = rng.randint(1, 3)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple((v, rng.random() < 0.5) for v in vs))
        psi = Cnf1in3(n, tuple(clauses))
        grouping = group_formula(psi, rng.choice(["trivial", "greedy"]))
        red = reduce_sat_natural(psi, grouping, families_for(grouping))
        expected = brute_one_in_three(n, psi.clauses)
        assert solve_canonical(red.graph, red.meta, red.budget)[0] == expected


# --- clique-width reduction ----------------------------------------------------

def test_cw_single_clause():
    red = reduce_sat_cw(SINGLE)
    assert red.budget == 11  # 8m + n with one clause over three variables
    yes, cert = solve_canonical(red.graph, red.meta, red.budget)
    assert yes and verify_orientation(red.graph, cert).feasible


def test_cw_contradiction_no():
    red = reduce_sat_cw(CONTRA)
    assert red.budget == 19
    assert solve_canonical(red.graph, red.meta, red.budget)[0] is False


def test_cw_expression_replays_to_graph():
    for psi in (SINGLE, CONTRA):
        red = reduce_sat_cw(psi)
        assert verify_cw_expression(red.expression, red.graph)


def test_cw_marked_count_and_demands():
    red = reduce_sat_cw(CONTRA)
    g = red.graph
    m = len(CONTRA.clauses)
    assert len(red.meta.forced) == 8 * m
    for v in red.meta.forced:
        assert g.deg(v) - g.capacity[v] >= 1  # every marked vertex has demand
    for grp in red.meta.groups:
        for v in grp:
            assert g.capacity[v] == g.deg(v)  # selectors have demand 0


def test_cw_matches_bruteforce_small():
    import random

    rng = random.Random(101)
    for _ in range(12):
        n = rng.randint(3, 4)
        m = rng.randint(1, 3)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple((v, rng.random() < 0.5) for v in vs))
        psi = Cnf1in3(n, tuple(clauses))
        red = reduce_sat_cw(psi)
        expected = brute_one_in_three(n, psi.clauses)
        assert solve_canonical(red.graph, red.meta, red.budget)[0] == expected
        assert verify_cw_expression(red.expression, red.graph)


def test_dimacs_rejects_second_header():
    text = "p cnf 3 1\n1 2 3 0\np cnf 3 2\n"
    with pytest.raises(GraphFormatError, match="line 3: second 'p cnf' header"):
        parse_dimacs(text)
