import random

import pytest

import cvckit.reductions.mcc as mcc
from cvckit.core import CapacitatedGraph, CapExceededError, GraphFormatError, assign_edges, verify_orientation
from cvckit.oracle import solve_canonical
from cvckit.reductions.mcc import (
    MccInstance,
    TreedepthWitness,
    format_mcc,
    format_witness,
    parse_mcc,
    parse_witness,
    reduce_mcc_td,
    verify_td_witness,
)
from bruteforce import brute_multicolored_clique


def full_pairs(k, n):
    return frozenset(
        frozenset(((i, a), (j, b)))
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
    )


# --- witness verifier --------------------------------------------------------

def test_witness_edgeless_all_roots():
    g = CapacitatedGraph.build(3, [], {1: 0, 2: 0, 3: 0})
    valid, depth = verify_td_witness(g, TreedepthWitness({1: 0, 2: 0, 3: 0}))
    assert valid and depth == 1


def test_witness_path_rooted_in_middle():
    g = CapacitatedGraph.build(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    valid, depth = verify_td_witness(g, TreedepthWitness({2: 0, 1: 2, 3: 2}))
    assert valid and depth == 2


def test_witness_rejects_unrelated_edge():
    g = CapacitatedGraph.build(2, [(1, 2)], {1: 1, 2: 1})
    valid, _ = verify_td_witness(g, TreedepthWitness({1: 0, 2: 0}))
    assert not valid


def test_witness_rejects_cycle():
    g = CapacitatedGraph.build(2, [(1, 2)], {1: 1, 2: 1})
    valid, _ = verify_td_witness(g, TreedepthWitness({1: 2, 2: 1}))
    assert not valid


def reference_verify_td_witness(g, witness):
    """Per edge, climb the deeper endpoint's parent chain to the other's depth."""
    parent = witness.parent
    if set(parent) != set(g.vertices()):
        return False, 0
    depth = {}
    for v in g.vertices():
        chain = []
        on_chain = set()
        x = v
        while x != 0 and x not in depth:
            if x in on_chain:
                return False, 0  # cycle
            if x not in parent:
                return False, 0
            chain.append(x)
            on_chain.add(x)
            x = parent[x]
        base = 0 if x == 0 else depth[x]
        for u in reversed(chain):
            base += 1
            depth[u] = base
    max_depth = max(depth.values(), default=0)
    for u, v in g.edges:
        a, b = (u, v) if depth[u] >= depth[v] else (v, u)
        x = a
        for _ in range(depth[a] - depth[b]):
            x = parent[x]
        if x != b:
            return False, max_depth
    return True, max_depth


def random_forest_case(rng):
    n = rng.randint(1, 12)
    order = rng.sample(range(1, n + 1), n)
    parent = {v: (0 if i == 0 or rng.random() < 0.2 else rng.choice(order[:i])) for i, v in enumerate(order)}
    edges = []
    for v in order:
        x = parent[v]
        while x:
            if rng.random() < 0.5:
                edges.append((v, x))
            x = parent[x]
    return n, parent, edges


def test_witness_matches_chain_walk_on_random_forests():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(600):
        n, parent, edges = random_forest_case(rng)
        v = rng.randint(1, n)
        broken = rng.choice(["none", "cycle", "self", "missing", "outside", "extra", "edge"])
        if broken == "cycle":
            x = v
            while parent[x]:
                x = parent[x]
            parent[x] = v
        elif broken == "self":
            parent[v] = v
        elif broken == "missing":
            del parent[v]
        elif broken == "outside":
            parent[v] = rng.choice([-1, n + 1])
        elif broken == "extra":
            parent[n + 1] = 0
        elif broken == "edge" and n > 1:
            edges.append(tuple(rng.sample(range(1, n + 1), 2)))
        g = CapacitatedGraph.build(n, edges, {u: 0 for u in range(1, n + 1)})
        witness = TreedepthWitness(parent)
        result = verify_td_witness(g, witness)
        assert result == reference_verify_td_witness(g, witness)
        outcomes.add((broken, result[0]))
    assert {("none", True), ("cycle", False), ("edge", False), ("edge", True)} <= outcomes


def test_witness_long_path():
    n = 20_000
    g = CapacitatedGraph.build(n, [(v, v + 1) for v in range(1, n)], {v: 0 for v in range(1, n + 1)})
    chain = TreedepthWitness({v: v - 1 for v in range(1, n + 1)})
    assert verify_td_witness(g, chain) == reference_verify_td_witness(g, chain) == (True, n)
    split = TreedepthWitness({**chain.parent, n // 2 + 1: 0})  # the edge (n/2, n/2 + 1) joins two trees
    assert verify_td_witness(g, split) == reference_verify_td_witness(g, split) == (False, n // 2)


def test_witness_file_roundtrip():
    w = TreedepthWitness({1: 0, 2: 1, 3: 1})
    assert parse_witness(format_witness(w)) == w


# --- instance model ----------------------------------------------------------

def test_mcc_rejects_intra_class_edge():
    with pytest.raises(GraphFormatError):
        MccInstance(2, 2, frozenset({frozenset(((1, 1), (1, 2)))}))


def test_mcc_file_roundtrip():
    inst = MccInstance(2, 2, frozenset({frozenset(((1, 1), (2, 2)))}))
    assert parse_mcc(format_mcc(inst)) == inst


# --- construction ------------------------------------------------------------

def test_choice_gadget_count_matches_formula():
    # gamma = 2k(2k-1): 12 instances at k=2
    inst = MccInstance(2, 2, full_pairs(2, 2))
    red = reduce_mcc_td(inst)
    assert len(red.choice_groups) == 2 * 2 * (2 * 2 - 1) == 12
    assert len(red.edge_groups) == 4


def test_budget_formula():
    inst = MccInstance(2, 2, full_pairs(2, 2))
    red = reduce_mcc_td(inst)
    gamma = len(red.choice_groups)
    delta = len(red.meta.forced)
    assert red.budget == 2 * 2 + gamma + delta


def test_witness_valid_and_shallow():
    inst = MccInstance(2, 2, full_pairs(2, 2))
    red = reduce_mcc_td(inst)
    valid, depth = verify_td_witness(red.graph, red.witness)
    assert valid
    assert depth <= 16 * 2  # linear in the class count


def test_capacity_demand_consistency():
    inst = MccInstance(2, 1, full_pairs(2, 1))
    red = reduce_mcc_td(inst)
    g = red.graph
    for v in g.vertices():
        assert 0 <= g.capacity[v] <= g.deg(v)
    for grp in red.choice_groups + red.edge_groups:
        for v in grp:
            assert g.capacity[v] == g.deg(v)


def test_forward_certificate_from_clique():
    # pick a clique, select the canonical vertices, and realize an
    # orientation of size exactly the budget via the edge-assignment check
    inst = MccInstance(2, 2, full_pairs(2, 2))
    red = reduce_mcc_td(inst)
    picks = {1: 1, 2: 2}
    chosen = set(red.meta.forced)
    for cls in (1, 2):
        chosen.update(red.clique_selection[(cls, picks[cls])])
    for key, mapping in red.clique_selection.items():
        if key[0] != "edge":
            continue
        i, ip = key[1]
        chosen.add(mapping[(picks[i], picks[ip])])
    assert len(chosen) == red.budget
    orientation = assign_edges(red.graph, chosen)
    assert orientation is not None
    rep = verify_orientation(red.graph, orientation)
    assert rep.feasible and rep.size == red.budget


def test_reduction_matches_bruteforce():
    rng = random.Random(61)
    for _ in range(6):
        edges = set()
        for a in (1, 2):
            for b in (1, 2):
                if rng.random() < 0.5:
                    edges.add(frozenset(((1, a), (2, b))))
        inst = MccInstance(2, 2, frozenset(edges))
        expected = brute_multicolored_clique(2, 2, frozenset(edges))
        red = reduce_mcc_td(inst)
        got, cert = solve_canonical(red.graph, red.meta, red.budget)
        assert got == expected
        if cert is not None:
            assert verify_orientation(red.graph, cert).feasible


def test_odd_class_count_padding():
    # k = 3 pads to 4 with universal classes; clique question is preserved
    edges = full_pairs(3, 1)
    inst = MccInstance(3, 1, edges)
    red = reduce_mcc_td(inst)
    assert len(red.choice_groups) == 2 * 4 * (2 * 4 - 1)
    got, _ = solve_canonical(red.graph, red.meta, red.budget)
    assert got is True
    inst_no = MccInstance(3, 1, frozenset())
    red_no = reduce_mcc_td(inst_no)
    assert solve_canonical(red_no.graph, red_no.meta, red_no.budget)[0] is False


@pytest.mark.parametrize(
    "text, message",
    [
        ("mcc 1 1\nclass 1 1\nmcc 1 1\n", "line 3: second mcc header"),
        ("mcc 1 1\nclass 1 1\nclass 1 2\n", "line 3: duplicate class 1"),
        ("mcc 1 1\nclass 1 1\nclass 2 2\n", "line 3: class 2 outside 1..1"),
    ],
)
def test_mcc_file_rejects_repeated_or_stray_records(text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse_mcc(text)


# --- output cap ----------------------------------------------------------------

def _random_mcc(rng, k, n):
    pairs = [frozenset(((i, a), (j, b))) for i in range(1, k + 1) for j in range(i + 1, k + 1)
             for a in range(1, n + 1) for b in range(1, n + 1)]
    return MccInstance(k, n, frozenset(e for e in pairs if rng.random() < 0.5))


def test_output_vertex_count_matches_the_build():
    rng = random.Random(89)
    for k, n in [(0, 0), (0, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 1)]:
        inst = _random_mcc(rng, k, n)
        assert mcc._output_vertices(inst) == reduce_mcc_td(inst).graph.n


def test_edgeless_small_instances_match_bruteforce():
    # k = 0 asks for the empty clique, a yes-input even with n = 0
    for k in range(3):
        for n in range(3):
            inst = MccInstance(k, n, frozenset())
            red = reduce_mcc_td(inst)
            assert mcc._output_vertices(inst) == red.graph.n
            got, cert = solve_canonical(red.graph, red.meta, red.budget)
            assert got == brute_multicolored_clique(k, n, frozenset()), (k, n)
            if cert is not None:
                assert verify_orientation(red.graph, cert).feasible


def test_output_cap_counts_the_output_exactly(monkeypatch):
    inst = MccInstance(2, 2, frozenset({frozenset(((1, 1), (2, 1))), frozenset(((1, 2), (2, 2)))}))
    n = mcc._output_vertices(inst)
    assert n == 34_176
    monkeypatch.setattr(mcc, "MAX_TD_VERTICES", n)
    assert reduce_mcc_td(inst).graph.n == n
    monkeypatch.setattr(mcc, "MAX_TD_VERTICES", n - 1)
    with pytest.raises(CapExceededError, match=f"{n} vertices"):
        reduce_mcc_td(inst)


def test_output_cap_admits_three_classes_of_two():
    # padded to four classes; building it takes seconds and hundreds of MB,
    # so only its count is checked here
    text = "mcc 3 2\nclass 1 1 2\nclass 2 3 4\nclass 3 5 6\ne 1 3\ne 2 4\ne 3 5\ne 1 6\n"
    assert mcc.MAX_TD_VERTICES == 10**6
    assert mcc._output_vertices(parse_mcc(text)) == 884_264


def test_format_witness_matches_the_line_join_reference():
    def reference(w):
        return "\n".join(f"parent {v} {p}" for v, p in sorted(w.parent.items())) + "\n"

    rng = random.Random(17)
    cases = [TreedepthWitness({}), TreedepthWitness({1: 0})]
    for _ in range(30):
        n = rng.randint(1, 40)
        order = rng.sample(range(1, n + 1), n)  # parents come earlier in a random order
        cases.append(TreedepthWitness({v: rng.choice([0] + order[:i]) for i, v in enumerate(order)}))
    for w in cases:
        assert format_witness(w) == reference(w)
    assert format_witness(TreedepthWitness({})) == "\n"
