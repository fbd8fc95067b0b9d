import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvckit.core import (
    CapacitatedGraph,
    GraphFormatError,
    Orientation,
    StructuralError,
    _content_lines,
    assign_edges,
    format_instance,
    format_orientation,
    normalize_capacities,
    parse_instance,
    parse_orientation,
    verify_orientation,
)
from cvckit.cutwidth import LinearArrangement, parse_arrangement
from cvckit.detecting import parse_family
from cvckit.oracle import ChoiceGroups, parse_choice_groups
from cvckit.reductions.cliquewidth import CliquewidthExpression, parse_expression
from cvckit.reductions.mcc import MccInstance, TreedepthWitness, parse_mcc, parse_witness
from cvckit.reductions.sat import parse_dimacs
from cvckit.reductions.smc import SmcInstance, parse_smc
from cvckit.vertex_integrity import parse_modulator
from bruteforce import brute_assignable


def graph(n, edges, caps, budget=None):
    return CapacitatedGraph.build(n, edges, caps, budget)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    g = CapacitatedGraph.build(n, edges, {v: 0 for v in range(1, n + 1)})
    caps = {v: rng.randint(0, max(g.deg(v), 1)) for v in range(1, n + 1)}
    return CapacitatedGraph.build(n, edges, caps)


# --- construction ----------------------------------------------------------

def test_rejects_loops_and_duplicates():
    with pytest.raises(StructuralError):
        CapacitatedGraph(2, ((1, 1),), (0, 1, 1))
    with pytest.raises(StructuralError):
        CapacitatedGraph(2, ((1, 2), (1, 2)), (0, 1, 1))


@pytest.mark.parametrize("edges, message", [
    (((1, 2), (2, 2), (3, 3)), "loop at vertex 2"),
    (((1, 2), (1, 3), (1, 3), (2, 2)), "repeated edge (1,3)"),
    (((0, 2), (1, 4)), "edge (0,2) outside the vertex ids 1..3 or not canonical"),
    (((1, 2), (2, 4), (0, 1)), "edge (2,4) outside the vertex ids 1..3 or not canonical"),
    (((1, 2), (3, 2)), "edge (3,2) outside the vertex ids 1..3 or not canonical"),
    (((1, 3), (1, 2), (1, 1)), "edges not in canonical order"),
], ids=["loop", "repeat", "zero", "above-n", "reversed", "out-of-order"])
def test_constructor_names_the_first_bad_edge(edges, message):
    with pytest.raises(StructuralError) as err:
        CapacitatedGraph(3, edges, (0, 1, 1, 1))
    assert str(err.value) == message


def test_build_canonicalizes_edges():
    g = graph(3, [(3, 1), (2, 1)], {1: 1, 2: 1, 3: 1})
    assert g.edges == ((1, 2), (1, 3))
    assert g.deg(1) == 2 and g.neighbors(1) == (2, 3)


# --- normalize_capacities --------------------------------------------------

def test_normalize_clamps_to_degree():
    g = graph(4, [(1, 2), (1, 3), (1, 4)], {1: 7, 2: 1, 3: 1, 4: 1})
    assert normalize_capacities(g).capacity[1] == 3


def test_normalize_keeps_capacity_within_degree():
    g = graph(4, [(1, 2), (1, 3), (1, 4)], {1: 2, 2: 1, 3: 1, 4: 1})
    assert normalize_capacities(g).capacity[1] == 2


def test_normalize_zeroes_isolated():
    g = graph(2, [], {1: 5, 2: 0})
    ng = normalize_capacities(g)
    assert ng.capacity[1] == 0 and ng.capacity[2] == 0


def test_normalize_idempotent_and_preserves_assignability():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        ng = normalize_capacities(g)
        assert normalize_capacities(ng) == ng
        for _ in range(4):
            sel = {v for v in range(1, g.n + 1) if rng.random() < 0.5}
            assert (assign_edges(g, sel) is None) == (assign_edges(ng, sel) is None)
            assert (assign_edges(ng, sel) is None) == (not brute_assignable(ng, sel))


def test_normalize_returns_an_in_range_graph_itself():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 7), 0.5)
        g = g.with_capacity([0] + [rng.randint(0, g.deg(v)) for v in g.vertices()])
        assert normalize_capacities(g) is g
    g = graph(3, [(1, 2), (1, 3)], {1: 2, 2: 1, 3: 0})
    assert normalize_capacities(g) is g


@pytest.mark.parametrize("caps, want", [
    ({1: 3, 2: 1, 3: 0}, (0, 2, 1, 0)),  # above the degree
    ({1: -1, 2: 1, 3: 1}, (0, 0, 1, 1)),  # negative
    ({1: 2, 2: 1, 3: 1, 4: 1}, (0, 2, 1, 1, 0)),  # isolated vertex
], ids=["above-degree", "negative", "isolated"])
def test_normalize_still_clamps_an_out_of_range_capacity(caps, want):
    g = graph(len(want) - 1, [(1, 2), (1, 3)], caps)
    ng = normalize_capacities(g)
    assert ng is not g and ng.capacity == want and ng.edges == g.edges


def _reference_format_instance(g):
    """``format_instance`` as one f-string per line, joined."""
    head = f"cvc {g.n} {len(g.edges)}"
    if g.budget is not None:
        head += f" {g.budget}"
    out = [head]
    out.extend(f"v {v} {g.capacity[v]}" for v in range(1, g.n + 1))
    out.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def test_format_instance_matches_the_line_join_reference():
    rng = random.Random(13)
    cases = [graph(0, [], {}), graph(0, [], {}, 0), graph(3, [], {1: 0, 2: 4, 3: 0}, 7)]
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        cases.append(CapacitatedGraph.build(g.n, g.edges, g.capacity, rng.choice([None, 0, rng.randint(1, 10**12)])))
    for g in cases:
        assert format_instance(g) == _reference_format_instance(g)
    assert format_instance(graph(0, [], {})) == "cvc 0 0\n"
    assert format_instance(graph(0, [], {}, 0)) == "cvc 0 0 0\n"


# --- verify_orientation ----------------------------------------------------

def test_verify_single_edge():
    g = graph(2, [(1, 2)], {1: 1, 2: 1})
    rep = verify_orientation(g, Orientation({(1, 2): 2}))
    assert rep.feasible and rep.size == 1 and rep.violations == ()


def test_verify_triangle_cyclic():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {1: 1, 2: 1, 3: 1})
    rep = verify_orientation(g, Orientation({(1, 2): 2, (2, 3): 3, (1, 3): 1}))
    assert rep.feasible and rep.size == 3


def test_verify_triangle_overload():
    g = graph(3, [(1, 2), (1, 3), (2, 3)], {1: 1, 2: 1, 3: 1})
    rep = verify_orientation(g, Orientation({(1, 2): 1, (1, 3): 1, (2, 3): 2}))
    assert not rep.feasible
    assert (1, 2, 1) in rep.violations


def test_verify_rejects_wrong_arc_set():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    with pytest.raises(StructuralError):
        verify_orientation(g, Orientation({(1, 2): 2}))


# --- assign_edges ----------------------------------------------------------

def test_assign_star_center():
    g = graph(4, [(1, 2), (1, 3), (1, 4)], {1: 3, 2: 1, 3: 1, 4: 1})
    o = assign_edges(g, {1})
    assert o is not None and all(h == 1 for h in o.heads.values())


def test_assign_star_single_leaf_fails():
    g = graph(4, [(1, 2), (1, 3), (1, 4)], {1: 3, 2: 1, 3: 1, 4: 1})
    assert assign_edges(g, {2}) is None


def test_assign_c4_two_vertices():
    # C4 with capacities (2,1,2,1): the two capacity-2 corners suffice.
    # Expected value frozen from the brute-force orientation enumeration.
    g = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], {1: 2, 2: 1, 3: 2, 4: 1})
    assert brute_assignable(g, {1, 3})
    o = assign_edges(g, {1, 3})
    assert o is not None
    rep = verify_orientation(g, o)
    assert rep.feasible and rep.size == 2
    assert set(o.heads.values()) <= {1, 3}


def test_assign_matches_bruteforce_and_is_monotone():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        if len(g.edges) > 12:
            continue
        sel = {v for v in range(1, g.n + 1) if rng.random() < 0.5}
        o = assign_edges(g, sel)
        assert (o is not None) == brute_assignable(g, sel)
        if o is not None:
            rep = verify_orientation(g, o)
            assert rep.feasible
            assert {v for v in range(1, g.n + 1) if o.indegrees(g.n)[v] > 0} <= sel
            bigger = sel | {rng.randint(1, g.n)}
            assert assign_edges(g, bigger) is not None


def tight_graph(rng, n, m):
    """Random graph whose capacities are the in-degrees of a random orientation."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = rng.sample(pairs, m)
    caps = {v: 0 for v in range(1, n + 1)}
    for e in edges:
        caps[rng.choice(e)] += 1
    return graph(n, edges, caps)


def one_unit_less(rng, g):
    caps = list(g.capacity)
    caps[rng.choice([v for v in g.vertices() if caps[v] > 0])] -= 1
    return g.with_capacity(caps)


def test_assign_tight_capacities():
    # capacities sum to exactly m, so edges placed first fill vertices that
    # later edges need, and those must be moved along augmenting paths
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(8, 40)
        g = tight_graph(rng, n, rng.randint(20, min(200, n * (n - 1) // 2)))
        everyone = set(g.vertices())
        o = assign_edges(g, everyone)
        assert o is not None and verify_orientation(g, o).feasible
        assert assign_edges(one_unit_less(rng, g), everyone) is None
    for _ in range(60):
        n = rng.randint(3, 7)
        g = tight_graph(rng, n, rng.randint(1, min(12, n * (n - 1) // 2)))
        sel = {v for v in g.vertices() if rng.random() < 0.8}
        for h in (g, one_unit_less(rng, g)):
            assert (assign_edges(h, sel) is not None) == brute_assignable(h, sel)


def test_assign_deterministic():
    g = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], {1: 2, 2: 1, 3: 2, 4: 1})
    assert assign_edges(g, {1, 3}) == assign_edges(g, {1, 3})


# --- instance files --------------------------------------------------------

def test_parse_k2():
    g = parse_instance("cvc 2 1\nv 1 1\nv 2 1\ne 1 2\n")
    assert g.n == 2 and g.edges == ((1, 2),) and g.capacity[1] == 1


def test_parse_rejects_loop():
    with pytest.raises(GraphFormatError, match="loop"):
        parse_instance("cvc 1 1\nv 1 1\ne 1 1\n")


def test_parse_rejects_duplicate_edge():
    text = "cvc 2 2\nv 1 1\nv 2 1\ne 1 2\ne 1 2\n"
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        parse_instance(text)


def test_parse_rejects_unknown_vertex():
    with pytest.raises(GraphFormatError, match="unknown vertex"):
        parse_instance("cvc 2 1\nv 1 1\nv 2 1\ne 1 3\n")


def test_parse_reports_line_numbers():
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_instance("cvc 2 1\nv 1 1\nv 2 1\ne 2 2\n")


def test_parse_rejects_header_larger_than_content():
    with pytest.raises(GraphFormatError, match="only 0 records"):
        parse_instance("cvc 10000000000 0\n")
    with pytest.raises(GraphFormatError, match="only 2 records"):
        parse_instance("cvc 2 5\nv 1 1\nv 2 1\n")


def test_instance_roundtrip_with_budget():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 0}, budget=2)
    assert parse_instance(format_instance(g)) == g


def test_orientation_roundtrip():
    g = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})
    o = Orientation({(1, 2): 2, (2, 3): 2})
    assert parse_orientation(format_orientation(o), g) == o


def test_orientation_file_rejects_non_edge():
    g = graph(3, [(1, 2)], {1: 1, 2: 1, 3: 0})
    with pytest.raises(StructuralError):
        parse_orientation("a 1 3\n", g)


# --- record files ------------------------------------------------------------
# Every line-oriented parser reads its records through ``_content_lines``:
# ``#`` starts a comment, blank lines are skipped, and errors name the line.

HEAD = "# leading comment\n\n"

RECORD_FILES = [
    # (parser, records, parsed value, malformed records, line the error names)
    (parse_modulator, "modulator 3 1  # trailing\n", (1, 3), "modulator 1 x\n", 3),
    (parse_choice_groups, "forced 1 2  # trailing\ngroup 3 4\nfree 5\n",
     ChoiceGroups(frozenset({1, 2}), (frozenset({3, 4}),), frozenset({5})),
     "forced 1\nbogus 2\n", 4),
    (parse_arrangement, "arrangement 2  # trailing\n2\n1\n", LinearArrangement((2, 1)),
     "arrangement 2\n1\n", None),
    (parse_family, "1 2  # trailing\n3\n", (frozenset({1, 2}), frozenset({3})), "1\n2 x\n", 4),
    (parse_expression, "intro 1 1  # trailing\nintro 2 2\njoin 1 2\n",
     CliquewidthExpression((("intro", 1, 1), ("intro", 2, 2), ("join", 1, 2))),
     "intro 1 1\nintro 2 2\nfrob 1 2\n", 5),
    (parse_witness, "parent 1 0  # trailing\nparent 2 1\n", TreedepthWitness({1: 0, 2: 1}),
     "parent 1 0\nparent 2\n", 4),
    (parse_mcc, "mcc 2 1  # trailing\nclass 1 1\nclass 2 2\ne 1 2\n",
     MccInstance(2, 1, frozenset({frozenset({(1, 1), (2, 1)})})),
     "mcc 2 1\nclass 1 1\nclass 2 2\ne 1 x\n", 6),
    (parse_smc, "smc 2 1 1 1  # trailing\nset 1 1 2\n",
     SmcInstance(2, (frozenset({1, 2}),), 1, 1), "smc 2 1 1 1\nset x\n", 4),
]


@pytest.mark.parametrize("parse, records, value, bad, bad_line", RECORD_FILES,
                         ids=[row[0].__name__ for row in RECORD_FILES])
def test_record_files_skip_comments_and_name_bad_lines(parse, records, value, bad, bad_line):
    assert parse(HEAD + records) == value
    with pytest.raises(GraphFormatError) as err:
        parse(HEAD + bad)
    if bad_line is not None:
        assert str(err.value).startswith(f"line {bad_line}:")


PATH3 = graph(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})

NON_INTEGER_FIELDS = [
    # (parser, text, message): one row per record whose integer fields are read
    (parse_instance, "cvc 2 x\n", "line 1: non-integer header field"),
    (parse_instance, "cvc 1 0\nv 1 x\n", "line 2: non-integer vertex field"),
    (parse_instance, "cvc 2 1\nv 1 1\nv 2 1\ne 1 x\n", "line 4: non-integer edge field"),
    (lambda text: parse_orientation(text, PATH3), "a 1 2\na 3 x\n", "line 2: non-integer arc field"),
    (parse_family, "1\n2 x\n", "line 2: non-integer index"),
    (parse_choice_groups, "forced 1\ngroup 2 x\n", "line 2: non-integer vertex id"),
    (parse_modulator, "modulator 1 x\n", "line 1: non-integer vertex id"),
    (parse_expression, "intro 1 1\njoin 1 x\n", "line 2: non-integer field"),
    (parse_witness, "parent 1 0\nparent x 1\n", "line 2: non-integer field"),
    (parse_mcc, "mcc 2 1\nclass 1 x\n", "line 2: non-integer field"),
    (parse_smc, "smc 1 1 x 1\n", "line 1: non-integer header"),
    (parse_smc, "smc 1 1 0 0\nset 1 x\n", "line 2: non-integer set field"),
    (parse_dimacs, "c comment\np cnf 3 x\n", "line 2: non-integer header field"),
    (parse_dimacs, "p cnf 3 1\n1 2 x 0\n", "line 2: non-integer literal"),
]


@pytest.mark.parametrize("parse, text, message", NON_INTEGER_FIELDS)
def test_non_integer_field_names_its_line_and_field(parse, text, message):
    with pytest.raises(GraphFormatError) as err:
        parse(text)
    assert str(err.value) == message


def parse_arrangement_tokens(text):
    """The token reader ``parse_arrangement`` replaced, which named no line."""
    tokens = [t for _, parts in _content_lines(text) for t in parts]
    if not tokens or tokens[0] != "arrangement":
        raise GraphFormatError("expected 'arrangement <n>' header")
    try:
        n = int(tokens[1])
        ids = [int(t) for t in tokens[2:]]
    except (IndexError, ValueError):
        raise GraphFormatError("malformed arrangement file") from None
    if len(ids) != n:
        raise GraphFormatError(f"arrangement declares {n} vertices, lists {len(ids)}")
    return LinearArrangement(tuple(ids))


def outcome(parse, text):
    try:
        return parse(text)
    except (GraphFormatError, StructuralError) as exc:
        return type(exc)


@given(st.lists(st.sampled_from(["arrangement", "2", "1", "0", "-1", "x", "#", "", "\n", "\n"]), max_size=10))
@settings(max_examples=300, deadline=None)
@example(["arrangement", "\n", "2", "\n", "2", "1"])
def test_arrangement_accepts_what_the_token_reader_accepted(tokens):
    text = " ".join(tokens)
    assert outcome(parse_arrangement, text) == outcome(parse_arrangement_tokens, text)


def test_arrangement_errors_name_the_line_of_a_non_integer():
    assert parse_arrangement("arrangement  # count on the next line\n2\n2 1\n") == LinearArrangement((2, 1))
    with pytest.raises(GraphFormatError, match="^line 3: non-integer field$"):
        parse_arrangement("arrangement 2\n1\nx\n")
    with pytest.raises(GraphFormatError, match="^line 1: non-integer field$"):
        parse_arrangement("arrangement x\n")
    with pytest.raises(GraphFormatError, match="^malformed arrangement file$"):
        parse_arrangement("# no count\narrangement\n")
