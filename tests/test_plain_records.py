"""The one-pass reader of plain record files against the per-line reader.

``parse_instance``, ``parse_orientation`` and ``parse_witness`` read text in
exactly the shape the formatters write in one pass, and hand any other text
to the per-line reader (``_content_lines``).  Both must agree on every text:
the same value, or the same exception with the same message.
"""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvckit.core as core
import cvckit.reductions.mcc as mcc
from cvckit.core import (
    CapacitatedGraph,
    GraphFormatError,
    Orientation,
    StructuralError,
    format_instance,
    format_orientation,
    parse_instance,
    parse_orientation,
)
from cvckit.oracle import solve_canonical, solve_pruned
from cvckit.reductions.mcc import MccInstance, TreedepthWitness, format_witness, parse_witness, reduce_mcc_td
from cvckit.reductions.sat import Cnf1in3, reduce_sat_cw
from cvckit.reductions.smc import SmcInstance, reduce_smc


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, kept in zip(pairs, keep) if kept]
    caps = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    budget = draw(st.none() | st.integers(0, 12))
    return CapacitatedGraph.build(n, edges, [0, *caps], budget)


MUTATIONS = ("drop", "duplicate", "swap", "comment", "crlf", "tab", "trailing", "plus",
             "zero", "arabic", "number", "keyword", "loop", "no_final_newline")


def mutate(rnd, text: str, kind: str) -> str:
    """``text`` with one change of the given kind, at a random line or field."""
    if kind == "no_final_newline":
        return text[:-1]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    lines = text.split("\n")[:-1]  # the formatters end every line, the last too
    if not lines:
        return text
    i = rnd.randrange(len(lines))
    fields = lines[i].split(" ")
    f = rnd.randrange(1, len(fields)) if len(fields) > 1 else 0
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rnd.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "comment":
        lines.insert(i, "# a comment")
        lines[i + 1] += "  # note"
    elif kind == "tab":
        lines[i] = lines[i].replace(" ", "\t", 1)
    elif kind == "trailing":
        lines[i] += "  "
    elif kind == "plus":
        fields[f] = "+" + fields[f]
    elif kind == "zero":
        fields[f] = "0" + fields[f]
    elif kind == "arabic":  # int() reads these digits, the plain shape does not
        fields[f] = fields[f].translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    elif kind == "number" and fields[f].isdigit():  # ids out of range, header counts off
        fields[f] = str(rnd.choice((0, int(fields[f]) - 1, int(fields[f]) + 1, 10**10)))
    elif kind == "keyword":
        fields[0] = rnd.choice(("cvc", "v", "e", "a", "parent"))
    elif kind == "loop" and len(fields) > 2:
        fields[-1] = fields[-2]
    if kind in ("plus", "zero", "arabic", "number", "keyword", "loop"):
        lines[i] = " ".join(fields)
    return "".join(line + "\n" for line in lines)


def mutated(rnd, text: str, kind: str) -> str:
    """``text`` after ``kind`` and up to two more random mutations."""
    for kind in (kind, *rnd.choices(MUTATIONS, k=rnd.randrange(3))):
        text = mutate(rnd, text, kind)
    return text


def outcome(parse, *args):
    try:
        return parse(*args)
    except (GraphFormatError, StructuralError) as exc:
        return type(exc), str(exc)


randoms = st.randoms(use_true_random=False)
mutation = pytest.mark.parametrize("kind", MUTATIONS)


@mutation
@settings(max_examples=60, deadline=None)
@given(g=graphs(), rnd=randoms)
def test_instance_reader_agrees_with_per_line_reader(kind, g, rnd):
    text = format_instance(g)
    assert core._parse_plain_instance(text) == g
    text = mutated(rnd, text, kind)
    assert outcome(parse_instance, text) == outcome(core._parse_instance_lines, text)


@mutation
@settings(max_examples=60, deadline=None)
@given(g=graphs(), rnd=randoms)
def test_orientation_reader_agrees_with_per_line_reader(kind, g, rnd):
    o = Orientation({e: rnd.choice(e) for e in g.edges})
    text = mutated(rnd, format_orientation(o), kind)
    assert outcome(parse_orientation, text, g) == outcome(core._parse_orientation_lines, text, g)


@mutation
@settings(max_examples=60, deadline=None)
@given(parent=st.dictionaries(st.integers(1, 8), st.integers(0, 8)), rnd=randoms)
def test_witness_reader_agrees_with_per_line_reader(kind, parent, rnd):
    text = mutated(rnd, format_witness(TreedepthWitness(parent)), kind)
    assert outcome(parse_witness, text) == outcome(mcc._parse_witness_lines, text)


P3_HEAD = "cvc 3 2\nv 1 1\nv 2 2\nv 3 1\n"  # header and vertex lines of the path 1-2-3
G = parse_instance(P3_HEAD + "e 1 2\ne 2 3\n")
READERS = {  # the one-pass entry point and the per-line reader of each file kind
    "instance": (parse_instance, core._parse_instance_lines),
    "orientation": (lambda text: parse_orientation(text, G), lambda text: core._parse_orientation_lines(text, G)),
    "witness": (parse_witness, mcc._parse_witness_lines),
}


@pytest.mark.parametrize("kind, text", [
    # plain texts that fail exactly one bulk check
    ("instance", P3_HEAD + "e 2 3\ne 1 2\n"),  # edges out of order
    ("instance", P3_HEAD + "e 0 1\ne 1 2\n"),  # vertex 0
    ("instance", P3_HEAD + "e 1 2\ne 2 4\n"),  # vertex n + 1
    ("instance", P3_HEAD + "e 2 1\ne 2 3\n"),  # edge not canonical
    ("instance", P3_HEAD + "e 1 2\ne 1 2\n"),  # duplicate edge
    ("instance", "cvc 3 2\nv 1 1\nv 3 1\nv 2 2\ne 1 2\ne 2 3\n"),  # vertices out of order
    ("instance", "cvc 3 2\nv 1 1\nv 2 2\ne 3 1\ne 1 2\ne 2 3\n"),  # an edge among the vertices
    ("instance", P3_HEAD + "e 1 2\ne 2 " + "3" * 5000 + "\n"),  # more digits than int() reads
    ("instance", P3_HEAD + "e 1 2\ne 2 " + "3" * 4300 + "\n"),  # as many digits as int() reads
    ("instance", P3_HEAD + "e 1 2\ne 2 03\n"),  # a leading zero: int() reads it, json does not
    ("instance", "cvc 3 2\nv 1 1\nve 2 2\nv 3 1\ne 1 2\ne 2 3\n"),  # a keyword one letter too long
    ("instance", "cvc 3 2\n"),  # header larger than the text
    ("orientation", "a 1 2\na 2 1\n"),  # two arcs over one edge
    ("orientation", "a 1 2\na 1 3\n"),  # an arc over a non-edge
    ("orientation", "a 1 2\ne 3 2\n"),  # another keyword
    ("witness", "parent 1 0\nparent 1 2\n"),  # a vertex listed twice
])
def test_plain_text_failing_a_bulk_check_gets_the_per_line_answer(kind, text):
    one_pass, per_line = READERS[kind]
    assert outcome(one_pass, text) == outcome(per_line, text)


def test_lifted_digit_limit_reads_alike():
    """With ``int()``'s digit limit lifted, the one-pass reader reads a
    5,000-digit capacity as the per-line reader does."""
    text = "cvc 3 2\nv 1 1\nv 2 " + "2" * 5000 + "\nv 3 1\ne 1 2\ne 2 3\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert outcome(parse_instance, text) == outcome(core._parse_instance_lines, text)
        assert core._parse_plain_instance(text) == core._parse_instance_lines(text)
    finally:
        sys.set_int_max_str_digits(limit)


# --- formatter output takes the one-pass path ------------------------------------

def _mcc_td_output():
    """The mcc-td reduction of the complete 2-class, 2-vertex instance."""
    full = frozenset(frozenset(((1, a), (2, b))) for a in (1, 2) for b in (1, 2))
    return reduce_mcc_td(MccInstance(2, 2, full))


def _reduction_outputs():
    """(graph, certificate, witness or None) of one small yes instance of
    the mcc-td, sat-cw and smc reductions."""
    mcc_red = _mcc_td_output()
    cw_red = reduce_sat_cw(Cnf1in3(3, (((1, True), (2, True), (3, True)),)))
    smc_red = reduce_smc(SmcInstance(2, (frozenset({1, 2}), frozenset({1})), 1, 1))
    outputs = []
    for red, witness, solve in (
        (mcc_red, mcc_red.witness, lambda r: solve_canonical(r.graph, r.meta, r.budget)),
        (cw_red, None, lambda r: solve_canonical(r.graph, r.meta, r.budget)),
        (smc_red, None, lambda r: solve_pruned(r.graph, r.budget)),
    ):
        yes, cert = solve(red)
        assert yes
        outputs.append((red.graph, cert, witness))
    return outputs


def test_reduction_outputs_never_reach_the_per_line_reader(monkeypatch):
    outputs = _reduction_outputs()

    def per_line(text):
        raise AssertionError("formatter output read line by line")

    monkeypatch.setattr(core, "_content_lines", per_line)
    monkeypatch.setattr(mcc, "_content_lines", per_line)
    for g, cert, witness in outputs:
        assert parse_instance(format_instance(g)) == g
        assert parse_orientation(format_orientation(cert), g) == cert
        if witness is not None:
            assert parse_witness(format_witness(witness)) == witness


def test_commented_file_is_read_line_by_line(monkeypatch):
    g = _reduction_outputs()[0][0]
    calls = []
    per_line = core._content_lines

    def counted(text):
        calls.append(text)
        return per_line(text)

    monkeypatch.setattr(core, "_content_lines", counted)
    commented = "# mcc-td output\n" + format_instance(g)
    assert parse_instance(commented) == g
    assert calls == [commented]


def test_plain_read_of_a_reduction_output_stays_small():
    # 851,676 characters; traced peak 8.5 MB with one integer pass, 21.4 MB
    # with a backtracking line regex and the whole text split into tokens
    g = _mcc_td_output().graph
    text = format_instance(g)
    tracemalloc.start()
    try:
        assert parse_instance(text) == g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * len(text)
