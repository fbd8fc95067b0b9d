"""Random record text into every file parser: only format or structure errors escape."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvckit.core import CapacitatedGraph, GraphFormatError, StructuralError, parse_instance, parse_orientation
from cvckit.cutwidth import parse_arrangement
from cvckit.detecting import parse_family
from cvckit.oracle import parse_choice_groups
from cvckit.reductions.cliquewidth import parse_expression
from cvckit.reductions.mcc import parse_mcc, parse_witness
from cvckit.reductions.sat import parse_dimacs
from cvckit.reductions.smc import parse_smc
from cvckit.vertex_integrity import parse_modulator

PATH3 = CapacitatedGraph.build(3, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1})

PARSERS = (
    parse_instance,
    lambda text: parse_orientation(text, PATH3),
    parse_modulator,
    parse_choice_groups,
    parse_arrangement,
    parse_family,
    parse_expression,
    parse_witness,
    parse_mcc,
    parse_smc,
    parse_dimacs,
)

KEYWORDS = (
    "cvc", "v", "e", "a", "modulator", "forced", "group", "free", "arrangement",
    "intro", "join", "relabel", "parent", "mcc", "class", "smc", "set", "p", "cnf", "c",
)
TOKENS = ("0", "1", "2", "3", "-1", "x", "1.5", "#", "")

line = st.tuples(st.sampled_from(KEYWORDS), st.lists(st.sampled_from(TOKENS), max_size=5)).map(
    lambda kw_rest: " ".join((kw_rest[0], *kw_rest[1])).strip()
)
record_text = st.lists(st.one_of(line, st.sampled_from(TOKENS)), max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(record_text)
@example("class")
def test_parsers_raise_only_format_or_structure_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except (GraphFormatError, StructuralError):
            pass


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_mcc, "class\n", "line 1: unknown record"),
        (parse_mcc, "mcc 1 1\nclique 1 2\n", "line 2: unknown record"),
        (parse_mcc, "mcc 1 1\nclass 1 x\n", "line 2: non-integer field"),
        (parse_mcc, "mcc -1 2\n", "line 1: negative header field"),
        (parse_expression, "merge 1 2\n", "line 1: unknown operation"),
        (parse_expression, "join 1 x\n", "line 1: non-integer field"),
        (parse_smc, "smc 0 0 0 -1\n", "line 1: negative header field"),
        (parse_smc, "smc 1 1 0 0\nset\n", "line 2: expected 'set <j> <elements...>'"),
        (parse_dimacs, "p cnf -5 0\n", "line 1: negative header field"),
        (parse_dimacs, "p cnf 3 1\n1 2 9 0\n", "line 2: clause variable out of range"),
        (parse_dimacs, "p cnf 3 1\n1 1 2 0\n", "line 2: clauses need three distinct variables"),
        (parse_dimacs, "p cnf 3 1\n1 0 2 0\n", "line 2: literal 0 before the clause end"),
        (parse_smc, "smc 2 1 0 0\nset 1 5\n", "line 2: element 5 outside universe"),
        (parse_instance, "cvc -1 0\n", "line 1: negative header field"),
        (parse_instance, "cvc 1 0\nv 1\n", "line 2: expected 'v <id> <capacity>'"),
        (parse_instance, "cvc 1 0\nv 1 -1\n", "line 2: negative capacity"),
        (parse_mcc, "mcc 1 2\nclass 1 1\n", "class 1 must list exactly 2 ids"),
        (parse_mcc, "mcc 2 1\nclass 1 1\nclass 2 1\n", "vertex id 1 in two classes"),
        (parse_mcc, "mcc 1 1\nclass 1 1\ne 1 9\n", r"edge \(1,9\) references unknown id"),
        (parse_dimacs, "p cnf 3 1\n1 2 0\n", "line 2: expected exactly 3 literals"),
        (parse_dimacs, "p cnf 3 2\n1 2 3 0\n", "declared 2 clauses, found 1"),
        (parse_smc, "smc 1 2 0 0\nset 1 1\nset 1 1\n", "line 3: duplicate set 1"),
    ],
)
def test_record_errors_name_their_cause(parse, text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse(text)
