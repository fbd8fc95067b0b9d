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
    ],
)
def test_record_errors_name_their_cause(parse, text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse(text)
