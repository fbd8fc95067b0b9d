import pytest

from cvckit.core import CapacitatedGraph, StructuralError
from cvckit.reductions.cliquewidth import (
    CliquewidthExpression,
    format_expression,
    parse_expression,
    replay,
    verify_cw_expression,
)


def test_k2_script():
    expr = CliquewidthExpression((("intro", 1, 1), ("intro", 2, 2), ("join", 1, 2)))
    k2 = CapacitatedGraph.build(2, [(1, 2)], {1: 1, 2: 1})
    assert verify_cw_expression(expr, k2)


def test_script_vs_wrong_graph():
    expr = CliquewidthExpression((("intro", 1, 1), ("intro", 2, 2), ("join", 1, 2)))
    empty = CapacitatedGraph.build(2, [], {1: 0, 2: 0})
    assert not verify_cw_expression(expr, empty)


def test_seven_labels_rejected():
    expr = CliquewidthExpression((("intro", 1, 7),))
    with pytest.raises(StructuralError):
        replay(expr)


def test_double_intro_rejected():
    expr = CliquewidthExpression((("intro", 1, 1), ("intro", 1, 2)))
    with pytest.raises(StructuralError):
        replay(expr)


def test_join_same_label_rejected():
    expr = CliquewidthExpression((("intro", 1, 1), ("join", 1, 1)))
    with pytest.raises(StructuralError):
        replay(expr)


def test_relabel_moves_class():
    expr = CliquewidthExpression(
        (
            ("intro", 1, 1),
            ("intro", 2, 2),
            ("relabel", 2, 1),
            ("intro", 3, 2),
            ("join", 1, 2),
        )
    )
    vertices, edges = replay(expr)
    assert vertices == {1, 2, 3}
    assert edges == {(1, 3), (2, 3)}


def test_join_is_idempotent_on_existing_edges():
    expr = CliquewidthExpression(
        (("intro", 1, 1), ("intro", 2, 2), ("join", 1, 2), ("join", 1, 2))
    )
    _, edges = replay(expr)
    assert edges == {(1, 2)}


def test_expression_file_roundtrip():
    expr = CliquewidthExpression(
        (("intro", 5, 3), ("join", 3, 1), ("relabel", 3, 6))
    )
    assert parse_expression(format_expression(expr)) == expr


def test_replay_stops_building_past_its_edge_cap():
    path = CliquewidthExpression((("intro", 1, 1), ("intro", 2, 2), ("join", 1, 2), ("intro", 3, 3), ("join", 2, 3)))
    assert replay(path, 2) == ({1, 2, 3}, {(1, 2), (2, 3)})
    assert replay(path, 1) == ({1, 2, 3}, None)  # the second join passes the cap
    star = CliquewidthExpression((("intro", 1, 1), ("intro", 2, 2), ("intro", 3, 2), ("join", 1, 2)))
    assert replay(star, 1) == ({1, 2, 3}, None)  # 2 pairs > 1, refused before building
    broken = CliquewidthExpression((*star.ops, ("intro", 1, 1)))
    with pytest.raises(StructuralError, match="introduced twice"):
        replay(broken, 1)  # past the cap the rest of the script is still checked
