"""Tests for the benchmark's answer checker.

    python3 -m pytest cvcbench/test_check.py -q
"""

import random
from itertools import product

import pytest

import check
import run

# path 1-2-3 plus edge 1-3: a triangle
TRIANGLE = "cvc 3 3\nv 1 1\nv 2 1\nv 3 2\ne 1 2\ne 2 3\ne 1 3\n"


def _triangle():
    return check.read_instance(TRIANGLE)


def test_valid_certificate_is_sized():
    n, edges, caps, _ = _triangle()
    size, reason = check.orientation_size(n, edges, caps, [(1, 2), (2, 3), (1, 3)])
    assert (size, reason) == (2, "ok")


def test_over_capacity_head_is_rejected():
    n, edges, caps, _ = _triangle()
    size, reason = check.orientation_size(n, edges, caps, [(2, 1), (3, 2), (3, 1)])
    assert size is None and "capacity" in reason


def test_missing_edge_is_rejected():
    n, edges, caps, _ = _triangle()
    size, reason = check.orientation_size(n, edges, caps, [(1, 2), (2, 3)])
    assert size is None and "missing" in reason


def test_edge_oriented_twice_or_off_the_graph_is_rejected():
    n, edges, caps, _ = _triangle()
    assert check.orientation_size(n, edges, caps, [(1, 2), (2, 1), (2, 3), (1, 3)])[0] is None
    four = check.read_instance("cvc 4 1\nv 1 1\nv 2 1\nv 3 1\nv 4 1\ne 1 2\n")
    assert check.orientation_size(*four[:3], [(3, 4)])[0] is None


def _operation(tmp_path, solve_line: str, arcs: str, verify_line: str):
    (tmp_path / "t.cvc").write_text(TRIANGLE)
    (tmp_path / "t.cert").write_text(arcs)
    instance = {
        "id": "t", "kind": "min", "instance": "t.cvc",
        "calls": [{"role": "solve"}, {"role": "verify", "if_yes": True}],
    }
    calls = [[0, solve_line + "\n", ""], [0, verify_line + "\n", ""]]
    return run.check_operation(instance, 2, calls, tmp_path, tmp_path)


def test_operation_with_the_optimum_passes(tmp_path):
    verdict = _operation(tmp_path, "MINSIZE 2", "a 1 2\na 2 3\na 1 3\n", "VALID size=2")
    assert verdict == ("ok", "")


def test_operation_with_a_wrong_size_is_rejected(tmp_path):
    # a valid certificate whose size is not the optimum the solver printed
    verdict = _operation(tmp_path, "MINSIZE 2", "a 2 1\na 3 2\na 1 3\n", "VALID size=3")
    assert verdict[0] == "wrong" and "3 heads" in verdict[1]
    assert _operation(tmp_path, "MINSIZE 3", "a 1 2\na 2 3\na 1 3\n", "VALID size=2")[0] == "wrong"


def test_operation_with_an_unexpected_exit_code_fails(tmp_path):
    (tmp_path / "t.cvc").write_text(TRIANGLE)
    instance = {"id": "t", "kind": "min", "instance": "t.cvc",
                "calls": [{"role": "solve"}, {"role": "verify", "if_yes": True}]}
    calls = [[2, "", "error: boom"], None]
    assert run.check_operation(instance, 2, calls, tmp_path, tmp_path)[0] == "failed"


def _exhaustive_min(n, edges, caps):
    best = None
    for heads in product(*[(u, v) for u, v in edges]):
        indeg = [0] * (n + 1)
        for h in heads:
            indeg[h] += 1
        if all(indeg[v] <= caps[v] for v in range(1, n + 1)):
            size = sum(1 for v in range(1, n + 1) if indeg[v])
            best = size if best is None else min(best, size)
    return best


@pytest.mark.parametrize("seed", range(40))
def test_milp_optimum_matches_exhaustive_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = sorted(rng.sample(pairs, min(len(pairs), rng.randint(1, 10))))
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    caps = [0] + [rng.randint(0, deg[v]) for v in range(1, n + 1)]
    assert check.min_orientation_milp(n, edges, caps) == _exhaustive_min(n, edges, caps)


def test_source_problem_brute_force():
    assert check.one_in_three(3, [(1, 2, 3)])
    assert not check.one_in_three(3, [(1, 2, 3), (-1, -2, -3)])
    assert check.set_multicover(2, [{1}, {2}, {1, 2}], 1, 1)
    assert not check.set_multicover(2, [{1}, {2}], 2, 2)
    assert check.multicolored_clique([[1, 2], [3, 4]], {frozenset((2, 3))})
    assert not check.multicolored_clique([[1, 2], [3, 4]], set())
