import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import cvckit.cli as cli
import cvckit.cutwidth as cutwidth
import cvckit.fes as fes
import cvckit.reductions.mcc as mcc
import cvckit.reductions.sat as sat
import cvckit.reductions.smc as smc
from cvckit.cli import main
from cvckit.core import CapacitatedGraph, CapExceededError, Orientation, format_instance, parse_instance, parse_orientation, verify_orientation
from cvckit.cutwidth import LinearArrangement, format_arrangement
from cvckit.fes import feedback_edge_set
from cvckit.generators import layered_with_ctw
from cvckit.detecting import build_family, format_family
from cvckit.oracle import format_choice_groups
from cvckit.reductions._builder import Builder
from cvckit.reductions.cliquewidth import format_expression
from cvckit.reductions.mcc import format_witness, parse_mcc, reduce_mcc_td
from cvckit.reductions.sat import group_formula, parse_dimacs, reduce_sat_cw, reduce_sat_natural
from cvckit.reductions.smc import parse_smc, reduce_smc

TRIANGLE = "cvc 3 3\nv 1 1\nv 2 1\nv 3 1\ne 1 2\ne 1 3\ne 2 3\n"
K2 = "cvc 2 1\nv 1 1\nv 2 1\ne 1 2\n"
EDGELESS = "cvc 3 0\nv 1 0\nv 2 0\nv 3 0\n"


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_oracle_triangle(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    assert main(["solve", "--input", inp, "--algo", "oracle"]) == 0
    assert "MINSIZE 3" in capsys.readouterr().out


def test_solve_cutdp_decision_no(tmp_path, capsys):
    inp = put(tmp_path, "k2.cvc", K2)
    code = main(["solve", "--input", inp, "--algo", "cutdp", "--k", "0",
                 "--find-arrangement", "exact"])
    assert code == 1
    assert "FEASIBLE no" in capsys.readouterr().out


def test_solve_edgeless_every_algo(tmp_path, capsys):
    inp = put(tmp_path, "e.cvc", EDGELESS)
    for algo in ["oracle", "fes", "cutdp", "vi", "auto"]:
        assert main(["solve", "--input", inp, "--algo", algo]) == 0
        assert "MINSIZE 0" in capsys.readouterr().out


def test_solve_writes_certificate(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    cert = tmp_path / "t.cert"
    assert main(["solve", "--input", inp, "--algo", "fes", "--cert-out", str(cert)]) == 0
    g = parse_instance(TRIANGLE)
    orientation = parse_orientation(cert.read_text(), g)
    assert verify_orientation(g, orientation).feasible


def test_solve_refuses_unverified_certificate(tmp_path, capsys, monkeypatch):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    cert = tmp_path / "t.cert"
    argv = ["solve", "--input", inp, "--algo", "fes", "--cert-out", str(cert)]
    over_capacity = Orientation({(1, 2): 1, (1, 3): 1, (2, 3): 2})  # vertex 1 takes 2 > cap 1
    valid = Orientation({(1, 2): 2, (1, 3): 1, (2, 3): 3})  # size 3, not the claimed 2
    for claimed in [(3, over_capacity), (2, valid)]:
        monkeypatch.setattr(cli, "solve_fes", lambda g, claimed=claimed: claimed)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: certificate failed verification" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not cert.exists()


def test_auto_searches_arrangement_once(tmp_path, capsys, monkeypatch):
    g = layered_with_ctw(30, 4, 0, extra=20)
    assert len(feedback_edge_set(g)) > cli.AUTO_FES_CAP
    inp = put(tmp_path, "l.cvc", format_instance(g))
    report = tmp_path / "r.json"
    modes = []
    real = cli.find_arrangement

    def counted(graph, mode):
        modes.append(mode)
        return real(graph, mode)

    monkeypatch.setattr(cli, "find_arrangement", counted)
    assert main(["solve", "--input", inp, "--algo", "auto", "--json", str(report)]) == 0
    assert modes == ["heuristic"]
    assert json.loads(report.read_text())["algo"] == "cutdp"


def test_solve_json_report(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    out = tmp_path / "report.json"
    assert main(["solve", "--input", inp, "--algo", "oracle", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["minsize"] == 3 and payload["algo"] == "oracle"


def test_solve_vi_json_reports_stats(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    out = tmp_path / "report.json"
    assert main(["solve", "--input", inp, "--algo", "vi", "--json", str(out)]) == 0
    stats = json.loads(out.read_text())["stats"]
    assert set(stats) == {"guesses", "modulator", "modulator_sets"}
    # one set of size 1 is scored; its vertex's neighbours then cut the rest
    assert stats["modulator"] == [] and stats["modulator_sets"] == 1 and stats["guesses"] >= 1
    mod = put(tmp_path, "t.mod", "modulator 1\n")
    assert main(["solve", "--input", inp, "--algo", "vi", "--k", "3", "--modulator", mod, "--json", str(out)]) == 0
    stats = json.loads(out.read_text())["stats"]
    assert stats["modulator"] == [1] and stats["modulator_sets"] == 0


def test_solve_config_error(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    assert main(["solve", "--input", inp, "--algo", "pruned"]) == 2


def assert_config_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_reduce_bad_dimacs_header(tmp_path, capsys):
    src = put(tmp_path, "f.cnf", "p cnf x 1\n1 2 3 0\n")
    assert_config_error(["reduce", "--type", "sat-cw", "--input", src,
                         "--output", str(tmp_path / "cw")], capsys)


def test_verify_orientation_needs_cert(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    assert_config_error(["verify", "--type", "orientation", "--input", inp], capsys)


def test_solve_input_is_directory(tmp_path, capsys):
    assert_config_error(["solve", "--input", str(tmp_path)], capsys)


def test_solve_input_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.cvc"
    path.write_bytes(b"cvc 1 0\nv 1 \xff\n")
    assert_config_error(["solve", "--input", str(path)], capsys)


def test_solve_parse_error(tmp_path, capsys):
    inp = put(tmp_path, "bad.cvc", "cvc 1 1\nv 1 1\ne 1 1\n")
    assert main(["solve", "--input", inp, "--algo", "oracle"]) == 2


def test_solve_uses_budget_from_header(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", "cvc 2 1 1\nv 1 1\nv 2 1\ne 1 2\n")
    assert main(["solve", "--input", inp, "--algo", "oracle"]) == 0
    assert "FEASIBLE yes" in capsys.readouterr().out


def test_verify_orientation_paths(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    good = put(tmp_path, "good.cert", "a 1 2\na 2 3\na 3 1\n")
    bad = put(tmp_path, "bad.cert", "a 2 1\na 3 1\na 2 3\n")
    broken = put(tmp_path, "broken.cert", "a 1 2\n")
    assert main(["verify", "--type", "orientation", "--input", inp, "--cert", good]) == 0
    assert main(["verify", "--type", "orientation", "--input", inp, "--cert", bad]) == 1
    assert main(["verify", "--type", "orientation", "--input", inp, "--cert", broken]) == 2


def test_verify_expression_paths(tmp_path, capsys):
    inp = put(tmp_path, "k2.cvc", K2)
    good = put(tmp_path, "good.cwx", "intro 1 1\nintro 2 2\njoin 1 2\n")
    wrong = put(tmp_path, "wrong.cwx", "intro 1 1\nintro 2 2\n")
    seven = put(tmp_path, "seven.cwx", "intro 1 7\nintro 2 2\n")
    assert main(["verify", "--type", "expression", "--input", inp, "--expr", good]) == 0
    assert main(["verify", "--type", "expression", "--input", inp, "--expr", wrong]) == 1
    assert main(["verify", "--type", "expression", "--input", inp, "--expr", seven]) == 2


def test_verify_family(tmp_path, capsys):
    good = put(tmp_path, "fam.txt", "1\n2\n")
    bad = put(tmp_path, "bad.txt", "1 2\n")
    assert main(["verify", "--type", "family", "--family", good, "--universe", "2", "--d", "2"]) == 0
    assert main(["verify", "--type", "family", "--family", bad, "--universe", "2", "--d", "2"]) == 1


def test_verify_arrangement_and_witness(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    arr = put(tmp_path, "a.txt", "arrangement 3\n1\n2\n3\n")
    assert main(["verify", "--type", "arrangement", "--input", inp, "--arrangement", arr]) == 0
    assert "CUTWIDTH 2" in capsys.readouterr().out
    wit = put(tmp_path, "w.txt", "parent 1 0\nparent 2 1\nparent 3 2\n")
    assert main(["verify", "--type", "witness", "--input", inp, "--witness", wit]) == 0
    bad = put(tmp_path, "wbad.txt", "parent 1 0\nparent 2 0\nparent 3 0\n")
    assert main(["verify", "--type", "witness", "--input", inp, "--witness", bad]) == 1


@pytest.mark.parametrize("command", [
    ["verify", "--type", "arrangement"],
    ["solve", "--algo", "cutdp"],
])
@pytest.mark.parametrize("text", ["arrangement 2\n1\n2\n", "arrangement 4\n1\n2\n3\n4\n"])
def test_arrangement_of_another_size_is_a_config_error(tmp_path, capsys, command, text):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    arr = put(tmp_path, "a.txt", text)
    assert main(command + ["--input", inp, "--arrangement", arr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arrangement size does not match the instance\n"


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.cvc"
    b = tmp_path / "b.cvc"
    for path in (a, b):
        assert main(["gen", "--model", "gnp", "--n", "6", "--p", "0.5",
                     "--seed", "9", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_fes_target(tmp_path, capsys):
    out = tmp_path / "s.cvc"
    assert main(["gen", "--model", "sparse", "--n", "9", "--fes", "3",
                 "--seed", "4", "--output", str(out)]) == 0
    g = parse_instance(out.read_text())
    assert len(feedback_edge_set(g)) == 3


def test_gen_edgeless_when_p_zero(tmp_path, capsys):
    out = tmp_path / "z.cvc"
    assert main(["gen", "--model", "gnp", "--n", "5", "--p", "0", "--seed", "1",
                 "--output", str(out)]) == 0
    assert parse_instance(out.read_text()).edges == ()


def test_gen_impossible_params(tmp_path, capsys):
    out = tmp_path / "x.cvc"
    assert main(["gen", "--model", "layered", "--n", "4", "--ctw", "6",
                 "--seed", "0", "--output", str(out)]) == 2


def test_reduce_smc_header(tmp_path, capsys):
    src = put(tmp_path, "i.smc", "smc 1 1 1 1\nset 1 1\n")
    prefix = str(tmp_path / "out")
    assert main(["reduce", "--type", "smc", "--input", src, "--output", prefix]) == 0
    assert "k=2" in capsys.readouterr().out
    g = parse_instance((tmp_path / "out.cvc").read_text())
    assert g.budget == 2


def test_reduce_sat_cw_header(tmp_path, capsys):
    src = put(tmp_path, "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    prefix = str(tmp_path / "cw")
    assert main(["reduce", "--type", "sat-cw", "--input", src, "--output", prefix]) == 0
    assert "k=11" in capsys.readouterr().out
    inp = str(tmp_path / "cw.cvc")
    expr = str(tmp_path / "cw.cwx")
    assert main(["verify", "--type", "expression", "--input", inp, "--expr", expr]) == 0


def test_reduce_mcc_reports_choice_groups(tmp_path, capsys):
    lines = ["mcc 2 2", "class 1 1 2", "class 2 3 4", "e 1 3", "e 2 4"]
    src = put(tmp_path, "g.mcc", "\n".join(lines) + "\n")
    prefix = str(tmp_path / "td")
    assert main(["reduce", "--type", "mcc-td", "--input", src, "--output", prefix]) == 0
    assert "choice-groups=12" in capsys.readouterr().out
    inp = str(tmp_path / "td.cvc")
    wit = str(tmp_path / "td.tdw")
    assert main(["verify", "--type", "witness", "--input", inp, "--witness", wit]) == 0


def test_reduce_mcc_without_classes_is_a_yes_input(tmp_path, capsys):
    src = put(tmp_path, "g.mcc", "mcc 0 0\n")
    prefix = str(tmp_path / "td")
    assert main(["reduce", "--type", "mcc-td", "--input", src, "--output", prefix]) == 0
    k = capsys.readouterr().out.split("k=")[1].split()[0]
    argv = ["solve", "--input", prefix + ".cvc", "--k", k, "--algo", "canonical", "--meta", prefix + ".meta"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "FEASIBLE yes\n"


def test_reduce_sat_natural_emits_families(tmp_path, capsys):
    src = put(tmp_path, "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    prefix = str(tmp_path / "nat")
    assert main(["reduce", "--type", "sat-natural", "--input", src, "--output", prefix]) == 0
    fam = str(tmp_path / "nat.fam1")
    assert main(["verify", "--type", "family", "--family", fam, "--universe", "1", "--d", "4"]) == 0


def test_reduce_sat_natural_refuses_a_large_declared_header(tmp_path, capsys):
    # one clause over 20,000 declared variables would build about 27 million vertices
    src = put(tmp_path, "f.cnf", "p cnf 20000 1\n1 2 3 0\n")
    assert_config_error(["reduce", "--type", "sat-natural", "--input", src,
                         "--output", str(tmp_path / "nat")], capsys)
    assert not (tmp_path / "nat.cvc").exists()


@pytest.mark.parametrize("grouping", ["trivial", "greedy"])
def test_sat_natural_cap_counts_the_output_exactly(monkeypatch, grouping):
    psi = parse_dimacs(random_formula(9, 5, seed=3))
    groups = group_formula(psi, grouping)
    families = [build_family(len(cg), 4) for cg in groups.clause_groups]
    n = reduce_sat_natural(psi, groups, families).graph.n
    monkeypatch.setattr(sat, "MAX_NATURAL_VERTICES", n)
    assert reduce_sat_natural(psi, groups, families).graph.n == n
    monkeypatch.setattr(sat, "MAX_NATURAL_VERTICES", n - 1)
    with pytest.raises(CapExceededError, match=f"{n} vertices"):
        reduce_sat_natural(psi, groups, families)


def random_formula(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    lines = [f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def _natural_edges(grouping, families):
    """Edges of ``reduce_sat_natural``, counted from the construction's
    description: each assignment vertex joins its choice head and one
    vertex of every test pair, and each marked vertex holds k + 1 leaves."""
    sets = sum(len(fam.sets) for fam in families)
    n_v = len(grouping.variable_groups)
    assignments = sum(2 ** len(group) for group in grouping.variable_groups)
    return assignments * (1 + sets) + (n_v + 2 * sets) * (2 * n_v + 2 * sets + 1)


def test_sat_natural_edge_count_matches_the_build():
    for seed in range(12):
        psi = parse_dimacs(random_formula(6 + seed, 1 + seed % 6, seed=seed))
        groups = group_formula(psi, "greedy")
        families = [build_family(len(cg), 4) for cg in groups.clause_groups]
        assert len(reduce_sat_natural(psi, groups, families).graph.edges) == _natural_edges(groups, families)


def test_reduce_sat_natural_refuses_a_large_output_by_its_edges(tmp_path, capsys, monkeypatch):
    # 130,686 vertices, under the vertex cap, but 3,745,316 edges
    text = random_formula(800, 80, seed=1)
    psi = parse_dimacs(text)
    groups = group_formula(psi, "greedy")
    edges = _natural_edges(groups, [build_family(len(cg), 4) for cg in groups.clause_groups])
    assert edges == 3_745_316
    monkeypatch.setattr(sat, "Builder", None)  # any build attempt raises
    src = put(tmp_path, "f.cnf", text)
    start = time.perf_counter()
    assert main(["reduce", "--type", "sat-natural", "--input", src, "--output", str(tmp_path / "nat")]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: sat-natural output would have {edges} edges, cap is 2000000\n"
    assert not (tmp_path / "nat.cvc").exists()


@pytest.mark.parametrize("module, cap, reduce", [
    (sat, "MAX_CW_VERTICES", lambda text: reduce_sat_cw(parse_dimacs(text))),
    (smc, "MAX_SMC_VERTICES", lambda text: reduce_smc(parse_smc(text))),
], ids=["sat-cw", "smc"])
@pytest.mark.parametrize("case", range(3))
def test_sat_cw_and_smc_caps_count_the_output_exactly(monkeypatch, module, cap, reduce, case):
    if module is sat:
        text = random_formula(5 + case, 2 * case, seed=case)
    else:
        text = f"smc {case + 2} 3 {case} {case + 1}\nset 1 1 2\nset 2 {case + 2}\nset 3\n"
    n = reduce(text).graph.n
    monkeypatch.setattr(module, cap, n)
    assert reduce(text).graph.n == n
    monkeypatch.setattr(module, cap, n - 1)
    with pytest.raises(CapExceededError, match=f"{n} vertices"):
        reduce(text)


@pytest.mark.parametrize("rtype, text, vertices", [
    ("sat-cw", "p cnf 1000000000 1\n1 2 3 0\n", 10_000_000_080),
    ("smc", "smc 1 0 0 1000000000\n", 1_000_000_003),
], ids=["sat-cw", "smc"])
def test_reduce_refuses_a_huge_declared_header_before_building(tmp_path, capsys, monkeypatch, rtype, text, vertices):
    monkeypatch.setattr(sat, "Builder", None)  # any build attempt raises
    monkeypatch.setattr(smc, "Builder", None)
    src = put(tmp_path, "source", text)
    start = time.perf_counter()
    assert main(["reduce", "--type", rtype, "--input", src, "--output", str(tmp_path / "r")]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {rtype} output would have {vertices} vertices, cap is 1000000\n"
    assert not (tmp_path / "r.cvc").exists()


@pytest.mark.parametrize("num_vars, floor", [(80_000, 50_020_000), (1_000_000_000, 2_378_121_474_435_198)])
def test_reduce_sat_natural_refuses_a_huge_header_before_grouping(tmp_path, capsys, monkeypatch, num_vars, floor):
    # n / log2(n) variable groups at least, each with a choice head and its
    # 2 n_v + 1 leaves and two assignment vertices: 2 n_v^2 + 4 n_v
    n_v = -(-num_vars // int(math.log2(num_vars)))
    assert floor == 2 * n_v * n_v + 4 * n_v
    monkeypatch.setattr(sat, "_first_fit", None)  # any packing attempt raises
    monkeypatch.setattr(sat, "Builder", None)
    src = put(tmp_path, "f.cnf", f"p cnf {num_vars} 1\n1 2 3 0\n")
    start = time.perf_counter()
    assert main(["reduce", "--type", "sat-natural", "--input", src, "--output", str(tmp_path / "nat")]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: sat-natural output would have at least {floor} vertices, cap is 1000000\n"
    assert not (tmp_path / "nat.cvc").exists()


def test_reduce_sat_natural_with_groups_past_the_check_cap(tmp_path, capsys):
    # 60 clauses give clause groups of 7, and 4^(2*7) is above is_detecting's
    # cap: the singleton families must pass without enumeration
    text = random_formula(40, 60, seed=60)
    src = put(tmp_path, "f.cnf", text)
    prefix = str(tmp_path / "nat")
    assert main(["reduce", "--type", "sat-natural", "--input", src, "--output", prefix]) == 0
    groups = group_formula(parse_dimacs(text), "greedy").clause_groups
    assert max(map(len, groups)) == 7
    assert not (tmp_path / f"nat.fam{len(groups) + 1}").exists()
    capsys.readouterr()
    for i, cg in enumerate(groups, start=1):
        argv = ["verify", "--type", "family", "--family", f"{prefix}.fam{i}", "--universe", str(len(cg))]
        assert main(argv) == 0
        assert capsys.readouterr().out == "VALID family\n"


# One fixed input per construction, with its stdout and the SHA-256 of every
# output file, so that a rewrite of a construction that moves a byte fails here.
REDUCE_GOLDEN = {
    "smc": (
        "smc 3 4 2 2\nset 1 1 2\nset 2 2 3\nset 3 1 3\nset 4 1 2 3\n",
        "REDUCED smc vertices=25 edges=27 k=5\n",
        {
            ".cvc": "67a6fa874f96e85ab58d8776a639c59591c6521e06ae9afbe9a43894d87ee054",
            ".meta": "646e59aacfcd5a45ff8f4a3001cddbf5d5a66fae6f533a57c6fb5e997a55cca7",
        },
    ),
    "sat-natural": (
        "p cnf 9 5\n1 -4 7 0\n-2 5 8 0\n3 -6 9 0\n1 5 -9 0\n-2 6 7 0\n",
        "REDUCED sat-natural vertices=402 edges=476 k=22 variable-groups=6 clause-groups=3\n",
        {
            ".cvc": "7b64472c84ca6c47d95b12e8fd72dd874124f2352281985ab7d78e3e1034b902",
            ".fam1": "a6e2b7a040683432de03a18fd8a1939a2fdf82585b364bfc874bdd4095c4cae1",
            ".fam2": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
            ".fam3": "a6e2b7a040683432de03a18fd8a1939a2fdf82585b364bfc874bdd4095c4cae1",
            ".meta": "ca867c4f25d10c411e61077e39240a9f71df643be8e430e3d06f9ee91ca7ad0b",
        },
    ),
    "sat-cw": (
        "p cnf 5 3\n1 -2 3 0\n-1 4 -5 0\n2 -3 5 0\n",
        "REDUCED sat-cw vertices=754 edges=797 k=29\n",
        {
            ".cvc": "89ac614a8ede4a2964856448135838ce08755fa78a0f40c1fa252a5ebf975ebd",
            ".cwx": "7ad04d74f1e922497b9fc23dcb5a1bcb85d51600cdd5656cd943b5ac6b465d84",
            ".meta": "f05b8fe0ba9a511d64806074e969b963701b6d82aba144101c12bd4e89d51687",
        },
    ),
    "mcc-td": (
        "mcc 2 3\nclass 1 1 2 3\nclass 2 4 5 6\ne 1 4\ne 2 6\ne 3 5\ne 1 6\n",
        "REDUCED mcc-td vertices=127418 edges=127670 k=364 choice-groups=12 edge-groups=4\n",
        {
            ".cvc": "6361b3c080153fea75bcc5e4b62863dd88c53517378790907c3e9c3ee008db30",
            ".meta": "93dff86436ab1473392c52f1d8daeae04973fa0141d37cffb7edbe7b3af5aea2",
            ".tdw": "f573e74d7cb1afb77d65b0282e5caf87639e88fcb34428b50078b1352d7c42a5",
        },
    ),
}


@pytest.mark.parametrize("rtype", sorted(REDUCE_GOLDEN))
def test_reduce_outputs_are_byte_identical_to_golden(tmp_path, capsys, rtype):
    text, stdout, digests = REDUCE_GOLDEN[rtype]
    src = put(tmp_path, "source", text)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["reduce", "--type", rtype, "--input", src, "--output", str(out / "r")]) == 0
    assert capsys.readouterr().out == stdout
    produced = {path.suffix: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert produced == digests


# Padding classes are adjacent to every other class.  Three classes pad to
# four and the output is built whole; five pad to eight, so the pendant leaf
# bundles are left out (and the cap raised) to keep the build small.
@pytest.mark.parametrize("text, leaves, stdout, digests", [
    ("mcc 3 1\nclass 1 1\nclass 2 2\nclass 3 3\ne 1 2\ne 2 3\n", True,
     "REDUCED mcc-td vertices=179326 edges=179250 k=460 choice-groups=56 edge-groups=16\n",
     {
         ".cvc": "a8840ff12950e01a8ba3adf570087ae15fe3590353ae43409ec4b9daaa47ba82",
         ".meta": "22b63a66f15a6957da29b2314ea2056f9bcf6d39ec6468610bd12aed9a047969",
         ".tdw": "cd8e598cb94347de7d175f0aa021bb9f58b8da098e724dd664cca925ec86d33b",
     }),
    ("mcc 5 1\n" + "".join(f"class {i} {i}\n" for i in range(1, 6)) + "e 1 2\ne 1 3\ne 2 3\ne 4 5\ne 1 5\n", False,
     "REDUCED mcc-td vertices=1986 edges=1662 k=1996 choice-groups=240 edge-groups=64\n",
     {
         ".cvc": "2ced042916fc501a70c4d70480884e871a80dcfba193b04457903d64fcd831c8",
         ".meta": "e75fc49289626134b0ef31a416c1905b6153a9e53c9843cc7eb48e4c21f2962a",
         ".tdw": "6ce6dfb9293597231ccb132787c8fb5edae96b6a90e5ae03c8a12bfbd7b61a92",
     }),
], ids=["3-classes", "5-classes"])
def test_reduce_mcc_td_padding_is_byte_identical_to_golden(tmp_path, capsys, monkeypatch, text, leaves, stdout, digests):
    if not leaves:
        monkeypatch.setattr(Builder, "pin", lambda self, v, count, demand=0: range(0))
        monkeypatch.setattr(mcc, "MAX_TD_VERTICES", 10**7)
    src = put(tmp_path, "source", text)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["reduce", "--type", "mcc-td", "--input", src, "--output", str(out / "r")]) == 0
    assert capsys.readouterr().out == stdout
    produced = {path.suffix: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert produced == digests


# The calls that read each REDUCE_GOLDEN output: exit code, stdout and the
# certificate's SHA-256 (None when the solver writes none) of both solvers
# at k = the reduction's budget, then each check of a certificate or side file.
DOWNSTREAM_GOLDEN = {
    "smc": {
        "canonical": (1, "FEASIBLE no\n", None),
        "pruned": (1, "FEASIBLE no\n", None),
    },
    "sat-natural": {
        "canonical": (0, "FEASIBLE yes\n", "feb5040a899a00f6d9939f07bf3151535587e238543b423215ffadc1a11c5447"),
        "pruned": (2, "", None),  # above the pruned search's node cap
        "orientation": (0, "VALID size=22\n"),
    },
    "sat-cw": {
        "canonical": (1, "FEASIBLE no\n", None),
        "pruned": (1, "FEASIBLE no\n", None),
        "expression": (0, "VALID expression\n"),
    },
    "mcc-td": {
        "canonical": (0, "FEASIBLE yes\n", "a44f01e5e77647910e2a35ad269f8a0f5aacee6381cfa59c7fa33d5bd9d7553a"),
        "pruned": (2, "", None),  # above the pruned search's node cap
        "orientation": (0, "VALID size=364\n"),
        "witness": (0, "VALID depth=26\n"),
    },
}


@pytest.mark.parametrize("rtype", sorted(DOWNSTREAM_GOLDEN))
def test_solve_and_verify_on_reduced_outputs_are_golden(tmp_path, capsys, rtype):
    text, stdout, _ = REDUCE_GOLDEN[rtype]
    src = put(tmp_path, "source", text)
    prefix = str(tmp_path / "r")
    assert main(["reduce", "--type", rtype, "--input", src, "--output", prefix]) == 0
    k = stdout.split(" k=")[1].split()[0]
    capsys.readouterr()
    produced = {}
    for algo in ("canonical", "pruned"):
        cert = tmp_path / f"{algo}.cert"
        argv = ["solve", "--input", prefix + ".cvc", "--algo", algo, "--k", k, "--cert-out", str(cert)]
        if algo == "canonical":
            argv += ["--meta", prefix + ".meta"]
        code = main(argv)
        digest = hashlib.sha256(cert.read_bytes()).hexdigest() if cert.exists() else None
        produced[algo] = (code, capsys.readouterr().out, digest)
    cert = tmp_path / "canonical.cert"
    checks = {
        "orientation": ["--cert", str(cert), "--k", k] if cert.exists() else None,
        "expression": ["--expr", prefix + ".cwx"] if rtype == "sat-cw" else None,
        "witness": ["--witness", prefix + ".tdw"] if rtype == "mcc-td" else None,
    }
    for vtype, extra in checks.items():
        if extra is not None:
            code = main(["verify", "--type", vtype, "--input", prefix + ".cvc", *extra])
            produced[vtype] = (code, capsys.readouterr().out)
    assert produced == DOWNSTREAM_GOLDEN[rtype]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_commands_in_one_process_match_fresh_interpreters(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    cert = str(tmp_path / "t.cert")
    src = put(tmp_path, "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    runs = [
        ["solve", "--input", inp, "--algo", "oracle", "--cert-out", cert],
        ["verify", "--type", "orientation", "--input", inp, "--cert", cert, "--k", "2"],
        ["reduce", "--type", "sat-natural", "--input", src, "--output", str(tmp_path / "nat")],
        ["verify", "--type", "orientation", "--input", inp, "--cert", cert],
        ["solve", "--input", inp, "--algo", "vi", "--k", "2"],
        ["reduce", "--type", "sat-cw", "--input", src, "--output", str(tmp_path / "cw")],
    ]
    in_process = []
    for argv in runs:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    fresh = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "cvckit.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 1, 0, 0, 1, 0]


def test_solve_canonical_via_meta_file(tmp_path, capsys):
    src = put(tmp_path, "i.smc", "smc 1 1 1 1\nset 1 1\n")
    prefix = str(tmp_path / "out")
    assert main(["reduce", "--type", "smc", "--input", src, "--output", prefix]) == 0
    capsys.readouterr()
    code = main(["solve", "--input", prefix + ".cvc", "--algo", "canonical",
                 "--meta", prefix + ".meta"])
    assert code == 0
    assert "FEASIBLE yes" in capsys.readouterr().out


def test_solve_canonical_with_many_groups(tmp_path, capsys):
    # a perfect matching with one group per edge: 1,200 levels of group choice
    n = 2400
    lines = [f"cvc {n} {n // 2}"] + [f"v {v} 1" for v in range(1, n + 1)]
    lines += [f"e {2 * i - 1} {2 * i}" for i in range(1, n // 2 + 1)]
    inp = put(tmp_path, "m.cvc", "\n".join(lines) + "\n")
    meta = put(tmp_path, "m.meta", "".join(f"group {2 * i - 1} {2 * i}\n" for i in range(1, n // 2 + 1)))
    code = main(["solve", "--input", inp, "--algo", "canonical", "--k", str(n // 2), "--meta", meta])
    captured = capsys.readouterr()
    assert code == 0
    assert "FEASIBLE yes" in captured.out
    assert "Traceback" not in captured.err


def test_solve_vi_decision(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    assert main(["solve", "--input", inp, "--algo", "vi", "--k", "3"]) == 0
    assert "FEASIBLE yes" in capsys.readouterr().out
    assert main(["solve", "--input", inp, "--algo", "vi", "--k", "2"]) == 1


def test_solve_vi_modulator_out_of_range(tmp_path, capsys):
    inp = put(tmp_path, "p3.cvc", "cvc 3 2\nv 1 1\nv 2 1\nv 3 1\ne 1 2\ne 2 3\n")
    for ids in ["99", "-3", "0", "2 4"]:
        mod = put(tmp_path, "p3.mod", f"modulator {ids}\n")
        assert main(["solve", "--input", inp, "--algo", "vi", "--modulator", mod]) == 2
        captured = capsys.readouterr()
        assert "error: modulator vertex" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
    mod = put(tmp_path, "p3.mod", "modulator 2\n")
    assert main(["solve", "--input", inp, "--algo", "vi", "--modulator", mod]) == 0
    assert "MINSIZE" in capsys.readouterr().out


def test_solve_vi_modulator_with_a_second_record(tmp_path, capsys):
    inp = put(tmp_path, "t.cvc", TRIANGLE)
    mod = put(tmp_path, "t.mod", "modulator 1 2\nbogus line here\n")
    assert main(["solve", "--input", inp, "--algo", "vi", "--modulator", mod]) == 2
    captured = capsys.readouterr()
    assert "line 2" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_solve_vi_weak_modulator_is_refused(tmp_path, capsys):
    k8 = "".join(f"e {u} {v}\n" for u in range(1, 9) for v in range(u + 1, 9))
    inp = put(tmp_path, "k8.cvc", "cvc 8 28\n" + "".join(f"v {v} 7\n" for v in range(1, 9)) + k8)
    mod = put(tmp_path, "k8.mod", "modulator 1\n")
    assert main(["solve", "--input", inp, "--algo", "vi", "--modulator", mod]) == 2
    captured = capsys.readouterr()
    assert "error: 21 free edges" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_bench_path_family(tmp_path, capsys):
    assert main(["bench", "--ctw-min", "1", "--ctw-max", "1", "--n", "8",
                 "--extra", "0", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "WORK BOUND VIOLATED" not in out


def test_bench_table_doubling(tmp_path, capsys):
    report = tmp_path / "bench.json"
    assert main(["bench", "--ctw-min", "8", "--ctw-max", "9", "--seed", "1",
                 "--extra", "0", "--json", str(report)]) == 0
    rows = json.loads(report.read_text())["rows"]
    assert rows[0]["max_table"] == 256 and rows[1]["max_table"] == 512


def test_bench_pins_work_and_tables_at_ctw_16_to_18(tmp_path, capsys):
    """The work counts and widest tables of the cut DP on the three bench
    graphs: a rewrite of the transition must leave both as they are."""
    report = tmp_path / "bench.json"
    assert main(["bench", "--ctw-min", "16", "--ctw-max", "18", "--n", "40", "--json", str(report)]) == 0
    rows = json.loads(report.read_text())["rows"]
    assert [row["work"] for row in rows] == [1_130_909, 2_290_903, 4_887_967]
    assert [row["max_table"] for row in rows] == [65_536, 131_072, 262_144]


def test_reduce_bare_class_line(tmp_path, capsys):
    src = put(tmp_path, "g.mcc", "mcc 1 1\nclass\n")
    assert_config_error(["reduce", "--type", "mcc-td", "--input", src,
                         "--output", str(tmp_path / "td")], capsys)


def test_reduce_smc_negative_header(tmp_path, capsys):
    src = put(tmp_path, "s.smc", "smc 0 0 0 -1\n")
    assert_config_error(["reduce", "--type", "smc", "--input", src,
                         "--output", str(tmp_path / "s")], capsys)


@pytest.mark.parametrize("kind, name, text", [
    ("sat-cw", "f.cnf", "p cnf 3 1\n1 2 9 0\n"),
    ("sat-cw", "f.cnf", "p cnf 3 1\n1 1 2 0\n"),
    ("sat-natural", "f.cnf", "p cnf 3 1\n1 0 2 0\n"),
    ("smc", "s.smc", "smc 2 1 0 0\nset 1 5\n"),
])
def test_reduce_record_content_error_names_its_line(tmp_path, capsys, kind, name, text):
    src = put(tmp_path, name, text)
    assert main(["reduce", "--type", kind, "--input", src, "--output", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 2: ") and captured.out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / name]


@pytest.mark.parametrize("kind", ["sat-cw", "sat-natural"])
def test_reduce_dimacs_negative_header(tmp_path, capsys, kind):
    src = put(tmp_path, "f.cnf", "p cnf -5 0\n")
    assert_config_error(["reduce", "--type", kind, "--input", src,
                         "--output", str(tmp_path / "f")], capsys)
    assert list(tmp_path.iterdir()) == [tmp_path / "f.cnf"]


def complete(n, cap):
    lines = [f"cvc {n} {n * (n - 1) // 2}"] + [f"v {v} {cap}" for v in range(1, n + 1)]
    lines += [f"e {u} {v}" for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, algo", [
    (TRIANGLE, "fes"),
    (complete(12, 6), "oracle"),
    (format_instance(layered_with_ctw(30, 4, 0, extra=20)), "cutdp"),
])
def test_auto_answers_with_first_solver_that_accepts(tmp_path, capsys, text, algo):
    inp = put(tmp_path, "g.cvc", text)
    report = tmp_path / "r.json"
    assert main(["solve", "--input", inp, "--algo", "auto", "--json", str(report)]) == 0
    assert json.loads(report.read_text())["algo"] == algo


def test_auto_refused_by_every_solver(tmp_path, capsys):
    inp = put(tmp_path, "k21.cvc", complete(21, 10))
    assert main(["solve", "--input", inp, "--algo", "auto"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: instance exceeds every automatic solver cap\n"
    assert captured.out == ""


def test_cutdp_refuses_wide_arrangement_before_first_layer(tmp_path, capsys, monkeypatch):
    g = layered_with_ctw(42, 21, 0)
    arr = LinearArrangement(tuple(range(1, g.n + 1)))
    assert cutwidth.cutwidth_of(g, arr) == 21

    def never(*args):
        raise AssertionError("process_layer called above the width cap")

    monkeypatch.setattr(cutwidth, "process_layer", never)
    with pytest.raises(CapExceededError, match="21.*20"):
        cutwidth.solve_cutdp(g, arr)
    inp = put(tmp_path, "w.cvc", format_instance(g))
    arr_path = put(tmp_path, "w.arr", format_arrangement(arr))
    assert_config_error(["solve", "--input", inp, "--algo", "cutdp", "--arrangement", arr_path], capsys)


def test_auto_refuses_a_wide_fan_before_any_arrangement_search(tmp_path, capsys, monkeypatch):
    """An apex joined to every vertex of a 42-vertex path: 41 feedback
    edges, 43 vertices and degree 42, so every arrangement has cutwidth at
    least 21 and each route refuses without searching for one."""
    path = [(v, v + 1) for v in range(2, 43)]
    g = CapacitatedGraph.build(43, [(1, v) for v in range(2, 44)] + path, {v: 1 for v in range(1, 44)})
    assert len(feedback_edge_set(g)) == 41 and max(g.degree) == 42

    def never(*args):
        raise AssertionError("arrangement searched although the degree floor is above the cap")

    monkeypatch.setattr(cli, "find_arrangement", never)
    inp = put(tmp_path, "fan.cvc", format_instance(g))
    assert main(["solve", "--input", inp, "--algo", "auto"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: instance exceeds every automatic solver cap\n"
    assert captured.out == ""
    with pytest.raises(CapExceededError, match="degree 42 forces cutwidth 21, above cap 20"):
        cutwidth.check_degree_floor(g)


def test_cli_keeps_no_solver_cap_of_its_own():
    assert cli.AUTO_FES_CAP == fes.DEFAULT_FES_CAP
    assert not hasattr(cli, "AUTO_CUTDP_CAP") and not hasattr(cli, "AUTO_ORACLE_CAP")


@pytest.mark.parametrize("argv", [
    ["bench", "--ctw-min", "5", "--ctw-max", "5", "--n", "4"],
    ["bench", "--ctw-min", "0", "--ctw-max", "0"],
    ["verify", "--type", "family", "--family", "{fam}", "--universe", "2", "--d", "0"],
])
def test_value_error_is_a_config_error(tmp_path, capsys, argv):
    fam = put(tmp_path, "fam.txt", "1\n2\n")
    assert_config_error([arg.format(fam=fam) for arg in argv], capsys)


@pytest.mark.parametrize("argv", [
    ["bench", "--ctw-min", "21", "--ctw-max", "21"],
    ["bench", "--ctw-min", "0", "--ctw-max", "0"],
])
def test_bench_config_error_leaves_stdout_empty(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "x.cvc", "--algo", "magic"],
    ["reduce", "--type", "magic", "--input", "x", "--output", "y"],
    ["verify", "--type", "magic", "--input", "x.cvc"],
    ["gen", "--model", "magic", "--n", "3", "--output", "y.cvc"],
])
def test_unknown_choice_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'magic'" in capsys.readouterr().err


def reduction_files(kind, text):
    """suffix -> text of each file ``reduce --type kind`` writes, from the construction and its formatters."""
    if kind == "smc":
        red, side = reduce_smc(parse_smc(text)), {}
    elif kind == "sat-natural":
        psi = parse_dimacs(text)
        grouping = group_formula(psi, "greedy")
        red = reduce_sat_natural(psi, grouping, [build_family(len(cg), 4) for cg in grouping.clause_groups])
        side = {f".fam{i}": format_family(fam) for i, fam in enumerate(red.families, start=1)}
    elif kind == "sat-cw":
        red = reduce_sat_cw(parse_dimacs(text))
        side = {".cwx": format_expression(red.expression)}
    else:
        red = reduce_mcc_td(parse_mcc(text))
        side = {".tdw": format_witness(red.witness)}
    return {".cvc": format_instance(red.graph), ".meta": format_choice_groups(red.meta), **side}


CNF = "p cnf 4 2\n1 2 3 0\n-1 2 4 0\n"


@pytest.mark.parametrize("kind, text, line, payload", [
    ("smc", "smc 2 2 1 1\nset 1 1 2\nset 2 2\n", "REDUCED smc vertices=12 edges=11 k=3",
     {"k": 3, "vertices": 12}),
    ("sat-natural", CNF, "REDUCED sat-natural vertices=92 edges=101 k=10 variable-groups=3 clause-groups=2",
     {"k": 10, "vertices": 92}),
    ("sat-cw", CNF, "REDUCED sat-cw vertices=360 edges=376 k=20", {"k": 20, "vertices": 360}),
    ("mcc-td", "mcc 2 2\nclass 1 1 2\nclass 2 3 4\ne 1 3\ne 2 4\n",
     "REDUCED mcc-td vertices=34176 edges=34256 k=192 choice-groups=12 edge-groups=4",
     {"k": 192, "vertices": 34176, "choice_groups": 12}),
])
def test_reduce_writes_the_formatted_construction(tmp_path, capsys, kind, text, line, payload):
    src = put(tmp_path, "input", text)
    out = tmp_path / "out"
    out.mkdir()
    report = tmp_path / "r.json"
    argv = ["reduce", "--type", kind, "--input", src, "--output", str(out / "red"), "--json", str(report)]
    assert main(argv) == 0
    assert capsys.readouterr().out == line + "\n"
    written = {path.name: path.read_text() for path in out.iterdir()}
    assert written == {"red" + suffix: body for suffix, body in reduction_files(kind, text).items()}
    assert json.loads(report.read_text()) == {"command": "reduce", "type": kind, "input": src, **payload}


@pytest.mark.parametrize("text, vertices", [
    # two classes of ten ids and no edge; five classes of two, padded to eight
    ("mcc 2 10\nclass 1 " + " ".join(map(str, range(1, 11))) + "\nclass 2 "
     + " ".join(map(str, range(11, 21))) + "\n", 8_162_508),
    ("mcc 5 2\n" + "".join(f"class {i} {2 * i - 1} {2 * i}\n" for i in range(1, 6)), 16_828_256),
])
def test_reduce_mcc_td_refuses_a_large_output_before_building_it(tmp_path, capsys, monkeypatch, text, vertices):
    monkeypatch.setattr(mcc, "_Builder", None)  # any build attempt raises
    src = put(tmp_path, "g.mcc", text)
    start = time.perf_counter()
    assert main(["reduce", "--type", "mcc-td", "--input", src, "--output", str(tmp_path / "r")]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == f"error: mcc-td output would have {vertices} vertices, cap is 1000000\n"
    assert not (tmp_path / "r.cvc").exists()


NO_ROOM = "cvc 2 1\nv 1 0\nv 2 0\ne 1 2\n"  # neither endpoint can take the edge


@pytest.mark.parametrize("algo", ["oracle", "fes", "cutdp", "auto", "vi"])
def test_solve_reports_infeasible(tmp_path, capsys, algo):
    inp = put(tmp_path, "g.cvc", NO_ROOM)
    report = tmp_path / "r.json"
    cert = tmp_path / "g.cert"
    assert main(["solve", "--input", inp, "--algo", algo, "--json", str(report), "--cert-out", str(cert)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "INFEASIBLE\n" and captured.err == ""
    assert json.loads(report.read_text())["minsize"] is None
    assert not cert.exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--input", "{k21}", "--algo", "auto", "--cert-out", "{cert}"], "instance exceeds every automatic solver cap"),
    (["solve", "--input", "{k2}", "--algo", "pruned", "--cert-out", "{cert}"], "--algo pruned needs --k"),
    (["solve", "--input", "{k2}", "--algo", "canonical", "--k", "1", "--cert-out", "{cert}"],
     "--algo canonical needs --k and --meta"),
    (["solve", "--input", "{k2}", "--algo", "oracle", "--cert-out", "{cert}"], "certificate failed verification"),
    (["verify", "--type", "orientation", "--input", "{k2}"], "--type orientation needs --cert"),
])
def test_cli_errors_exit_through_main(tmp_path, capsys, monkeypatch, argv, message):
    if message == "certificate failed verification":
        monkeypatch.setattr(cli, "solve_exact", lambda g: (0, Orientation({(1, 2): 1})))  # claims size 0
    cert = tmp_path / "out.cert"
    files = {"k21": put(tmp_path, "k21.cvc", complete(21, 10)), "k2": put(tmp_path, "k2.cvc", K2), "cert": cert}
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not cert.exists()


def test_verify_expression_stops_once_the_joins_pass_the_edge_count(tmp_path, capsys):
    """1,500 vertices at label 1, 1,500 at label 2 and one join: 2.25 M pairs
    against an instance with one edge."""
    expr = "".join(f"intro {v} {1 + (v > 1500)}\n" for v in range(1, 3001)) + "join 1 2\n"
    argv = [
        "verify", "--type", "expression",
        "--input", put(tmp_path, "g.cvc", "cvc 3000 1\n" + "".join(f"v {v} 1\n" for v in range(1, 3001)) + "e 1 2\n"),
        "--expr", put(tmp_path, "g.cwx", expr),
    ]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().out == "INVALID expression\n"
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def matching(n):
    """A perfect matching on n vertices, capacities 1, as instance text."""
    return f"cvc {n} {n // 2}\n" + "".join(f"v {v} 1\n" for v in range(1, n + 1)) + "".join(
        f"e {v} {v + 1}\n" for v in range(1, n + 1, 2)
    )


@pytest.mark.parametrize("n, code, out, err", [
    (24, 2, "", "error: canonical search above 4000000: 2496144 free subsets of size 11\n"),
    (16, 1, "FEASIBLE no\n", ""),
])
def test_canonical_refuses_a_large_free_pool_before_searching(tmp_path, capsys, n, code, out, err):
    inp = put(tmp_path, "m.cvc", matching(n))
    meta = put(tmp_path, "m.meta", "free " + " ".join(map(str, range(1, n + 1))) + "\n")
    start = time.perf_counter()
    assert main(["solve", "--input", inp, "--algo", "canonical", "--meta", meta, "--k", str(n // 2 - 1)]) == code
    assert code != 2 or time.perf_counter() - start < 0.1  # a refusal comes before any search
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("n, code, out, err", [
    (24, 2, "", "error: given modulator capped at 18 vertices, got 24\n"),
    (16, 0, "MINSIZE 8\n", ""),
])
def test_vi_refuses_a_given_modulator_above_the_cap(tmp_path, capsys, n, code, out, err):
    inp = put(tmp_path, "m.cvc", matching(n))
    mod = put(tmp_path, "m.mod", "modulator " + " ".join(map(str, range(1, n + 1))) + "\n")
    start = time.perf_counter()
    assert main(["solve", "--input", inp, "--algo", "vi", "--modulator", mod]) == code
    assert code != 2 or time.perf_counter() - start < 0.1  # a refusal comes before any search
    assert capsys.readouterr() == (out, err)
