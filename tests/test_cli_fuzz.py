"""Small generated files through every CLI command: the exit code is 0, 1 or 2
and no exception escapes ``main``."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cvckit.cli import main

ALGOS = ("auto", "oracle", "pruned", "canonical", "cutdp", "vi", "fes")
REDUCTIONS = ("smc", "sat-natural", "sat-cw", "mcc-td")
VERIFICATIONS = ("orientation", "arrangement", "expression", "witness", "family")

small = st.integers(-1, 8)
KEYWORDS = (
    "cvc", "v", "e", "a", "modulator", "forced", "group", "free", "arrangement",
    "intro", "join", "relabel", "parent", "mcc", "class", "smc", "set", "p", "cnf",
)
# lines of a known keyword and a few small fields, mostly integers
field = st.one_of(small.map(str), st.sampled_from(("x", "#")))
record = st.tuples(st.sampled_from(KEYWORDS), st.lists(field, max_size=4)).map(
    lambda kw_rest: " ".join((kw_rest[0], *kw_rest[1]))
)
record_text = st.lists(record, max_size=8).map(lambda rows: "".join(f"{row}\n" for row in rows))


def lines(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


@st.composite
def files(draw):
    """One well-formed file per role over an instance of at most 8 vertices;
    any of them may be swapped for random records."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))) if n > 1 else []
    caps = [draw(st.integers(0, 4)) for _ in range(n)]
    budget = draw(st.one_of(st.just(()), st.tuples(st.integers(0, n))))
    order = draw(st.permutations(range(1, n + 1)))
    ids = draw(st.lists(st.integers(1, max(n, 1)), max_size=4))
    lits = st.integers(1, 4).flatmap(lambda x: st.sampled_from((x, -x)))
    valid = {
        "cvc": lines(
            [("cvc", n, len(edges), *budget)]
            + [("v", v, cap) for v, cap in enumerate(caps, start=1)]
            + [("e", u, v) for u, v in edges]
        ),
        "arr": lines([("arrangement", n)] + [(v,) for v in order]),
        "cert": lines(("a", u, v) if draw(st.booleans()) else ("a", v, u) for u, v in edges),
        "mod": lines([("modulator", *ids)]),
        "meta": lines([("forced", *ids[:1]), ("group", *ids[1:]), ("free",)]),
        "expr": lines(("intro", v, 1) for v in order),
        "tdw": lines(("parent", v, order[i - 1] if i else 0) for i, v in enumerate(order)),
        "fam": lines([ids, ids[:2]]),
        "smc": lines([("smc", 3, 2, 1, 1), ("set", 1, *ids[:2]), ("set", 2, 3)]),
        "cnf": lines([("p", "cnf", 4, 1), (*draw(st.lists(lits, min_size=3, max_size=3)), 0)]),
        "mcc": lines([("mcc", 2, 1), ("class", 1, 1), ("class", 2, 2)] + [("e", 1, 2)] * (n % 2)),
    }
    return {name: draw(st.one_of(st.just(text), record_text)) for name, text in valid.items()}


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@settings(max_examples=40, deadline=None)
@given(
    texts=files(),
    k=st.one_of(st.none(), small),
    arrangement=st.sampled_from(("file", "exact", "heuristic", None)),
    numbers=st.tuples(small, small, small, small),
)
def test_every_command_exits_0_1_or_2(texts, k, arrangement, numbers):
    a, b, c, d = numbers
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: Path(tmp, f"in.{name}") for name in texts}
        for name, text in texts.items():
            path[name].write_text(text)
        out = Path(tmp, "out")
        calls = []
        for algo in ALGOS:
            argv = ["solve", "--input", path["cvc"], "--algo", algo,
                    "--cert-out", out, "--json", f"{out}.json"]
            argv += [] if k is None else ["--k", k]
            if arrangement == "file":
                argv += ["--arrangement", path["arr"]]
            elif arrangement:
                argv += ["--find-arrangement", arrangement]
            argv += ["--modulator", path["mod"]] if a % 2 else []
            argv += ["--meta", path["meta"]]
            calls.append(argv)
        source = {"smc": "smc", "sat-natural": "cnf", "sat-cw": "cnf", "mcc-td": "mcc"}
        calls += [
            ["reduce", "--type", t, "--input", path[source[t]], "--output", out] for t in REDUCTIONS
        ]
        for t in VERIFICATIONS:
            calls.append([
                "verify", "--type", t, "--input", path["cvc"], "--cert", path["cert"],
                "--arrangement", path["arr"], "--expr", path["expr"], "--witness", path["tdw"],
                "--family", path["fam"], "--universe", b, "--d", c, "--max-ctw", d,
            ] + ([] if k is None else ["--k", k]))
        calls += [
            ["gen", "--model", model, "--n", a, "--p", 0.4, "--fes", b, "--ctw", c, "--extra", d,
             "--seed", 3, "--output", out, "--arrangement-out", f"{out}.arr"]
            for model in ("gnp", "sparse", "layered")
        ]
        calls.append(
            ["bench", "--ctw-min", b, "--ctw-max", min(c, 4), "--n", a, "--extra", max(d, 0)]
        )
        for argv in calls:
            assert run(argv) in (0, 1, 2), argv
