"""Spans recorded from outside cvckit, by wrapping its public functions.

Each wrapper replaces a function in the module where its caller looks it
up (``cvckit.cli.solve_exact``, ``cvckit.core.orient_into``, ...), so the
program itself is unchanged.  A span is ``[name, start, end, parent,
operation, extra]``: ``parent`` is the index of the enclosing span (-1 for
none) and ``extra`` a work count read off the call's arguments or result.
The layer of a span is the part of its name before the first dot.

``aggregate`` turns the spans of a traced run into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter


def _feasible(result, args, kwargs):
    return int(result is not None)


def _width(result, args, kwargs):
    """Cutwidth of the arrangement ``find_arrangement`` returned."""
    pos = {v: i for i, v in enumerate(result.order)}
    diff = [0] * (len(pos) + 1)
    for u, v in args[0].edges:
        lo, hi = sorted((pos[u], pos[v]))
        diff[lo] += 1
        diff[hi] -= 1
    width = cur = 0
    for d in diff:
        cur += d
        width = max(width, cur)
    return width


def _layer_work(result, args, kwargs):
    return [result.work, result.table_size]


def _count(result, args, kwargs):
    return len(result)


def _modulator_size(result, args, kwargs):
    return len(result.vertices)


def _output_vertices(result, args, kwargs):
    return result.graph.n


# (module, attribute, span name, extra); one row per place a caller looks up.
WRAPS = [
    ("cvckit.cli", "parse_instance", "core.parse", None),
    ("cvckit.cli", "parse_orientation", "core.parse", None),
    ("cvckit.cli", "format_instance", "core.format", None),
    ("cvckit.cli", "format_orientation", "core.format", None),
    ("cvckit.cli", "verify_orientation", "core.verify", None),
    ("cvckit.core", "orient_into", "core.assign", _feasible),
    ("cvckit.oracle", "orient_into", "core.assign", _feasible),
    ("cvckit.cli", "solve_exact", "oracle.exact", None),
    ("cvckit.cli", "solve_canonical", "oracle.canonical", None),
    ("cvckit.cli", "solve_pruned", "oracle.pruned", None),
    ("cvckit.cli", "parse_choice_groups", "oracle.io", None),
    ("cvckit.cli", "format_choice_groups", "oracle.io", None),
    ("cvckit.cli", "find_arrangement", "cutwidth.arrangement", _width),
    ("cvckit.cli", "parse_arrangement", "cutwidth.io", None),
    ("cvckit.cutwidth", "solve_cutdp_detailed", "cutwidth.solve", None),
    ("cvckit.cutwidth", "process_layer", "cutwidth.layer", _layer_work),
    ("cvckit.cli", "solve_fes", "fes.solve", None),
    ("cvckit.fes", "feedback_edge_set", "fes.edges", _count),
    ("cvckit.fes", "forest_dp", "fes.forest_dp", None),
    ("cvckit.cli", "solve_vi", "vertex_integrity.solve", "guesses"),
    ("cvckit.cli", "solve_vi_opt", "vertex_integrity.solve", "guesses"),
    ("cvckit.vertex_integrity", "compute_modulator", "vertex_integrity.modulator", _modulator_size),
    ("cvckit.cli", "reduce_smc", "reductions.build", _output_vertices),
    ("cvckit.cli", "reduce_sat_natural", "reductions.build", _output_vertices),
    ("cvckit.cli", "reduce_sat_cw", "reductions.build", _output_vertices),
    ("cvckit.cli", "reduce_mcc_td", "reductions.build", _output_vertices),
    ("cvckit.cli", "verify_cw_expression", "reductions.side_verify", None),
    ("cvckit.cli", "verify_td_witness", "reductions.side_verify", None),
    ("cvckit.cli", "parse_dimacs", "reductions.io", None),
    ("cvckit.cli", "parse_smc", "reductions.io", None),
    ("cvckit.cli", "parse_mcc", "reductions.io", None),
    ("cvckit.cli", "group_formula", "reductions.io", None),
    ("cvckit.cli", "format_expression", "reductions.io", None),
    ("cvckit.cli", "format_witness", "reductions.io", None),
    ("cvckit.cli", "build_family", "detecting.build", None),
    ("cvckit.cli", "format_family", "detecting.io", None),
    ("cvckit.generators", "gnp", "generators.gen", None),
    ("cvckit.generators", "sparse_with_fes", "generators.gen", None),
    ("cvckit.generators", "layered_with_ctw", "generators.gen", None),
    ("cvckit.generators", "random_mcc", "generators.gen", None),
]

LAYERS = ("cli", "core", "oracle", "cutwidth", "fes", "vertex_integrity",
          "reductions", "detecting", "generators")


class Tracer:
    """Keeps spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.operation = None
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args: tuple, kwargs: dict, extra=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        spans, stack = self.spans, self.stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.operation, None]
        stack.append(len(spans))
        spans.append(record)
        if extra == "guesses" and kwargs.get("stats") is None:
            kwargs["stats"] = {}  # the VI solver counts its guesses into this dict
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if extra == "guesses":
            record[5] = kwargs["stats"].get("guesses", 0)
        elif extra is not None:
            record[5] = extra(result, args, kwargs)
        return result

    def install(self) -> None:
        for module_name, attr, name, extra in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, extra))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, name, fn, extra):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics


def aggregate(spans: list[list], traced_rounds: int, untraced_wall: list[float],
              traced_wall: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run, by name; ``BENCHMARK.json``
    lists their units and the ones reported.

    Times and counts are per round (totals over the traced rounds divided
    by their number), except the generators' figures, which are per
    set-up.  Widths, sizes and edge counts are means per call; ratios are
    taken over all calls and read 0 when there were none.
    """
    rounds = max(traced_rounds, 1)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    extras: dict[str, list] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if extra is not None:
            extras.setdefault(name, []).append(extra)
        self_time[name.split(".", 1)[0]] += end - start - child_time[i]

    def per_round(name):
        return total.get(name, 0.0) / rounds

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    assign = extras.get("core.assign", [])
    layer_work = extras.get("cutwidth.layer", [])
    fes_sizes = extras.get("fes.edges", [])
    leaves = calls.get("fes.forest_dp", 0)
    out = {f"{layer}.self_s": self_time[layer] / rounds for layer in LAYERS}
    out["generators.self_s"] = self_time["generators"]
    out.update({
        "core.assign_calls": calls.get("core.assign", 0) / rounds,
        "core.assign_s": per_round("core.assign"),
        "core.assign_feasible_ratio": sum(assign) / len(assign) if assign else 0.0,
        "core.parse_s": per_round("core.parse"),
        "core.format_s": per_round("core.format"),
        "core.verify_s": per_round("core.verify"),
        "oracle.exact_s": per_round("oracle.exact"),
        "oracle.canonical_s": per_round("oracle.canonical"),
        "oracle.pruned_s": per_round("oracle.pruned"),
        "cutwidth.arrangement_calls": calls.get("cutwidth.arrangement", 0) / rounds,
        "cutwidth.arrangement_s": per_round("cutwidth.arrangement"),
        "cutwidth.arrangement_width": mean(extras.get("cutwidth.arrangement", [])),
        "cutwidth.dp_s": per_round("cutwidth.layer"),
        "cutwidth.dp_work": sum(w for w, _ in layer_work) / rounds,
        "cutwidth.table_entries": sum(t for _, t in layer_work) / rounds,
        "cutwidth.rebuild_s": per_round("cutwidth.solve") - per_round("cutwidth.layer"),
        "fes.solve_s": per_round("fes.solve"),
        "fes.fes_edges": mean(fes_sizes),
        "fes.forest_dp_calls": leaves / rounds,
        "fes.forest_dp_s": per_round("fes.forest_dp"),
        "fes.leaf_ratio": leaves / sum(2**f for f in fes_sizes) if fes_sizes else 0.0,
        "vertex_integrity.modulator_s": per_round("vertex_integrity.modulator"),
        "vertex_integrity.modulator_size": mean(extras.get("vertex_integrity.modulator", [])),
        "vertex_integrity.solve_s": per_round("vertex_integrity.solve"),
        "vertex_integrity.guesses": sum(extras.get("vertex_integrity.solve", [])) / rounds,
        "reductions.build_s": per_round("reductions.build"),
        "reductions.output_vertices": sum(extras.get("reductions.build", [])) / rounds,
        "reductions.side_verify_s": per_round("reductions.side_verify"),
        "detecting.build_s": per_round("detecting.build"),
        "generators.gen_s": total.get("generators.gen", 0.0),
        "trace.overhead_s": statistics.median(traced_wall) - statistics.median(untraced_wall),
        "trace.spans": sum(1 for s in spans if s[4] != "setup") / rounds,
    })
    return out
