"""Exact solvers, reductions, and verifiers for capacitated vertex cover in
its edge-orientation formulation."""

from .core import (
    CapacitatedGraph,
    CapExceededError,
    FeasReport,
    GraphFormatError,
    Orientation,
    StructuralError,
    assign_edges,
    normalize_capacities,
    parse_instance,
    verify_orientation,
)
from .oracle import ChoiceGroups, solve_canonical, solve_exact, solve_pruned
from .cutwidth import (
    LinearArrangement,
    cut_edges,
    cutwidth_of,
    find_arrangement,
    solve_cutdp,
)
from .vertex_integrity import (
    compute_modulator,
    solve_vi,
    solve_vi_opt,
)
from .fes import feedback_edge_set, forest_dp, solve_fes
from .detecting import DetectingFamily, build_family, is_detecting

__all__ = [
    "CapacitatedGraph",
    "CapExceededError",
    "ChoiceGroups",
    "DetectingFamily",
    "FeasReport",
    "GraphFormatError",
    "LinearArrangement",
    "Orientation",
    "StructuralError",
    "assign_edges",
    "build_family",
    "compute_modulator",
    "cut_edges",
    "cutwidth_of",
    "feedback_edge_set",
    "find_arrangement",
    "forest_dp",
    "is_detecting",
    "normalize_capacities",
    "parse_instance",
    "solve_canonical",
    "solve_cutdp",
    "solve_exact",
    "solve_fes",
    "solve_pruned",
    "solve_vi",
    "solve_vi_opt",
    "verify_orientation",
]
