"""packfour: certified (1,1,2,2)-packing colorings of claw-free cubic graphs."""

from .graph import (
    Graph,
    INF,
    bfs_distances,
    bipartition_or_odd_cycle,
    build_graph,
    components,
    find_claw,
    induced_subgraph,
    is_cubic,
    list_triangles,
    shortest_odd_cycle,
    triangle_membership_counts,
    vertices_within,
)
from .formats import (
    parse_edge_list,
    parse_graph6,
    read_certificate,
    write_certificate,
    write_graph6,
)
from .packing import Coloring, SSpec, Violation, is_k_packing, parse_sspec, verify_spacking
from .triangle_break import (
    AppliedMove,
    Move,
    PackingPair,
    Weights,
    break_triangles,
    check_packing_pair,
    enumerate_improving_moves,
    surviving_triangles,
    vertex_weight,
)
from .odd_cycle import Addition, ReductionState, addable_side, reduce_odd_cycles
from .oracle import OracleResult, all_pairs_distances, batch_decide, exists_spacking
from .pipeline import Outcome, color_claw_free_cubic, color_or_report
from . import errors, generators

__all__ = [
    "Graph", "INF", "bfs_distances", "bipartition_or_odd_cycle", "build_graph",
    "components", "find_claw", "induced_subgraph", "is_cubic", "list_triangles",
    "shortest_odd_cycle", "triangle_membership_counts", "vertices_within",
    "parse_edge_list", "parse_graph6", "read_certificate", "write_certificate",
    "write_graph6", "Coloring", "SSpec", "Violation",
    "is_k_packing", "parse_sspec", "verify_spacking", "AppliedMove", "Move",
    "PackingPair", "Weights", "break_triangles", "check_packing_pair",
    "enumerate_improving_moves", "surviving_triangles", "vertex_weight",
    "Addition", "ReductionState", "addable_side", "reduce_odd_cycles",
    "OracleResult", "all_pairs_distances", "batch_decide", "exists_spacking",
    "Outcome", "color_claw_free_cubic", "color_or_report", "errors", "generators",
]
