"""End-to-end (1,1,2,2)-packing coloring of claw-free cubic graphs.

Stage one extracts two disjoint 2-packings that hit every triangle; stage two
absorbs one vertex per remaining odd cycle until the remainder is bipartite.
The reducer hands over the 2-coloring that ended its loop, on g's own vertex
ids with the chosen vertices isolated; it gives the 1-packing classes 1a/1b
(color 0 and color 1), and the grown 2-packings become 2a/2b, overwriting
the isolated vertices' colors.  The certificate writer verifies the result
and refuses an invalid one, so the pipeline can fail loudly but never emit a
wrong answer.
"""

from __future__ import annotations

from .errors import NotClawFree
from .formats import CLASS_1A, CLASS_2A, CLASS_2B, write_certificate
from .graph import Graph, find_claw, require_cubic
from .odd_cycle import reduce_odd_cycles
from .packing import Coloring
from .triangle_break import break_triangles


def color_claw_free_cubic(g: Graph, force: bool = False) -> tuple[Coloring, str]:
    """Color g with classes 1a/1b/2a/2b; returns (coloring, certificate JSON).

    Preconditions are checked in order: cubic always (NotCubic), then
    claw-freeness unless `force` is set (NotClawFree with graph.find_claw's
    first claw).  Experimental runs on non-claw-free cubic graphs may raise
    StuckOddCycle, which is surfaced verbatim — never a bad certificate.
    """
    require_cubic(g)
    if not force:
        claw = find_claw(g)
        if claw is not None:
            raise NotClawFree(claw)
    pair, lemma_trace = break_triangles(g)
    state, reducer_trace = reduce_odd_cycles(g, pair)
    coloring = [CLASS_1A + c for c in state.color]
    for v in state.ext_a:
        coloring[v] = CLASS_2A
    for v in state.ext_b:
        coloring[v] = CLASS_2B
    certificate = write_certificate(g, coloring, lemma_trace, reducer_trace)
    return coloring, certificate
