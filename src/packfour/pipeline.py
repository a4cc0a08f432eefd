"""End-to-end (1,1,2,2)-packing coloring of claw-free cubic graphs.

Stage one extracts two disjoint 2-packings that hit every triangle; stage two
absorbs one vertex per remaining odd cycle until the remainder is bipartite.
One 2-coloring of that remainder gives the 1-packing classes 1a/1b (color 0
and color 1), the grown 2-packings become 2a/2b.  A remainder that is still
not bipartite is a RuntimeError naming an odd cycle of it.  The certificate
writer verifies the result and refuses an invalid one, so the pipeline can
fail loudly but never emit a wrong answer.
"""

from __future__ import annotations

from .errors import NotClawFree
from .formats import write_certificate
from .graph import (Graph, find_claw, induced_subgraph, require_cubic, shortest_odd_cycle,
                    two_coloring)
from .odd_cycle import reduce_odd_cycles
from .packing import Coloring
from .triangle_break import break_triangles

# class indices: 1a=1, 1b=2, 2a=3, 2b=4 (matching SPEC_1122 entry order)
CLASS_1A, CLASS_1B, CLASS_2A, CLASS_2B = 1, 2, 3, 4


def color_claw_free_cubic(g: Graph, force: bool = False) -> tuple[Coloring, str]:
    """Color g with classes 1a/1b/2a/2b; returns (coloring, certificate JSON).

    Preconditions are checked: cubic always, claw-freeness unless `force` is
    set (experimental runs on non-claw-free cubic graphs may raise
    StuckOddCycle, which is surfaced verbatim — never a bad certificate).
    """
    require_cubic(g)
    if not force:
        claw = find_claw(g)
        if claw is not None:
            raise NotClawFree(claw)
    pair, lemma_trace = break_triangles(g)
    state, reducer_trace = reduce_odd_cycles(g, pair)
    sub, mapping = induced_subgraph(g, state.remaining)
    color, odd = two_coloring(sub)
    if odd:
        cycle = tuple(mapping[i] for i in shortest_odd_cycle(sub))
        raise RuntimeError(f"remainder not bipartite after reduction: odd cycle {cycle}")
    coloring: list[int] = [0] * g.n
    for i, v in enumerate(mapping):
        coloring[v] = CLASS_1A + color[i]
    for v in state.ext_a:
        coloring[v] = CLASS_2A
    for v in state.ext_b:
        coloring[v] = CLASS_2B
    trace = {
        "lemma": [step.to_record() for step in lemma_trace],
        "reducer": [step.to_record() for step in reducer_trace],
    }
    certificate = write_certificate(g, coloring, trace)
    return coloring, certificate
