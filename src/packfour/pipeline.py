"""End-to-end (1,1,2,2)-packing coloring of claw-free cubic graphs.

Stage one extracts two disjoint 2-packings that hit every triangle; stage two
absorbs one vertex per remaining odd cycle until the remainder is bipartite.
The two bipartition sides become the 1-packing classes 1a/1b, the grown
2-packings become 2a/2b.  The certificate writer verifies the result and
refuses an invalid one, so the pipeline can fail loudly but never emit a
wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotClawFree, PackfourError
from .formats import SPEC_1122, write_certificate
from .graph import Graph, bipartition_or_odd_cycle, find_claw, induced_subgraph, is_cubic, require_cubic
from .odd_cycle import reduce_odd_cycles
from .oracle import DEFAULT_VERTEX_CAP, exists_spacking
from .packing import Coloring, SSpec
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
    result = bipartition_or_odd_cycle(sub)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], list):
        side0, side1 = result
    else:
        raise RuntimeError(f"remainder not bipartite after reduction: {result}")
    coloring: list[int] = [0] * g.n
    for i in side0:
        coloring[mapping[i]] = CLASS_1A
    for i in side1:
        coloring[mapping[i]] = CLASS_1B
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


@dataclass(frozen=True)
class Outcome:
    method: str  # "pipeline" | "oracle"
    colorable: str  # "yes" | "no" | "unknown"
    coloring: Coloring | None = None
    reason: str | None = None


def color_or_report(g: Graph, s: SSpec,
                    vertex_cap: int = DEFAULT_VERTEX_CAP) -> Outcome:
    """Constructive route when it applies, exact oracle otherwise.

    Never raises for an answerable input: errors fold into the record, and
    "unknown" appears only when the oracle skipped the graph for size.
    """
    if tuple(s.values) == tuple(SPEC_1122.values) and is_cubic(g) and find_claw(g) is None:
        try:
            coloring, _ = color_claw_free_cubic(g)
            return Outcome("pipeline", "yes", coloring)
        except PackfourError as e:  # unreachable for valid inputs; stay honest
            return Outcome("pipeline", "unknown", reason=str(e))
    res = exists_spacking(g, s, vertex_cap)
    return Outcome("oracle", res.status, res.coloring, res.reason)

