"""Grow the two 2-packings until what is left is bipartite.

Starting from the triangle-breaker's pair, repeatedly find a shortest odd
cycle in the remainder (the subgraph induced by unchosen vertices), scan its
vertices in witness order, and absorb the first one that can join a side
without breaking that side's 2-packing — side a is tried before side b.
Distances are always measured in the original graph, not the remainder.

Each round first 2-colors the remainder: a bipartite remainder, one with no
clash edge (an edge whose ends share a color), ends the loop at once, and its
2-coloring is handed on.  Otherwise graph.shortest_odd_cycle_colored runs a
BFS from the smaller end of each clash edge two_coloring listed, since every
odd cycle holds one, cut off at the shallowest edge-holding layer found so
far.  Walking those BFS layers back from the ends of the edges inside the
shallowest layer marks the vertices on shortest odd cycles, and one more BFS
from the smallest of them, stopped at that layer, gives the witness, so the
remainder need not be claw-free or of maximum degree 2.

A vertex may join a side when its radius-2 ball, graph.ball2, misses that
side.  The loop works on one live map from side to vertex set and one live
adjacency on g's own vertex ids, built once with every chosen vertex
isolated.  Each absorption rewrites only the absorbed vertex's entry and its
neighbours' entries, so the remainder is never relabelled or rebuilt.
Isolated vertices hold no odd cycle and every order the search uses is an
order of vertex ids, so the witness is the one the remainder relabelled onto
0..k-1 would give, mapped back.  Every absorption deletes a vertex from the
remainder, so the loop ends after at most n steps with a bipartite remainder,
or raises StuckOddCycle carrying the offending cycle and a claw search result
(non-claw-free inputs are the expected cause of a stuck run).
Only there, and at the normal return, is the state frozen into a
ReductionState, whose remainder is every vertex on neither side; the caller
already holds the breaker's pair it started from.
At the normal return the state carries the last round's 2-coloring, that of
the remainder on g's own ids with the chosen vertices isolated, so assembly
needs no second pass over the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StuckOddCycle
from .graph import (Graph, ball2, find_claw, induced_subgraph, shortest_odd_cycle_colored,
                    two_coloring)
from .triangle_break import PackingPair


@dataclass(frozen=True)
class Addition:
    vertex: int
    side: str  # "A" or "B"
    cycle_length: int

    def to_record(self) -> dict:
        return {"vertex": self.vertex, "side": self.side, "cycle_length": self.cycle_length}


@dataclass(frozen=True)
class ReductionState:
    """What the reducer hands on: the grown sides, the remainder, the log,
    and the remainder's 2-coloring on g's ids (None in a stuck snapshot,
    whose remainder is not bipartite)."""
    ext_a: frozenset[int]
    ext_b: frozenset[int]
    remaining: frozenset[int]
    additions: tuple[Addition, ...]
    color: tuple[int, ...] | None


def addable_side(g: Graph, ext_a, ext_b, v: int) -> str | None:
    """Which side v may join: "A" if distance >= 3 from ext_a, else "B", else None."""
    if v in ext_a or v in ext_b:
        raise ValueError(f"vertex {v} is already on a side")
    ball = ball2(g.adj, v)
    if ball.isdisjoint(ext_a):
        return "A"
    if ball.isdisjoint(ext_b):
        return "B"
    return None


def reduce_odd_cycles(g: Graph, pair: PackingPair) -> tuple[ReductionState, list[Addition]]:
    """Absorb one vertex per shortest odd cycle until the remainder is bipartite;
    the returned state carries that remainder's two_coloring colors."""
    ext = {"A": set(pair.a), "B": set(pair.b)}
    live = list(induced_subgraph(g, set(range(g.n)) - pair.marked).adj)
    additions: list[Addition] = []

    def frozen(color) -> ReductionState:
        return ReductionState(frozenset(ext["A"]), frozenset(ext["B"]),
                              frozenset(range(g.n)).difference(ext["A"], ext["B"]),
                              tuple(additions), color)

    while True:
        rest = Graph(g.n, tuple(live))
        color, clash = two_coloring(rest)
        if not clash:
            return frozen(tuple(color)), additions
        cycle = shortest_odd_cycle_colored(rest, clash)
        for v in cycle:
            side = addable_side(g, ext["A"], ext["B"], v)
            if side is not None:
                ext[side].add(v)
                for w in live[v]:
                    live[w] = tuple([x for x in live[w] if x != v])
                live[v] = ()
                additions.append(Addition(v, side, len(cycle)))
                break
        else:
            raise StuckOddCycle(frozen(None), cycle, find_claw(g))
