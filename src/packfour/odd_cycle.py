"""Grow the two 2-packings until what is left is bipartite.

Starting from the triangle-breaker's pair, repeatedly find a shortest odd
cycle in the remainder (the subgraph induced by unchosen vertices), scan its
vertices in witness order, and absorb the first one that can join a side
without breaking that side's 2-packing — side a is tried before side b.
Distances are always measured in the original graph, not the remainder.

The loop keeps one record per non-bipartite component of the remainder,
(h, least): the component's odd girth is 2h + 1 and least is the smallest
vertex on its shortest odd cycles.  The records sit in a heap, and the
global witness source, the smallest vertex on any shortest odd cycle of the
remainder, is the least vertex of the least record, so a round pops that
record.  A component's record comes from its own 2-coloring,
graph.color_components from its smallest vertex: a BFS runs from the smaller
end of each clash edge (an edge whose ends share a color), since every odd
cycle holds one, cut off at the shallowest edge-holding layer found so far.
Each search carries, for every vertex it reaches, the least vertex on any
shortest path to it from the source, so the least vertex on the source's
shortest odd cycles is read off the edges inside its last layer, with no
walk back (graph.odd_girth_record).  One more BFS from the popped least
vertex, stopped at that layer, gives the witness (graph.witness_cycle), so
the remainder need not be claw-free or of maximum degree 2.

An absorption changes only the absorbed vertex's component: its vertices
are 2-colored again, in ascending order, so each piece it falls into is
rooted at its smallest vertex, and each non-bipartite piece gets a new
record.  The rest of the remainder is never touched again, so a run costs
what its absorptions' components hold; one reducer run allocates the
searches' depth and least-vertex lists once.  When the heap is empty every
component is bipartite, and the colors written so far are those
graph.two_coloring gives on the remainder.

A vertex may join a side when its radius-2 ball, graph.ball2, misses that
side.  The loop works on one live map from side to vertex set and one live
adjacency on g's own vertex ids, with every chosen vertex isolated.  It
starts as g's own tuples, edited locally: each chosen vertex's entry is
emptied, and each of its unchosen neighbours' tuples loses every chosen
vertex, not only that one, since an unchosen vertex can have a chosen
neighbour on each side.  Each absorption rewrites only the absorbed
vertex's entry and its neighbours' entries, so the remainder is never
relabelled or rebuilt.
Isolated vertices hold no odd cycle and every order the search uses is an
order of vertex ids, so the witness is the one the remainder relabelled onto
0..k-1 would give, mapped back.  Every absorption deletes a vertex from the
remainder, so the loop ends after at most n steps with a bipartite remainder,
or raises StuckOddCycle carrying the offending cycle and a claw search result
(non-claw-free inputs are the expected cause of a stuck run).
Only there, and at the normal return, is the state frozen into a
ReductionState, whose remainder is every vertex on neither side; the caller
already holds the breaker's pair it started from.
At the normal return the state carries the remainder's 2-coloring on g's own
ids with the chosen vertices isolated, so assembly needs no second pass over
the remainder.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import StuckOddCycle
from .graph import (Graph, ball2, color_components, find_claw, odd_girth_record,
                    witness_cycle)
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
    marked = pair.marked
    live = list(g.adj)
    for v in marked:
        live[v] = ()
        for u in g.adj[v]:
            if u not in marked:  # a chosen neighbour's entry is emptied in turn
                live[u] = tuple([x for x in g.adj[u] if x not in marked])
    additions: list[Addition] = []
    color = [-1] * g.n
    depth = [-1] * g.n
    low = [0] * g.n
    records: list[tuple[int, int, list[int]]] = []  # (h, least, component)

    def settle(roots) -> None:
        # color every uncolored component met in roots' order, and record
        # the non-bipartite ones
        for comp, clash in color_components(live, roots, color):
            h, least = odd_girth_record(live, sorted(set(clash)), depth, low)
            heapq.heappush(records, (h, least, comp))

    def frozen(color) -> ReductionState:
        return ReductionState(frozenset(ext["A"]), frozenset(ext["B"]),
                              frozenset(range(g.n)).difference(ext["A"], ext["B"]),
                              tuple(additions), color)

    settle(range(g.n))
    while records:
        h, first, comp = heapq.heappop(records)
        cycle = witness_cycle(live, first, h)
        for v in cycle:
            side = addable_side(g, ext["A"], ext["B"], v)
            if side is not None:
                ext[side].add(v)
                for w in live[v]:
                    live[w] = tuple([x for x in live[w] if x != v])
                live[v] = ()
                additions.append(Addition(v, side, len(cycle)))
                for x in comp:
                    color[x] = -1
                color[v] = 0
                comp.sort()
                settle(comp)
                break
        else:
            raise StuckOddCycle(frozen(None), cycle, find_claw(g))
    return frozen(tuple(color)), additions
