"""Grow the two 2-packings until what is left is bipartite.

Starting from the triangle-breaker's pair, repeatedly find a shortest odd
cycle in the remainder (the subgraph induced by unchosen vertices), scan its
vertices in witness order, and absorb the first one that can join a side
without breaking that side's 2-packing — side a is tried before side b.  A
vertex may join a side when its radius-2 ball, graph.ball2, misses that
side, so distances are always measured in the original graph, not the
remainder.

The witness is the one a scan over every source would give.  An edge
joining two vertices in BFS layer d of a source closes an odd walk of length
2d + 1, and the minimum over all sources and such edges is attained by a
simple chordless cycle.  The witness is the first minimum in scan order:
smallest source, then the lexicographically first edge in one of its
layers.  That source is the smallest vertex on any shortest odd cycle, since
a shortest odd cycle is isometric: each of its vertices sees the cycle's
opposite edge inside one layer.  Three searches find it without the scan:

- color_components 2-colors the remainder by BFS.  Every odd cycle holds a
  clash edge, one whose ends share a color, so the smaller ends of the clash
  edges meet every odd cycle, and only they are searched.
- odd_girth_record runs a BFS from each, cut off at the shallowest
  edge-holding layer found so far, ties included; the least such depth h
  gives the odd girth 2h + 1.  A vertex on a shortest path from a source to
  an end of an edge inside that source's layer h lies on a shortest odd
  cycle, and every shortest odd cycle passes through a searched source.  So
  each search carries, for every vertex it reaches, the least vertex on any
  shortest path to it from the source, folded over all its neighbours one
  layer up, and the least of those values over the ends of the edges inside
  layer h is the smallest vertex on the shortest odd cycles through that
  source; no search is walked back.  The least over the sources is the
  witness source.
- witness_cycle's one BFS from the witness source, stopped at depth h,
  gives the lexicographically first edge with both ends at depth h, whose
  tree paths are spliced into the cycle.  The two paths share only the
  source: a second shared vertex at depth d > 0 would close an odd walk of
  length 2(h - d) + 1 < 2h + 1, shorter than the odd girth.  So the closed
  walk is a simple cycle, and the source, the least vertex on any shortest
  odd cycle of its component, is its minimum.  The splice is the source,
  the path down to one end, and the path from the other end back up, in
  the direction whose second vertex is the smaller; it needs no search for
  a common prefix and no rotation.

None of this needs the remainder to be claw-free or of maximum degree 2.

The loop keeps one record per non-bipartite component of the remainder,
(h, least): the component's odd girth is 2h + 1 and least is the smallest
vertex on its shortest odd cycles.  The records sit in a heap, and the
witness source of the whole remainder is the least vertex of the least
record, so a round pops that record.  An absorption changes only the
absorbed vertex's component: its vertices are 2-colored again, in ascending
order, so each piece it falls into is rooted at its smallest vertex, and
each non-bipartite piece gets a new record.  The rest of the remainder is
never touched again, so a run costs what its absorptions' components hold;
one reducer run allocates the searches' depth and least-vertex lists once.
When the heap is empty every component is bipartite, and the colors written
so far are the remainder's BFS 2-coloring, each component rooted at its
smallest vertex.

The loop works on one live map from side to vertex set and one live
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
from collections import namedtuple

from .errors import StuckOddCycle
from .graph import Graph, ball2, find_claw
from .triangle_break import PackingPair

OddCycle = tuple[int, ...]


class Addition(namedtuple("Addition", "vertex side cycle_length")):
    # side is "A" or "B"
    __slots__ = ()


class ReductionState(namedtuple("ReductionState", "ext_a ext_b remaining additions color")):
    """What the reducer hands on: the grown sides, the remainder (frozensets),
    the log (a tuple of Additions), and the remainder's 2-coloring on g's
    ids as a tuple (None in a stuck snapshot, whose remainder is not
    bipartite)."""
    __slots__ = ()


def color_components(adj, roots, color: list[int]) -> list[tuple[list[int], list[int]]]:
    """BFS 2-coloring of every uncolored component, written into color (-1 is
    uncolored), each rooted at the first of roots it holds.

    A root gets color 0 and every other vertex the opposite color of its BFS
    parent.  Returns, for each non-bipartite component in root order, its
    vertices in BFS order and the smaller ends of its edges whose ends share
    a color, unordered, one per edge.
    """
    odd = []
    for root in roots:
        if color[root] != -1:
            continue
        color[root] = 0
        comp = [root]
        clash = []
        for u in comp:  # grows while iterated: a BFS queue
            cu = color[u]
            for v in adj[u]:
                cv = color[v]
                if cv == -1:
                    color[v] = 1 - cu
                    comp.append(v)
                elif cv == cu and u < v:
                    clash.append(u)
        if clash:
            odd.append((comp, clash))
    return odd


def _odd_layer(adj, s: int, radius: int, depth: list[int],
               low: list[int]) -> tuple[int, int] | None:
    # BFS from s, layer by layer, out to depth radius.  depth[y] is y's depth
    # and low[y] the least vertex on a shortest path from s to y: the least of
    # y and the low of every neighbour one layer up, not only the one that
    # found y.  After the first layer d that holds an edge, returns (d, the
    # least low over the ends of the edges inside it); None if no layer up to
    # radius holds one.  depth is all -1 on entry and is reset on return
    # entry by entry, so a search costs what it visits.
    depth[s] = 0
    low[s] = s
    seen = [s]
    layer = [s]
    d = 0
    found = None
    n = len(adj)  # no vertex: least holds n while no edge lies inside the layer
    while layer:
        least = n
        nxt = []
        for x in layer:
            lx = low[x]
            for y in adj[x]:
                dy = depth[y]
                if dy < 0:
                    depth[y] = d + 1
                    low[y] = lx if lx < y else y
                    nxt.append(y)
                elif dy >= d:  # nested so that a parent, dy == d - 1, costs two tests
                    if dy > d:
                        if lx < low[y]:
                            low[y] = lx
                    elif lx < least:
                        least = lx
        seen += nxt
        if least < n:
            found = (d, least)
            break
        if d == radius:
            break
        layer = nxt
        d += 1
    for x in seen:
        depth[x] = -1
    return found


def odd_girth_record(adj, sources, depth: list[int], low: list[int]) -> tuple[int, int]:
    """(h, least) for a part of a graph whose odd cycles all meet sources:
    its odd girth is 2h + 1 and least is the smallest vertex on its shortest
    odd cycles.

    Searches each source in the given order, each BFS cut off at the
    shallowest edge-holding layer found so far, ties included.  depth and
    low are scratch lists over the vertex ids, depth all -1; the searches
    leave it so, and a caller running many records keeps the two lists.
    sources must meet an odd cycle.
    """
    record = (len(adj), len(adj))
    for s in sources:
        found = _odd_layer(adj, s, record[0], depth, low)
        if found is not None and found < record:
            record = found
    return record


def witness_cycle(adj, first: int, h: int) -> OddCycle:
    """The odd cycle of length 2h + 1 that one BFS from first, stopped at
    depth h, gives: the lexicographically first edge (u, v) with both ends
    at depth h, then first, the tree path down to u, and the tree path from
    v back up to depth 1, reversed when its last vertex is smaller than its
    second.  first must be the least vertex on a shortest odd cycle, of
    length 2h + 1, of its component (see the module docstring)."""
    parent = {first: first}
    layer = [first]
    for _ in range(h):
        nxt = []
        for x in layer:
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
        layer = nxt
    inside = set(layer)
    u, v = min((u, v) for u in layer for v in adj[u] if v > u and v in inside)
    down, up = [u], [v]
    for _ in range(h - 1):
        down.append(parent[down[-1]])
        up.append(parent[up[-1]])
    cycle = [first, *reversed(down), *up]
    if cycle[-1] < cycle[1]:
        cycle[1:] = cycle[:0:-1]
    return tuple(cycle)


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
    the returned state carries that remainder's BFS 2-coloring."""
    ext = {"A": set(pair.a), "B": set(pair.b)}
    marked = pair.marked
    adj = g.adj
    live = list(adj)
    for v in marked:
        live[v] = ()
        for u in adj[v]:
            if u not in marked:  # a chosen neighbour's entry is emptied in turn
                live[u] = tuple([x for x in adj[u] if x not in marked])
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
