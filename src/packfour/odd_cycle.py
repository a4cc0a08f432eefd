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

- lay_out gives every vertex its BFS depth from its component's smallest
  vertex; the depth's parity is the vertex's color in the BFS 2-coloring.
  Every odd cycle holds a clash edge, one whose ends share a color, which
  in a BFS layering is one whose ends share a depth, so the smaller ends of
  the clash edges meet every odd cycle, and only they are searched.
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
On claw-free input every odd component of the remainder is one cycle with
one clash edge, so relayer's multi-layer repair and split, and a
multi-source odd_girth_record, serve --force alone.

The loop keeps one record per non-bipartite component of the remainder,
(h, least): the component's odd girth is 2h + 1 and least is the smallest
vertex on its shortest odd cycles.  The records sit in a heap, and the
witness source of the whole remainder is the least vertex of the least
record, so a round pops that record.  The witness starts at that vertex,
so when it may join a side it is absorbed with no cycle built; witness_cycle
runs only when it may join neither, and the scan goes on from the cycle's
second vertex.

An absorption changes only the absorbed vertex's component, and only the
depths of the vertices whose every shortest path from the root ran through
it.  Each record keeps its component's root, vertex set and clash edges,
and cut_vertex deletes the absorbed vertex from them.  When that vertex is
the root, the component is laid out again from scratch, each piece from its
smallest vertex.  Otherwise relayer walks down from its children one layer
at a time, collecting the vertices with no neighbour one layer up that
keeps its depth; gives those new depths from their neighbours that kept
theirs, nearest first; and edits the clash edges of those vertices alone.
The depths are exact, since deleting a vertex never shortens a path: a
vertex with a parent that keeps its depth keeps its own.  Any of the
collected vertices left with no depth are cut off from the root, and each
piece they form is laid out from its smallest vertex.  So the depths, the
clash edges and the searches are those a fresh layout of the component
would give, and each non-bipartite piece gets a new record.  The rest of
the remainder is never touched again; one reducer run allocates the
searches' depth and least-vertex lists once.  When the heap is empty every
component is bipartite, and the parities of the depths are the remainder's
BFS 2-coloring, each component rooted at its smallest vertex.

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


def lay_out(adj, roots, dist: list[int]) -> list[tuple[int, set[int], set[tuple[int, int]]]]:
    """BFS layering of every component not yet laid out, written into dist
    (-1 is not laid out), each from the first of roots it holds.

    dist[v] is v's depth below its component's root, so its parity is v's
    color in the BFS 2-coloring, and the clash edges, the ones whose ends
    share a color, are the edges whose ends share a depth.  Returns, for each
    non-bipartite component in root order, (root, its vertices, its clash
    edges as (smaller end, larger end)).
    """
    odd = []
    for root in roots:
        if dist[root] >= 0:
            continue
        dist[root] = 0
        comp = [root]
        clash = []
        for u in comp:  # grows while iterated: a BFS queue
            du = dist[u]
            for v in adj[u]:
                dv = dist[v]
                if dv < 0:
                    dist[v] = du + 1
                    comp.append(v)
                elif dv == du and u < v:
                    clash.append((u, v))
        if clash:
            odd.append((root, set(comp), set(clash)))
    return odd


def relayer(adj, v: int, nbrs, dist: list[int], clash: set[tuple[int, int]]) -> list[int]:
    """Repair a component's layering after v, not its root, left adj: nbrs
    are v's former neighbours, dist and clash the component's depths and
    clash edges before, both updated in place.

    The vertices that lose their depth are those with no neighbour one layer
    up that keeps its own, every shortest path from the root to them having
    run through v; they are found layer by layer below v's children, and
    only their edges leave or join clash.  Each gets its depth anew from its
    neighbours that kept theirs, nearest first.  Returns, ascending, those
    no longer reachable from the root, with dist -1; v gets depth 0, its
    own root.
    """
    d = dist[v]
    dist[v] = 0
    layer = []
    for y in nbrs:
        dy = dist[y]
        if dy == d:
            clash.discard((v, y) if v < y else (y, v))
        elif dy > d:
            layer.append(y)
    lost = []
    while layer:
        up = d
        d += 1
        below = set()
        for w in layer:
            a = adj[w]
            for x in a:
                if dist[x] == up:
                    break
            else:
                lost.append(w)
                dist[w] = -1
                for y in a:
                    dy = dist[y]
                    if dy == d:
                        clash.discard((w, y) if w < y else (y, w))
                    elif dy > d:
                        below.add(y)
        layer = below
    heap = []
    for w in lost:
        kept = [dist[x] for x in adj[w] if dist[x] >= 0]
        if kept:
            heap.append((min(kept) + 1, w))
    heapq.heapify(heap)
    while heap:
        dw, w = heapq.heappop(heap)
        if dist[w] >= 0:
            continue
        dist[w] = dw
        for y in adj[w]:
            dy = dist[y]
            if dy < 0:
                heapq.heappush(heap, (dw + 1, y))
            elif dy == dw:
                clash.add((w, y) if w < y else (y, w))
    return sorted([w for w in lost if dist[w] < 0])


def cut_vertex(adj, v: int, root: int, comp: set[int], dist: list[int],
               clash: set[tuple[int, int]]) -> list[tuple[int, set[int], set[tuple[int, int]]]]:
    """Delete v from adj, a list of tuples, and from its component, laid out
    from root with vertex set comp and clash edges clash (see lay_out).

    Returns the non-bipartite pieces of the component without v, as lay_out
    does.  When v is the root they are laid out again from scratch;
    otherwise the layering is repaired (relayer), the piece holding root
    keeps comp and clash, edited in place, and any piece split off is laid
    out from its smallest vertex.
    """
    nbrs = adj[v]
    for w in nbrs:
        adj[w] = tuple([x for x in adj[w] if x != v])
    adj[v] = ()
    comp.discard(v)
    if v == root:
        for x in comp:
            dist[x] = -1
        dist[v] = 0
        return lay_out(adj, sorted(comp), dist)
    stray = relayer(adj, v, nbrs, dist, clash)
    comp.difference_update(stray)
    pieces = lay_out(adj, stray, dist)
    if clash:
        pieces.append((root, comp, clash))
    return pieces


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
    dist = [-1] * g.n
    depth = [-1] * g.n
    low = [0] * g.n
    records = []  # (h, least, root, component, clash edges)

    def settle(pieces) -> None:
        # record each non-bipartite piece
        for root, comp, clash in pieces:
            h, least = odd_girth_record(live, sorted({u for u, _ in clash}), depth, low)
            heapq.heappush(records, (h, least, root, comp, clash))

    def frozen(color) -> ReductionState:
        return ReductionState(frozenset(ext["A"]), frozenset(ext["B"]),
                              frozenset(range(g.n)).difference(ext["A"], ext["B"]),
                              tuple(additions), color)

    settle(lay_out(live, range(g.n), dist))
    while records:
        h, v, root, comp, clash = heapq.heappop(records)
        side = addable_side(g, ext["A"], ext["B"], v)
        if side is None:
            # the witness starts at v; the first of its other vertices that
            # may join a side is absorbed instead
            cycle = witness_cycle(live, v, h)
            for v in cycle[1:]:
                side = addable_side(g, ext["A"], ext["B"], v)
                if side is not None:
                    break
            else:
                raise StuckOddCycle(frozen(None), cycle, find_claw(g))
        ext[side].add(v)
        additions.append(Addition(v, side, 2 * h + 1))
        settle(cut_vertex(live, v, root, comp, dist, clash))
    return frozen(tuple([d & 1 for d in dist])), additions
