"""Immutable simple undirected graphs and the primitives everything else uses.

Vertices are 0..n-1.  Adjacency lists are strictly increasing tuples, so every
iteration order downstream is deterministic.  Distances are hop counts with
math.inf for unreachable pairs; the infinity sentinel makes empty-set distance
queries behave correctly (min over nothing is infinite).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .errors import DuplicateEdge, NotCubic, SelfLoop, VertexOutOfRange

INF = math.inf

Triangle = tuple[int, int, int]
OddCycle = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and freeze it into a Graph.

    Rejects self-loops, duplicate edges (in either orientation) and endpoints
    outside 0..n-1.

    A canonical list, each pair (u, v) with u < v and the pairs strictly
    increasing, as write_certificate and the generators emit, takes one
    append pass: one comparison against the previous pair proves the pair in
    range, no self-loop and no duplicate, and the adjacency lists come out
    sorted, each vertex's smaller neighbours before its larger ones.  At the
    first pair out of that order the rest of the list goes through the
    checking loop, which names the first problem; every pair before it
    passed all of that loop's checks.
    """
    if n < 0:
        raise VertexOutOfRange(n, n)
    adj: list[list[int]] = [[] for _ in range(n)]
    edges = iter(edges)
    # (0, 0) precedes every canonical pair and no pair with an end below 0
    pu = pv = 0
    for u, v in edges:
        if not (pu < u < v < n if u != pu else pv < v < n):
            break
        adj[u].append(v)
        adj[v].append(u)
        pu, pv = u, v
    else:
        return Graph(n=n, adj=tuple(map(tuple, adj)))
    # (u, v) is out of order: it and the rest of the list go through the
    # checking loop, onto the neighbour sets built so far
    nbrs = [set(a) for a in adj]
    for u, v in itertools.chain(((u, v),), edges):
        if not 0 <= u < n:
            raise VertexOutOfRange(u, n)
        if not 0 <= v < n:
            raise VertexOutOfRange(v, n)
        if u == v:
            raise SelfLoop(u)
        if v in nbrs[u]:
            raise DuplicateEdge(u, v)
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n=n, adj=tuple(tuple(sorted(s)) for s in nbrs))


def bfs_distances(g: Graph, src: int) -> list[float]:
    """Hop distances from src; INF where unreachable."""
    dist: list[float] = [INF] * g.n
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if dist[v] is INF:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def vertices_within(g: Graph, sources, radius: int) -> set[int]:
    """All vertices at hop distance <= radius from some source (sources included)."""
    dist: dict[int, int] = {}
    q = deque()
    for s in sorted(set(sources)):
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        if dist[u] == radius:
            continue
        for v in g.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return set(dist)


def ball2(adj, v: int) -> set[int]:
    """The vertices within distance 2 of v, read off the adjacency tuples:
    v, its neighbours and theirs."""
    ball = set(adj[v])
    for x in adj[v]:
        ball.update(adj[x])
    # last, so a vertex with a neighbour keeps the int its neighbour's
    # tuple holds, not a second copy per ball
    ball.add(v)
    return ball


def list_triangles(g: Graph) -> list[Triangle]:
    """All triangles (u, v, w) with u < v < w, in lexicographic order.
    Membership is tested on the sorted adjacency tuples themselves."""
    adj = g.adj
    return [(u, v, w) for u, a in enumerate(adj) for v, w in itertools.combinations(a, 2)
            if u < v and w in adj[v]]


def is_cubic(g: Graph) -> bool:
    return all(len(a) == 3 for a in g.adj)


def require_cubic(g: Graph) -> None:
    """Raise NotCubic at the first vertex whose degree is not 3."""
    for v, a in enumerate(g.adj):
        if len(a) != 3:
            raise NotCubic(v, len(a))


def find_claw(g: Graph) -> tuple[int, tuple[int, int, int]] | None:
    """First claw: smallest center, then lexicographically smallest leaves.

    A claw is an induced K_{1,3}: three pairwise non-adjacent neighbors of a
    common center.  Returns (center, (a, b, c)) or None.
    """
    adj = g.adj
    for c, nbrs in enumerate(adj):
        for a, b, d in itertools.combinations(nbrs, 3):
            if b not in adj[a] and d not in adj[a] and d not in adj[b]:
                return (c, (a, b, d))
    return None


def induced_subgraph(g: Graph, keep) -> Graph:
    """Subgraph induced by `keep`, on g's own vertex ids.

    Vertices outside keep stay, isolated.  g's adjacency tuples are sorted,
    so filtering them keeps them sorted and simple: no revalidation through
    build_graph.
    """
    inside = [False] * g.n
    for v in keep:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(v, g.n)
        inside[v] = True
    adj = tuple(tuple([w for w in a if inside[w]]) if inside[v] else ()
                for v, a in enumerate(g.adj))
    return Graph(n=g.n, adj=adj)


def _canonical_cycle(seq: list[int]) -> OddCycle:
    # rotate so the smallest vertex leads; pick the direction with the
    # smaller successor so each cycle has exactly one printed form
    k = seq.index(min(seq))
    rot = seq[k:] + seq[:k]
    if len(rot) > 2 and rot[-1] < rot[1]:
        rot = [rot[0]] + rot[1:][::-1]
    return tuple(rot)


def color_components(adj, roots, color: list[int]) -> list[tuple[list[int], list[int]]]:
    """BFS 2-coloring of every uncolored component, written into color (-1 is
    uncolored), each rooted at the first of roots it holds.

    A root gets color 0 and every other vertex the opposite color of its BFS
    parent.  Returns, for each non-bipartite component in root order, its
    vertices in BFS order and the smaller ends of its edges whose ends share
    a color, unordered, one per edge.  Every odd cycle holds such an edge and
    such an edge closes an odd cycle with the BFS tree.
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


def two_coloring(g: Graph) -> tuple[list[int], list[int]]:
    """BFS 2-coloring of every component, roots ascending; returns (color, clash).

    Each root, the smallest vertex of its component, gets color 0 and every
    other vertex the opposite color of its BFS parent (color_components).
    clash lists, ascending and once each, the smaller ends of the edges whose
    ends share a color, so clash is empty exactly when g is bipartite, and
    then color is a proper 2-coloring.
    """
    color = [-1] * g.n
    odd = color_components(g.adj, range(g.n), color)
    return color, sorted({u for _, clash in odd for u in clash})


def _path_to_root(v: int, parent: dict[int, int]) -> list[int]:
    path = [v]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    path.reverse()  # root first
    return path


def _odd_cycle_from_conflict(u: int, v: int, parent: dict[int, int]) -> OddCycle:
    # BFS-tree paths from the root share a prefix and diverge permanently, so
    # splicing them at the last common vertex yields a simple cycle; u and v
    # share a BFS layer, so it is odd.
    pu = _path_to_root(u, parent)
    pv = _path_to_root(v, parent)
    i = 0
    while i < min(len(pu), len(pv)) and pu[i] == pv[i]:
        i += 1
    cycle = pu[i - 1:] + pv[:i - 1:-1]
    return _canonical_cycle(cycle)


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
    """The odd cycle of length 2h + 1 through first that one BFS from first,
    stopped at depth h, gives: the lexicographically first edge with both
    ends at depth h, its two tree paths spliced.  first must lie on a
    shortest odd cycle of length 2h + 1."""
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
    return _odd_cycle_from_conflict(u, v, parent)


def shortest_odd_cycle(g: Graph) -> OddCycle | None:
    """A minimum-length odd cycle, or None if the graph is bipartite.

    An edge joining two vertices in BFS layer d of a source closes an odd
    walk of length 2d + 1, and the minimum over all sources and such edges is
    attained by a simple chordless cycle.  The witness is the first minimum
    in scan order: smallest source, then the lexicographically first edge in
    one of its layers.  That source is the smallest vertex on any shortest
    odd cycle, since a shortest odd cycle is isometric: each of its vertices
    sees the cycle's opposite edge inside one layer.

    two_coloring runs first; a bipartite graph, with no clash edge, returns
    None at once.  Every odd cycle holds a clash edge, one whose ends share a
    color, so the smaller ends of the clash edges meet every odd cycle, and
    only they are searched, in the ascending order two_coloring lists them
    (odd_girth_record).  Each search is a BFS cut off at the shallowest
    edge-holding layer found so far, ties included; the least such depth h
    gives the odd girth 2h + 1.  A vertex on a shortest path from a source
    to an end of an edge inside that source's layer h lies on a shortest odd
    cycle, and every shortest odd cycle passes through a searched source.
    So each search carries, for every vertex it reaches, the least vertex on
    any shortest path to it from the source, folded over all its neighbours
    one layer up, and the least of those values over the ends of the edges
    inside layer h is the smallest vertex on the shortest odd cycles through
    that source; no search is walked back.  The smallest such vertex over
    the sources is the witness source, and witness_cycle's one BFS from it,
    stopped at depth h, gives the lexicographically first edge with both
    ends at depth h, whose tree paths are spliced into the cycle.  The
    odd-cycle reducer runs the two parts, odd_girth_record and
    witness_cycle, per component.
    """
    clash = two_coloring(g)[1]
    if not clash:
        return None
    h, first = odd_girth_record(g.adj, clash, [-1] * g.n, [0] * g.n)
    return witness_cycle(g.adj, first, h)
