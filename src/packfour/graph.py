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
    m: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def vertices(self) -> range:
        return range(self.n)


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and freeze it into a Graph.

    Rejects self-loops, duplicate edges (in either orientation) and endpoints
    outside 0..n-1.
    """
    if n < 0:
        raise VertexOutOfRange(n, n)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        for x in (u, v):
            if not 0 <= x < n:
                raise VertexOutOfRange(x, n)
        if u == v:
            raise SelfLoop(u)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(u, v)
        seen.add(key)
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    return Graph(n=n, adj=adj, m=len(seen))


def bfs_distances(g: Graph, src: int) -> list[float]:
    """Hop distances from src; INF where unreachable."""
    return _bfs_parents(g, src)[0]


def _bfs_parents(g: Graph, src: int) -> tuple[list[float], list[int]]:
    # parent[src] == src; parent[v] == -1 where unreachable
    dist: list[float] = [INF] * g.n
    parent = [-1] * g.n
    dist[src] = 0
    parent[src] = src
    q = deque([src])
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if dist[v] is INF:
                dist[v] = dist[u] + 1
                parent[v] = u
                q.append(v)
    return dist, parent


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


def list_triangles(g: Graph) -> list[Triangle]:
    """All triangles (u, v, w) with u < v < w, in lexicographic order."""
    out: list[Triangle] = []
    nbr_sets = [set(a) for a in g.adj]
    for u in range(g.n):
        above = [v for v in g.adj[u] if v > u]
        for i, v in enumerate(above):
            for w in above[i + 1:]:
                if w in nbr_sets[v]:
                    out.append((u, v, w))
    return out


def triangle_membership_counts(g: Graph) -> list[int]:
    counts = [0] * g.n
    for t in list_triangles(g):
        for v in t:
            counts[v] += 1
    return counts


def is_cubic(g: Graph) -> bool:
    return all(len(a) == 3 for a in g.adj)


def require_cubic(g: Graph) -> None:
    """Raise NotCubic at the first vertex whose degree is not 3."""
    for v in range(g.n):
        if g.degree(v) != 3:
            raise NotCubic(v, g.degree(v))


def find_claw(g: Graph) -> tuple[int, tuple[int, int, int]] | None:
    """First claw: smallest center, then lexicographically smallest leaves.

    A claw is an induced K_{1,3}: three pairwise non-adjacent neighbors of a
    common center.  Returns (center, (a, b, c)) or None.
    """
    nbr_sets = [set(a) for a in g.adj]
    for c in range(g.n):
        for a, b, d in itertools.combinations(g.adj[c], 3):
            if b not in nbr_sets[a] and d not in nbr_sets[a] and d not in nbr_sets[b]:
                return (c, (a, b, d))
    return None


def induced_subgraph(g: Graph, keep) -> tuple[Graph, list[int]]:
    """Subgraph induced by `keep`, plus the increasing new->old vertex map.

    The map is monotone and g's adjacency tuples are sorted, so relabelling
    them keeps them sorted and simple: no revalidation through build_graph.
    """
    mapping = sorted(set(keep))
    for v in mapping:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(v, g.n)
    new = [-1] * g.n
    for i, old in enumerate(mapping):
        new[old] = i
    adj = tuple(tuple([new[w] for w in g.adj[old] if new[w] >= 0]) for old in mapping)
    return Graph(n=len(mapping), adj=adj, m=sum(map(len, adj)) // 2), mapping


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        q = deque([root])
        while q:
            u = q.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    q.append(v)
        out.append(sorted(comp))
    return out


def _canonical_cycle(seq: list[int]) -> OddCycle:
    # rotate so the smallest vertex leads; pick the direction with the
    # smaller successor so each cycle has exactly one printed form
    k = seq.index(min(seq))
    rot = seq[k:] + seq[:k]
    if len(rot) > 2 and rot[-1] < rot[1]:
        rot = [rot[0]] + rot[1:][::-1]
    return tuple(rot)


def two_coloring(g: Graph) -> tuple[list[int], list[int]]:
    """BFS 2-coloring of every component, roots ascending; returns (color, odd).

    Each root, the smallest vertex of its component, gets color 0 and every
    other vertex the opposite color of its BFS parent.  odd lists the vertices
    of every component holding an edge whose ends share a color, in BFS order;
    it is empty exactly when g is bipartite, and then color is a proper
    2-coloring.
    """
    color = [-1] * g.n
    odd: list[int] = []
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        comp = [root]
        clash = False
        for u in comp:  # grows while iterated: a BFS queue
            for v in g.adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    comp.append(v)
                elif color[v] == color[u]:
                    clash = True
        if clash:
            odd.extend(comp)
    return color, odd


def _path_to_root(v: int, parent: list[int]) -> list[int]:
    path = [v]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    path.reverse()  # root first
    return path


def _odd_cycle_from_conflict(u: int, v: int, parent: list[int]) -> OddCycle:
    # BFS-tree paths from the root share a prefix and diverge permanently, so
    # splicing them at the last common vertex yields a simple cycle; u and v
    # have equal depth parity (same color, or same BFS layer), so it is odd.
    pu = _path_to_root(u, parent)
    pv = _path_to_root(v, parent)
    i = 0
    while i < min(len(pu), len(pv)) and pu[i] == pv[i]:
        i += 1
    cycle = pu[i - 1:] + pv[:i - 1:-1]
    return _canonical_cycle(cycle)


def shortest_odd_cycle(g: Graph) -> OddCycle | None:
    """A minimum-length odd cycle, or None if the graph is bipartite.

    An edge joining two vertices in the same BFS layer of a source closes an
    odd walk of length 2*layer + 1, and the minimum over all sources and such
    edges is attained by a simple chordless cycle.  The witness is the first
    minimum in scan order: smallest source, then the lexicographically first
    edge in one of its layers.

    two_coloring first finds the non-bipartite components; with none, the
    graph is bipartite and the answer is None at once.  A source in a
    bipartite component never sees such an edge, so only the vertices of the
    other components are swept, all at once, one layer per round, on
    Python-int bitsets: layer[v] holds the sources at distance exactly d from
    v.  The first round in which some vertex shares a source with a
    neighbour's layer fixes the minimum; the lowest bit of the union is the
    witness source, whose BFS tree is then spliced at the first edge holding
    it.  Every source there has such a round, so the sweep always ends.
    """
    odd = two_coloring(g)[1]
    if not odd:
        return None
    layer = [0] * g.n
    for v in odd:
        layer[v] = 1 << v
    seen = layer[:]
    adj = g.adj
    while True:
        hit = 0
        nxt = [0] * g.n
        for x in odd:
            reach = 0
            for y in adj[x]:
                reach |= layer[y]
            hit |= reach & layer[x]
            reach &= ~seen[x]
            seen[x] |= reach
            nxt[x] = reach
        if hit:
            break
        layer = nxt
    low = hit & -hit
    s = low.bit_length() - 1
    u, v = next((u, v) for u, v in g.edges() if layer[u] & layer[v] & low)
    return _odd_cycle_from_conflict(u, v, _bfs_parents(g, s)[1])
