"""Immutable simple undirected graphs and the primitives everything else uses.

Vertices are 0..n-1.  Adjacency lists are strictly increasing tuples, so every
iteration order downstream is deterministic.  Distances are hop counts, and
INF (math.inf) stands for an unbounded search radius and an unreachable pair.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import DuplicateEdge, NotCubic, SelfLoop, VertexOutOfRange

INF = math.inf

Triangle = tuple[int, int, int]


class Graph(namedtuple("Graph", "n adj")):
    """n vertices and their adjacency tuples, adj: tuple[tuple[int, ...], ...]."""
    __slots__ = ()

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v) with u < v in lexicographic order."""
        return [(u, v) for u, a in enumerate(self.adj) for v in a if v > u]


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
        return Graph(n, tuple(map(tuple, adj)))
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
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def bfs_distances(g: Graph, sources, radius: float = INF) -> dict[int, int]:
    """Hop distance from the nearest source to every vertex at most radius
    away, the sources included at 0.  Vertices beyond radius, or unreachable,
    have no entry, so a bounded search costs what it visits."""
    adj = g.adj
    dist = dict.fromkeys(sources, 0)
    layer = list(dist)
    d = 0
    while layer and d < radius:
        d += 1
        nxt = []
        for u in layer:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        layer = nxt
    return dist


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
