"""Graph families: named fixtures, triangle inflation, necklaces, random cubic.

Everything here is deterministic for a fixed seed; adjacency construction
orders are fixed so repeated runs emit byte-identical graph6.
"""

from __future__ import annotations

import itertools
import random
import re

from .errors import BadParameter, RetryLimit, UnknownName
from .graph import Graph, bfs_distances, build_graph, is_cubic, list_triangles, require_cubic


def k4() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def prism() -> Graph:
    # two triangles joined by a perfect matching
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                           (0, 3), (1, 4), (2, 5)])


def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (5, 8), (6, 8), (6, 9), (7, 9)]
    return build_graph(10, outer + spokes + inner)


def k33() -> Graph:
    return build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameter(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def diamond_necklace(k: int) -> Graph:
    """k diamonds (K4 minus an edge) joined in a ring by their degree-2 tips.

    Diamond i occupies 4i..4i+3: tips 4i and 4i+1, hub pair 4i+2, 4i+3.
    k = 1 would need a double edge between the two tips, so it is rejected.
    """
    if k < 2:
        raise BadParameter(f"diamond necklace needs k >= 2, got {k}")
    edges = []
    for i in range(k):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d)]
        edges.append((b, 4 * ((i + 1) % k)))
    return build_graph(4 * k, edges)


# gadgets for _substitute: (size, edges on local ids); ports are 0, 1 and 2
_TRIANGLE = (3, ((0, 1), (0, 2), (1, 2)))
# K_{2,3}: hubs 3 and 4, each adjacent to every port
_K23 = (5, tuple((p, hub) for hub in (3, 4) for p in (0, 1, 2)))


def _substitute(base: Graph, gadgets) -> Graph:
    """Put gadgets[v] in place of each vertex v of a cubic base, on the next
    free ids in vertex order; v's base edges, sorted by neighbour id, attach
    to the gadget's ports in order."""
    offset = list(itertools.accumulate([size for size, _ in gadgets], initial=0))
    edges = [(offset[v] + x, offset[v] + y) for v, (_, local) in enumerate(gadgets)
             for x, y in local]
    adj = base.adj
    edges += [(offset[u] + adj[u].index(v), offset[v] + adj[v].index(u)) for u, v in base.edges()]
    return build_graph(offset[-1], edges)


def inflate(g: Graph) -> Graph:
    """Replace every vertex of a cubic graph by a triangle.

    Vertex v becomes {3v, 3v+1, 3v+2}; v's incident edges, sorted by neighbor
    id, attach to those corners in order.  The result is claw-free cubic on
    3n vertices.
    """
    require_cubic(g)
    return _substitute(g, [_TRIANGLE] * g.n)


def named_graph(name: str) -> Graph:
    """Fixture lookup: k4, prism, petersen, k33, c<n>, necklace<k>."""
    key = name.strip().lower().replace("-", "_").replace(" ", "")
    fixed = {"k4": k4, "prism": prism, "petersen": petersen, "k33": k33}
    if key in fixed:
        return fixed[key]()
    m = re.fullmatch(r"c_?(\d+)", key)
    if m:
        return cycle(int(m.group(1)))
    m = re.fullmatch(r"(?:diamond_?)?necklace_?(\d+)", key)
    if m:
        return diamond_necklace(int(m.group(1)))
    raise UnknownName(name)


# pairings random_cubic draws before it gives up
MAX_RETRIES = 2000


def random_cubic(n: int, seed: int, connected: bool = False) -> Graph:
    """Seeded configuration-model cubic graph: pair stubs, reject degeneracies.

    Rejects pairings with loops or repeated edges (and disconnected results
    when `connected` is set); raises RetryLimit if none of MAX_RETRIES
    pairings is clean.
    """
    if n < 4 or n % 2 != 0:
        raise BadParameter(f"random cubic graph needs even n >= 4, got {n}")
    rng = random.Random(seed)
    for _ in range(MAX_RETRIES):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if not ok:
            continue
        g = build_graph(n, sorted(edges))
        if connected and len(bfs_distances(g, [0])) < n:
            continue
        return g
    raise RetryLimit(n, MAX_RETRIES)


def vertices_on_cycle_3_or_4(g: Graph) -> list[bool]:
    """Per-vertex scan: does the vertex lie on some cycle of length 3 or 4?

    A vertex v off every triangle lies on a 4-cycle exactly when two of its
    neighbours share a neighbour other than v."""
    on_triangle = {v for t in list_triangles(g) for v in t}
    adj = g.adj
    return [v in on_triangle or any(z != v and z in adj[y]
                                    for x, y in itertools.combinations(adj[v], 2) for z in adj[x])
            for v in range(g.n)]


def problem1_family(n: int, seed: int) -> Graph:
    """A cubic graph in which every vertex lies on a 3- or 4-cycle.

    One constructive choice among many: take a seeded random cubic base on n
    vertices and substitute a gadget for each base vertex — a triangle for
    even base vertices, and for odd base vertices a 4-cycle whose two opposite
    vertices are joined by a 2-path (K_{2,3}: the three degree-2 vertices are
    the attachment ports, and every gadget vertex lies on a 4-cycle).  Base
    edges attach to ports in sorted-neighbor order.  The per-vertex short-cycle
    property is re-checked by a direct scan before returning.
    """
    base = random_cubic(n, seed)
    g = _substitute(base, [_K23 if v % 2 else _TRIANGLE for v in range(base.n)])
    if not is_cubic(g):
        raise RuntimeError("gadget substitution lost 3-regularity")
    if not all(vertices_on_cycle_3_or_4(g)):
        raise RuntimeError("gadget substitution left a vertex off short cycles")
    return g
