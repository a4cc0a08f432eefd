"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (Floyd-Warshall, triple scans,
exhaustive DFS cycle enumeration) so that agreement with the package is
meaningful.  Keep these free of imports from the modules under test other
than the Graph and PackingPair containers and build_graph.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from hypothesis import strategies as st

from packfour.graph import Graph, build_graph
from packfour.triangle_break import PackingPair

INF = float("inf")


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.n
    dist = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for u in range(n):
        for v in g.adj[u]:
            dist[u][v] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik is INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            out.append((a, b, c))
    return out


@lru_cache(maxsize=64)
def cached_distances(g: Graph) -> list[list[float]]:
    """floyd_warshall(g), computed once per graph; callers must not mutate it."""
    return floyd_warshall(g)


@lru_cache(maxsize=64)
def cached_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """brute_triangles(g), computed once per graph; callers must not mutate it."""
    return brute_triangles(g)


def is_k_packing(g: Graph, s, k: int) -> bool:
    """True iff the vertices of s are pairwise at distance > k."""
    d = cached_distances(g)
    return all(d[u][v] > k for u, v in itertools.combinations(sorted(set(s)), 2))


def recompute_pair(g: Graph, a, b) -> PackingPair:
    """The pair (a, b) with its weight and surviving-triangle count from scratch:
    a chosen vertex weighs 2 in two or more triangles, 1 in exactly one."""
    tris = cached_triangles(g)
    marked = set(a) | set(b)
    weight = sum(min(2, sum(v in t for t in tris)) for v in marked)
    surviving = sum(1 for t in tris if not marked & set(t))
    return PackingPair(frozenset(a), frozenset(b), weight, surviving)


def surviving_triangles(g: Graph, pair: PackingPair) -> list[tuple[int, int, int]]:
    """Triangles disjoint from a u b, in lexicographic order."""
    marked = set(pair.a) | set(pair.b)
    return [t for t in cached_triangles(g) if not marked & set(t)]


@dataclass(frozen=True)
class PairViolation:
    condition: int
    vertices: tuple[int, ...]
    detail: str


def check_packing_pair(g: Graph, a, b) -> list[PairViolation]:
    """Every violation of the breaker's conditions on (a, b), in this order:
    (1) a vertex on both sides, (1) two vertices of one side at distance < 3,
    (2) a chosen vertex in no triangle, (3) a triangle with two chosen
    vertices.  An empty list means the pair is valid."""
    d = cached_distances(g)
    tris = cached_triangles(g)
    a, b = set(a), set(b)
    out = [PairViolation(1, (v,), "vertex chosen on both sides") for v in sorted(a & b)]
    for name, side in (("a", a), ("b", b)):
        out += [PairViolation(1, (u, v), f"distance < 3 within side {name}")
                for u, v in itertools.combinations(sorted(side), 2) if d[u][v] < 3]
    out += [PairViolation(2, (v,), "chosen vertex lies in no triangle")
            for v in sorted(a | b) if not any(v in t for t in tris)]
    for t in tris:
        hit = sorted(set(t) & (a | b))
        if len(hit) >= 2:
            out.append(PairViolation(3, t, f"triangle contains {hit}"))
    return out


def brute_claws(g: Graph) -> list[tuple[int, tuple[int, int, int]]]:
    out = []
    for c in range(g.n):
        for trio in itertools.combinations(sorted(g.adj[c]), 3):
            a, b, d = trio
            if not (g.has_edge(a, b) or g.has_edge(a, d) or g.has_edge(b, d)):
                out.append((c, trio))
    return out


def canon_cycle(cycle: list[int]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    if rot[-1] < rot[1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def all_simple_cycles(g: Graph, max_len: int | None = None) -> set[tuple[int, ...]]:
    """Every simple cycle, canonicalized.  Exponential; keep n small."""
    cycles: set[tuple[int, ...]] = set()

    def extend(start: int, path: list[int], on_path: set[int]) -> None:
        v = path[-1]
        for w in g.adj[v]:
            if w == start and len(path) >= 3:
                cycles.add(canon_cycle(path))
            elif w > start and w not in on_path:
                if max_len is not None and len(path) >= max_len:
                    continue
                on_path.add(w)
                extend(start, path + [w], on_path)
                on_path.remove(w)

    for s in range(g.n):
        extend(s, [s], {s})
    return cycles


def shortest_odd_cycle_length(g: Graph) -> int | None:
    best = None
    for cyc in all_simple_cycles(g):
        if len(cyc) % 2 == 1 and (best is None or len(cyc) < best):
            best = len(cyc)
    return best


def reference_shortest_odd_cycle(g: Graph) -> tuple[int, ...] | None:
    """The witness shortest_odd_cycle must return, by a per-source scan.

    BFS from each source in ascending order (neighbors ascending); for each
    source, test every edge in lexicographic order; an edge whose ends share a
    BFS layer d closes an odd walk of length 2d + 1, and only a strictly
    shorter one replaces the best so far.  The winning edge's two tree paths
    are spliced at their last common vertex and the cycle canonicalized.
    """
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    best = None  # (length, parent, u, v)
    for s in range(g.n):
        dist = [None] * g.n
        parent = [None] * g.n
        dist[s] = 0
        queue = [s]
        for x in queue:
            for y in g.adj[x]:
                if dist[y] is None:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
        for u, v in edges:
            if dist[u] is not None and dist[u] == dist[v]:
                if best is None or 2 * dist[u] + 1 < best[0]:
                    best = (2 * dist[u] + 1, parent, u, v)
    if best is None:
        return None
    _, parent, u, v = best

    def root_path(x):
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1]

    pu, pv = root_path(u), root_path(v)
    i = 0
    while i < min(len(pu), len(pv)) and pu[i] == pv[i]:
        i += 1
    return canon_cycle(pu[i - 1:] + pv[:i - 1:-1])


def is_chordless(g: Graph, cycle: tuple[int, ...]) -> bool:
    k = len(cycle)
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if g.has_edge(cycle[i], cycle[j]):
                return False
    return True


def spacking_ok(g: Graph, s: tuple[int, ...], coloring: list[int]) -> bool:
    """Check an S-packing coloring with Floyd-Warshall distances."""
    if len(coloring) != g.n:
        return False
    if any(c < 1 or c > len(s) for c in coloring):
        return False
    dist = floyd_warshall(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if coloring[u] == coloring[v] and dist[u][v] <= s[coloring[u] - 1]:
                return False
    return True


def g6_encode_reference(g: Graph) -> str:
    """Re-derivation of the graph6 encoding from the published description."""
    if g.n <= 62:
        out = [g.n + 63]
    else:
        out = [126, 63 + ((g.n >> 12) & 63), 63 + ((g.n >> 6) & 63), 63 + (g.n & 63)]
    bits = ""
    for v in range(1, g.n):
        for u in range(v):
            bits += "1" if g.has_edge(u, v) else "0"
    bits += "0" * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        out.append(63 + int(bits[i:i + 6], 2))
    return "".join(chr(b) for b in out)


def permute(g: Graph, perm: list[int]) -> Graph:
    """Relabel: vertex v becomes perm[v]."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_perm(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        n += g.n
    return build_graph(n, edges)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return build_graph(n, [])
    chosen = draw(st.sets(st.sampled_from(pairs)))
    return build_graph(n, sorted(chosen))


@st.composite
def cubic_graphs(draw, max_n: int = 16) -> Graph:
    from packfour.generators import random_cubic

    n = draw(st.sampled_from(range(4, max_n + 1, 2)))
    seed = draw(st.integers(0, 10**6))
    return random_cubic(n, seed=seed)
