"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (Floyd-Warshall, triple scans,
exhaustive DFS cycle enumeration) so that agreement with the package is
meaningful.  Keep these free of imports from the modules under test other
than the Graph, SSpec, PackingPair, Move, Addition and ReductionState
containers, build_graph and the error types.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from hypothesis import strategies as st

from packfour.errors import (DuplicateEdge, PackfourError, ParseError, SelfLoop, StuckOddCycle,
                             VertexOutOfRange)
from packfour.graph import Graph, build_graph
from packfour.odd_cycle import Addition, ReductionState
from packfour.packing import SSpec
from packfour.triangle_break import Move, PackingPair

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
        if b in g.adj[a] and c in g.adj[a] and c in g.adj[b]:
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
    """True iff the vertices of s are pairwise at distance > k: a BFS to
    depth k from each member meets no other member.  O(|s| * ball) where
    Floyd-Warshall would be O(n^3); test_is_k_packing_agrees_with_floyd_warshall
    checks the two agree."""
    members = set(s)
    for src in members:
        seen = {src}
        layer = [src]
        for _ in range(k):
            nxt = []
            for u in layer:
                for v in g.adj[u]:
                    if v not in seen:
                        if v in members:
                            return False
                        seen.add(v)
                        nxt.append(v)
            layer = nxt
    return True


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
            if not (b in g.adj[a] or d in g.adj[a] or d in g.adj[b]):
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
    """By enumeration under a length bound raised one odd step at a time, so
    that a dense graph stops at its triangles instead of listing every cycle."""
    for bound in range(3, g.n + 1, 2):
        odd = [len(c) for c in all_simple_cycles(g, max_len=bound) if len(c) % 2 == 1]
        if odd:
            return min(odd)
    return None


def odd_cycle_vertices(g: Graph) -> list[int]:
    """The vertices whose component holds an odd cycle, ascending; each
    component is searched on its own by shortest_odd_cycle_length."""
    d = floyd_warshall(g)
    out: list[int] = []
    seen: set[int] = set()
    for root in range(g.n):
        if root in seen:
            continue
        comp = [u for u in range(g.n) if d[root][u] < INF]
        seen.update(comp)
        index = {u: i for i, u in enumerate(comp)}
        sub = build_graph(len(comp), [(index[u], index[v]) for u, v in g.edges() if u in index])
        if shortest_odd_cycle_length(sub) is not None:
            out.extend(comp)
    return sorted(out)


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


def relabelled_subgraph(g: Graph, keep) -> tuple[Graph, list[int]]:
    """The subgraph induced by keep on vertices 0..k-1, through build_graph,
    and the increasing new -> old vertex map."""
    mapping = sorted(set(keep))
    new = {old: i for i, old in enumerate(mapping)}
    edges = [(new[u], new[v]) for u, v in g.edges() if u in new and v in new]
    return build_graph(len(mapping), edges), mapping


def reference_reduce_odd_cycles(g: Graph, pair: PackingPair) -> tuple[ReductionState, list[Addition]]:
    """The odd-cycle reducer's loop with the remainder rebuilt on 0..k-1
    after every absorption and each witness from reference_shortest_odd_cycle.

    A vertex joins side A when its radius-2 ball, read off the adjacency,
    misses A, else side B when it misses B; the first cycle vertex that can
    join is absorbed.  A cycle with none raises StuckOddCycle with the state,
    the cycle and the first claw of brute_claws.  The bipartite end state
    carries reference_remainder_colors.
    """
    ext = {"A": set(pair.a), "B": set(pair.b)}
    remaining = set(range(g.n)) - ext["A"] - ext["B"]
    additions: list[Addition] = []

    def frozen(color) -> ReductionState:
        return ReductionState(frozenset(ext["A"]), frozenset(ext["B"]), frozenset(remaining),
                              tuple(additions), color)

    while True:
        sub, mapping = relabelled_subgraph(g, remaining)
        witness = reference_shortest_odd_cycle(sub)
        if witness is None:
            return frozen(reference_remainder_colors(g, remaining)), additions
        cycle = tuple(mapping[i] for i in witness)
        for v in cycle:
            ball = {v, *g.adj[v], *(w for u in g.adj[v] for w in g.adj[u])}
            side = next((side for side in "AB" if not ball & ext[side]), None)
            if side is not None:
                ext[side].add(v)
                remaining.discard(v)
                additions.append(Addition(v, side, len(cycle)))
                break
        else:
            claws = brute_claws(g)
            raise StuckOddCycle(frozen(None), cycle, claws[0] if claws else None)


def reference_remainder_colors(g: Graph, remaining) -> tuple[int, ...]:
    """Per vertex of g, the parity of its distance in the bipartite subgraph
    induced by remaining from the smallest vertex of its component there,
    found on the subgraph relabelled onto 0..k-1; 0 outside remaining."""
    sub, mapping = relabelled_subgraph(g, remaining)
    color = [0] * g.n
    seen: set[int] = set()
    for root in range(sub.n):
        if root in seen:
            continue
        seen.add(root)
        frontier, parity = {root}, 0
        while frontier:
            for x in frontier:
                color[mapping[x]] = parity
            frontier = {y for x in frontier for y in sub.adj[x]} - seen
            seen |= frontier
            parity ^= 1
    return tuple(color)


def is_chordless(g: Graph, cycle: tuple[int, ...]) -> bool:
    k = len(cycle)
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if cycle[j] in g.adj[cycle[i]]:
                return False
    return True


def spacking_ok(g: Graph, s: tuple[int, ...], coloring: list[int]) -> bool:
    """Check an S-packing coloring with Floyd-Warshall distances, computed
    once per graph."""
    if len(coloring) != g.n:
        return False
    if any(c < 1 or c > len(s) for c in coloring):
        return False
    dist = cached_distances(g)
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
            bits += "1" if v in g.adj[u] else "0"
    bits += "0" * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        out.append(63 + int(bits[i:i + 6], 2))
    return "".join(chr(b) for b in out)


def g6_decode_reference(line: str) -> Graph:
    """Bit-by-bit graph6 decoder through build_graph, for a well-formed line.

    Padding bits past n(n-1)/2 are ignored, whatever their value."""
    data = line.encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    assert len(body) == (n * (n - 1) // 2 + 5) // 6
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            byte = body[k // 6] - 63
            if (byte >> (5 - k % 6)) & 1:
                edges.append((u, v))
            k += 1
    return build_graph(n, edges)


def outcome(fn, *args):
    """fn(*args), or the PackfourError it raises as (type, vars(), message),
    so two implementations compare on both at once."""
    try:
        return fn(*args)
    except PackfourError as e:
        return type(e), vars(e), str(e)


def reference_build_graph(n: int, edges) -> Graph:
    """build_graph as one checking loop over every edge, whatever its order:
    range (u, then v), then self-loop, then duplicate in either orientation;
    neighbour sets sorted at the end."""
    if n < 0:
        raise VertexOutOfRange(n, n)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
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


def reference_coloring_from_certificate(cert: dict):
    """coloring_from_certificate as type checks, reference_build_graph and
    one walk over the class members, raising at the first problem.  The
    spec is (1,1,2,2) and no other: an s_spec that is not [1, 1, 2, 2] with
    int entries is a ParseError."""
    if type(cert["n"]) is not int:
        raise ParseError(1, "certificate field 'n' is not an integer")
    edges = cert["edges"]
    if not (type(edges) is list and all(type(e) is list and len(e) == 2 for e in edges)
            and all(type(x) is int for e in edges for x in e)):
        raise ParseError(1, "certificate field 'edges' is not a list of integer pairs")

    def ints(values) -> bool:
        return type(values) is list and all(type(x) is int for x in values)

    spec = cert["s_spec"]
    if not (type(spec) is list and [type(x) for x in spec] == [int] * 4
            and spec == [1, 1, 2, 2]):
        raise ParseError(1, "certificate field 's_spec' is not [1, 1, 2, 2]")
    if type(cert["classes"]) is not dict or not all(map(ints, cert["classes"].values())):
        raise ParseError(1, "certificate field 'classes' is not an object of integer lists")
    g = reference_build_graph(cert["n"], edges)
    name_to_index = {"1a": 1, "1b": 2, "2a": 3, "2b": 4}
    coloring: list[int | None] = [None] * g.n
    for name, members in cert["classes"].items():
        if name not in name_to_index:
            raise ParseError(1, f"unknown class name {name!r}")
        for v in members:
            if not 0 <= v < g.n:
                raise ParseError(1, f"class {name} lists vertex {v} outside 0..{g.n - 1}")
            if coloring[v] is not None:
                raise ParseError(1, f"vertex {v} appears in two classes")
            coloring[v] = name_to_index[name]
    for v, cls in enumerate(coloring):
        if cls is None:
            raise ParseError(1, f"vertex {v} has no class")
    return g, SSpec((1, 1, 2, 2)), coloring


def reference_lemma_records(trace) -> list[dict]:
    """One dict per breaker step, AppliedMove, as a certificate's
    lemma_trace holds it once decoded."""
    return [{
        "removeA": am.move.remove_a,
        "removeB": am.move.remove_b,
        "addA": list(am.move.add_a),
        "addB": list(am.move.add_b),
        "w_before": am.weight_before,
        "w_after": am.weight_after,
        "gamma_after": am.surviving_after,
    } for am in trace]


def move_sort_key(m: Move):
    """The canonical move order, in which the breaker takes the first
    improving move: additions, then removals, each as sorted (vertex, side)
    pairs, so side a sorts before side b at one vertex."""
    adds = sorted([(v, "a") for v in m.add_a] + [(v, "b") for v in m.add_b])
    rems = sorted([(r, side) for r, side in ((m.remove_a, "a"), (m.remove_b, "b"))
                   if r is not None])
    return (adds, rems)


def reference_reducer_records(additions) -> list[dict]:
    """One dict per reducer absorption, Addition, as a certificate's
    reducer_trace holds it once decoded."""
    return [{"vertex": a.vertex, "side": a.side, "cycle_length": a.cycle_length}
            for a in additions]


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


def diamond_strings(base_n: int, base_seed: int, share: float, seed: int) -> Graph:
    """A large claw-free cubic graph: the triangle inflation of
    random_cubic(base_n, base_seed) with each inter-triangle edge, with
    probability `share` under random.Random(seed), replaced by a string of
    1-3 diamonds joined tip to tip."""
    from packfour.generators import inflate, random_cubic

    g = inflate(random_cubic(base_n, seed=base_seed))
    rng = random.Random(seed)
    n = g.n
    edges: list[tuple[int, int]] = []
    for u, v in g.edges():
        if u // 3 == v // 3 or rng.random() >= share:
            edges.append((u, v))
            continue
        prev = u
        for _ in range(rng.randint(1, 3)):
            tip, far, hub, hub2 = n, n + 1, n + 2, n + 3
            n += 4
            edges += [(prev, tip), (tip, hub), (tip, hub2), (far, hub), (far, hub2), (hub, hub2)]
            prev = far
        edges.append((prev, v))
    return build_graph(n, edges)


def diamond_chain(k: int) -> Graph:
    """k copies of diamond_strings(6, 3, 0.3, 5), copy i on 30i..30i+29,
    joined in a path by 2-switches: for each i < k - 1, the edges
    (30i+1, 30i+6) and (30i+30, 30i+33) become (30i+1, 30i+30) and
    (30i+6, 30i+33).  Neither removed edge lies on a triangle, so the result
    is a connected claw-free cubic graph, on which the reducer absorbs one
    vertex per switch, each on a 17-cycle."""
    unit = diamond_strings(6, 3, 0.3, 5)
    assert unit.n == 30
    edges = {(u + 30 * i, v + 30 * i) for i in range(k) for u, v in unit.edges()}
    for o in range(0, 30 * (k - 1), 30):
        edges.remove((o + 1, o + 6))
        edges.remove((o + 30, o + 33))
        edges |= {(o + 1, o + 30), (o + 6, o + 33)}
    return build_graph(30 * k, sorted(edges))


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return build_graph(n, [])
    chosen = draw(st.sets(st.sampled_from(pairs)))
    return build_graph(n, sorted(chosen))


@st.composite
def tied_odd_cycles(draw) -> Graph:
    """A relabelled union of 2-4 odd cycles of one drawn length.

    Each cycle after the first either stands alone or hangs off an earlier
    vertex by a bridge path of 0-3 edges (0 shares the vertex), and 0-3
    pendant paths hang off random vertices.  No join closes a cycle, so the
    drawn cycles are the graph's only odd cycles and all tie as shortest;
    the smallest vertex on them is often no end of a 2-coloring clash edge.
    """
    length = draw(st.sampled_from((3, 5, 7, 9)))
    n = 0
    edges: list[tuple[int, int]] = []

    def path(start: int, hops: int) -> int:
        nonlocal n
        for _ in range(hops):
            edges.append((start, n))
            start = n
            n += 1
        return start

    for i in range(draw(st.integers(2, 4))):
        if i and draw(st.booleans()):
            anchor = path(draw(st.integers(0, n - 1)), draw(st.integers(0, 3)))
        else:
            anchor = n
            n += 1
        ring = [anchor] + list(range(n, n + length - 1))
        n += length - 1
        edges += [(ring[j - 1], ring[j]) for j in range(length)]
    for _ in range(draw(st.integers(0, 3))):
        path(draw(st.integers(0, n - 1)), draw(st.integers(1, 3)))
    return permute(build_graph(n, edges), draw(st.permutations(range(n))))


@st.composite
def cubic_graphs(draw, max_n: int = 16) -> Graph:
    from packfour.generators import random_cubic

    n = draw(st.sampled_from(range(4, max_n + 1, 2)))
    seed = draw(st.integers(0, 10**6))
    return random_cubic(n, seed=seed)
