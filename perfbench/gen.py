"""Seeded input families for the benchmark, built without importing packfour.

A graph here is a pair ``(n, edges)`` with ``edges`` a sorted list of
``(u, v)`` pairs, ``u < v``.  Every family is a pure function of the seed, so
the same seed always yields byte-identical graph6 lines; the program under
test only ever sees those lines.

The families follow the structure theorem for claw-free cubic graphs (Oum,
"Perfect matchings in claw-free cubic graphs", EJC 18, 2011): K4, rings of
diamonds, and cubic graphs whose vertices become triangles.  The gadget
family is the ``experiment problem1`` recipe, which has claws on purpose.
"""

from __future__ import annotations

import hashlib
import itertools
import random

WORKLOADS = ("corpus-batch", "forced-gadget")

# forced-gadget: base sizes; n = 4 * base.  Each reducer absorption costs a
# whole-graph scan and their number varies from graph to graph and from seed
# to seed, so many mid-sized graphs give a steadier total per pass than a few
# large ones: 36 graphs still read 116 to 156 absorptions over five seeds.
GADGET_BASES = (60,) * 72


def _graph(n: int, edges) -> tuple[int, list[tuple[int, int]]]:
    norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
    if len(set(norm)) != len(norm) or any(u == v for u, v in norm):
        raise ValueError("generator produced a loop or a repeated edge")
    return n, norm


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    return adj


def k4():
    return _graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def prism():
    return _graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])


def petersen():
    return _graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def k33():
    return _graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def necklace(k: int):
    """k diamonds joined in a ring by their degree-2 tips (k >= 2)."""
    edges = []
    for i in range(k):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (b, 4 * ((i + 1) % k))]
    return _graph(4 * k, edges)


def _is_connected(n: int, edge_list) -> bool:
    adj = adjacency(n, edge_list)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_cubic_edges(n: int, rng: random.Random,
                       connected: bool = False) -> list[tuple[int, int]]:
    """Configuration-model simple cubic graph on n vertices, as a sorted edge
    list; pairings with loops or repeated edges are rejected."""
    for _ in range(10000):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [(min(stubs[i], stubs[i + 1]), max(stubs[i], stubs[i + 1]))
                 for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        if len(set(pairs)) != len(pairs):
            continue
        if connected and not _is_connected(n, pairs):
            continue
        return sorted(pairs)
    raise RuntimeError(f"no cubic pairing found for n={n}")


def inflate(base_n: int, base_edges):
    """Triangle-inflate a cubic graph: base vertex v becomes the triangle
    3v, 3v+1, 3v+2; its incident base edges, in list order, take those
    corners in turn."""
    edges = []
    for v in range(base_n):
        o = 3 * v
        edges += [(o, o + 1), (o, o + 2), (o + 1, o + 2)]
    used = [0] * base_n
    for u, v in base_edges:
        edges.append((3 * u + used[u], 3 * v + used[v]))
        used[u] += 1
        used[v] += 1
    return _graph(3 * base_n, edges)


def gadget_graph(base_n: int, rng: random.Random):
    """The problem1 recipe: even base vertices become triangles, odd ones
    K_{2,3} (three ports, two hubs); base edges attach to ports in
    sorted-neighbour order.  Every vertex lies on a 3- or 4-cycle and every
    hub is a claw centre."""
    base_edges = random_cubic_edges(base_n, rng)
    base_adj = adjacency(base_n, base_edges)
    offsets = []
    total = 0
    for v in range(base_n):
        offsets.append(total)
        total += 3 if v % 2 == 0 else 5
    edges = []
    for v in range(base_n):
        o = offsets[v]
        if v % 2 == 0:
            edges += [(o, o + 1), (o, o + 2), (o + 1, o + 2)]
        else:
            edges += [(p, hub) for hub in (o + 3, o + 4) for p in (o, o + 1, o + 2)]
    for u, v in base_edges:
        edges.append((offsets[u] + base_adj[u].index(v), offsets[v] + base_adj[v].index(u)))
    return _graph(total, edges)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def corpus_batch(seed: int):
    """The acceptance-corpus recipe: 157 claw-free cubic graphs, n 4..60."""
    rng = _rng("corpus-batch", seed)
    graphs = [k4(), prism()] + [necklace(k) for k in range(2, 9)]
    for base in (k4(), k33(), prism(), petersen()):
        graphs.append(inflate(*base))
    for base_n in range(4, 21, 2):
        for _ in range(16):
            graphs.append(inflate(base_n, random_cubic_edges(base_n, rng)))
    return graphs


def forced_gadget(seed: int):
    rng = _rng("forced-gadget", seed)
    return [gadget_graph(b, rng) for b in GADGET_BASES]


def generate(workload: str, seed: int):
    family = {"corpus-batch": corpus_batch, "forced-gadget": forced_gadget}[workload]
    return family(seed)


# ---------------------------------------------------------------- structure


def is_cubic(graph) -> bool:
    n, edges = graph
    return all(len(nbrs) == 3 for nbrs in adjacency(n, edges))


def claws(graph) -> list[tuple[int, tuple[int, int, int]]]:
    """Every induced K_{1,3}: (centre, three pairwise non-adjacent neighbours)."""
    n, edges = graph
    adj = adjacency(n, edges)
    nbr = [set(a) for a in adj]
    out = []
    for c in range(n):
        for a, b, d in itertools.combinations(adj[c], 3):
            if b not in nbr[a] and d not in nbr[a] and d not in nbr[b]:
                out.append((c, (a, b, d)))
    return out


def on_short_cycle(graph) -> list[bool]:
    """Per vertex: does it lie on a 3-cycle or a 4-cycle?"""
    n, edges = graph
    nbr = [set(a) for a in adjacency(n, edges)]
    out = []
    for v in range(n):
        ns = sorted(nbr[v])
        tri = any(y in nbr[x] for i, x in enumerate(ns) for y in ns[i + 1:])
        quad = any((nbr[x] & nbr[y]) - {v} for i, x in enumerate(ns) for y in ns[i + 1:])
        out.append(tri or quad)
    return out


def check_inputs(workload: str, graphs) -> None:
    """Raise ValueError unless every input has its family's structure."""
    for i, graph in enumerate(graphs):
        if not is_cubic(graph):
            raise ValueError(f"{workload} input {i} is not cubic")
        if workload == "forced-gadget":
            if not all(on_short_cycle(graph)):
                raise ValueError(f"{workload} input {i} has a vertex off 3- and 4-cycles")
        elif claws(graph):
            raise ValueError(f"{workload} input {i} has a claw")


# ---------------------------------------------------------------- graph6


def graph6(graph) -> str:
    """graph6 line for n <= 258047: size header, then the upper triangle
    column by column, six bits per byte."""
    n, edges = graph
    if n <= 62:
        header = bytes([n + 63])
    else:
        header = bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits + (-nbits) % 6)
    for u, v in edges:
        bits[v * (v - 1) // 2 + u] = 1
    body = bytearray(len(bits) // 6)
    for i in range(len(body)):
        b = bits[6 * i:6 * i + 6]
        body[i] = 63 + (b[0] << 5 | b[1] << 4 | b[2] << 3 | b[3] << 2 | b[4] << 1 | b[5])
    return (header + bytes(body)).decode("ascii")


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii") + b"\n")
    return h.hexdigest()
