"""Exhaustive S-packing decision procedure for small graphs.

Backtracking over vertices in a fixed order (descending degree, then id).
A vertex may take class i only if it keeps distance > a_i to every earlier
vertex of class i.  Classes of equal a_i are interchangeable, and a spec is
non-decreasing, so they sit side by side; class i can be used for the first
time only once class i - 1 is in use when a_(i-1) = a_i.  Backtracking
opens and empties classes last in, first out, so the equal-a_i classes in
use always form a prefix of their run, and this removes the same
permutation symmetry as requiring every earlier equal-a_i class in use.

This is the independent route against the constructive pipeline.  It shares
with the rest of the package only the graph container with its BFS
distances, and verify_spacking, which re-checks every coloring it returns;
it knows nothing about packing pairs, triangles, reductions, file formats or
the CLI's batch records.
"""

from __future__ import annotations

from collections import namedtuple

from .graph import INF, Graph, bfs_distances
from .packing import SSpec, verify_spacking

DEFAULT_VERTEX_CAP = 20


def all_pairs_distances(g: Graph) -> list[list[float]]:
    """n x n matrix of hop distances (INF where unreachable)."""
    vertices = range(g.n)
    dists = (bfs_distances(g, [s]) for s in vertices)
    return [[d.get(v, INF) for v in vertices] for d in dists]


class OracleResult(namedtuple("OracleResult", "status coloring reason", defaults=(None, None))):
    # status is "yes", "no" or "unknown"; a "yes" carries its coloring, an
    # "unknown" its reason
    __slots__ = ()


def exists_spacking(g: Graph, s: SSpec, vertex_cap: int = DEFAULT_VERTEX_CAP) -> OracleResult:
    """Decide whether g admits an S-packing coloring; unknown above the cap.

    A "yes" always carries a coloring that verify_spacking accepts — the
    oracle re-verifies its own witness before returning it.
    """
    n, adj = g.n, g.adj
    if n > vertex_cap:
        return OracleResult("unknown", reason=f"vertex cap exceeded (n={n} > {vertex_cap})")
    if n == 0:
        return OracleResult("yes", [])
    dist = all_pairs_distances(g)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    values = s.values
    r = s.r
    # twin[i]: class i - 1 has the same radius, so it must be in use before
    # class i may be opened
    twin = [i > 0 and values[i - 1] == values[i] for i in range(r)]
    assigned: list[int] = [0] * n  # class per vertex, 0 = unassigned
    members: list[list[int]] = [[] for _ in range(r)]

    def admissible(v: int, i: int) -> bool:
        limit = values[i]
        dv = dist[v]
        return all(dv[u] > limit for u in members[i])

    def backtrack(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for i in range(r):
            if twin[i] and not members[i] and not members[i - 1]:
                continue
            if admissible(v, i):
                assigned[v] = i + 1
                members[i].append(v)
                if backtrack(depth + 1):
                    return True
                members[i].pop()
                assigned[v] = 0
        return False

    if backtrack(0):
        coloring = list(assigned)
        violation = verify_spacking(g, s, coloring)
        if violation is not None:
            raise RuntimeError(f"oracle produced an invalid coloring: {violation}")
        return OracleResult("yes", coloring)
    return OracleResult("no")
