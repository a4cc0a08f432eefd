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
with the rest of the package only the graph container with its BFS distances
and claw and cubic checks, the graph6 codec, and verify_spacking, which
re-checks every coloring it returns; it knows nothing about packing pairs,
triangles or reductions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import partial

from .graph import INF, Graph, bfs_distances, find_claw, is_cubic
from .formats import parse_graph6, write_graph6
from .errors import PackfourError
from .packing import Coloring, SSpec, verify_spacking

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


def _compact(coloring: Coloring) -> str:
    return ",".join(str(c) for c in coloring)


def decide_line(line: str, s: SSpec, vertex_cap: int) -> dict:
    """Verdict record for one graph6 line; parse failures become error records."""
    record: dict = {"graph6": line}
    try:
        g = parse_graph6(line)
    except PackfourError as e:
        record.update(n=None, verdict="error", detail=str(e))
        return record
    res = exists_spacking(g, s, vertex_cap)
    record["n"] = g.n
    record["verdict"] = res.status
    if res.status == "yes":
        record["detail"] = _compact(res.coloring)
    else:
        record["detail"] = res.reason or "search exhausted"
    if res.status == "no" and is_cubic(g) and find_claw(g) is None:
        # a claw-free cubic "no" under (1,1,2,3) is exactly what the open
        # problem asks for; under (1,1,2,2) it would contradict the guarantee
        # the pipeline implements, so it can only mean a bug — flag both, loudly
        if tuple(s.values) == (1, 1, 2, 3):
            record["flag"] = "candidate-counterexample"
            record["echo"] = write_graph6(g)
        elif tuple(s.values) == (1, 1, 2, 2):
            record["flag"] = "theorem-violation"
            record["echo"] = write_graph6(g)
    return record


def ordered_map(fn, items: list, jobs: int) -> Iterator:
    """fn(x) for x in items, lazily and in input order, spread over
    min(jobs, len(items)) worker processes when that is 2 or more; a pool
    may start all its workers at the first task, so none is asked for
    beyond the items.  Each pool task takes a chunk of
    max(1, min(16, len(items) // (4 * workers))) items, and its results
    arrive together.  A consumer that stops early (or closes the iterator)
    cancels the chunks not yet started."""
    workers = min(jobs, len(items))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a task costs a round trip between processes, about as much as
        # coloring one small graph; four tasks per worker or more keep the
        # workers finishing close together, and 16 items at most keep a
        # result from waiting on many others
        chunk = max(1, min(16, len(items) // (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                yield from pool.map(fn, items, chunksize=chunk)
            finally:
                pool.shutdown(cancel_futures=True)
        return
    for x in items:
        yield fn(x)


def batch_decide(lines, s: SSpec, vertex_cap: int = DEFAULT_VERTEX_CAP,
                 jobs: int = 1) -> tuple[list[dict], dict]:
    """Decide every graph6 line; never aborts on a bad line.

    Returns (records, summary).  Records keep input order even with jobs > 1.
    """
    records = list(ordered_map(partial(decide_line, s=s, vertex_cap=vertex_cap),
                               list(lines), jobs))
    for i, rec in enumerate(records):
        rec["index"] = i
    summary = {
        "total": len(records),
        "yes": sum(1 for r in records if r["verdict"] == "yes"),
        "no": sum(1 for r in records if r["verdict"] == "no"),
        "unknown": sum(1 for r in records if r["verdict"] == "unknown"),
        "errors": sum(1 for r in records if r["verdict"] == "error"),
        "s_spec": list(s.values),
        "flagged": [{"index": r["index"], "flag": r["flag"], "graph6": r["echo"]}
                    for r in records if "flag" in r],
    }
    return records, summary
