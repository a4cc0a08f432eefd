"""Exhaustive S-packing decision procedure for small graphs.

Backtracking over vertices in a fixed order (descending degree, then id).
A vertex may take class i only if it keeps distance > a_i to every earlier
vertex of class i; among classes with equal a_i, a class can be used for the
first time only after all equal-a_i classes with smaller index are in use,
which removes the permutation symmetry between interchangeable classes.

This is the independent route against the constructive pipeline: it shares
only the distance primitives with the rest of the package and knows nothing
about packing pairs or reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .graph import Graph, bfs_distances, find_claw, is_cubic
from .formats import parse_graph6, write_graph6
from .errors import PackfourError
from .packing import Coloring, SSpec, verify_spacking

DEFAULT_VERTEX_CAP = 20


def all_pairs_distances(g: Graph) -> list[list[float]]:
    """n x n matrix of hop distances (INF where unreachable)."""
    return [bfs_distances(g, v) for v in range(g.n)]


@dataclass(frozen=True)
class OracleResult:
    status: str  # "yes" | "no" | "unknown"
    coloring: Coloring | None = None
    reason: str | None = None


def exists_spacking(g: Graph, s: SSpec, vertex_cap: int = DEFAULT_VERTEX_CAP) -> OracleResult:
    """Decide whether g admits an S-packing coloring; unknown above the cap.

    A "yes" always carries a coloring that verify_spacking accepts — the
    oracle re-verifies its own witness before returning it.
    """
    if g.n > vertex_cap:
        return OracleResult("unknown", reason=f"vertex cap exceeded (n={g.n} > {vertex_cap})")
    if g.n == 0:
        return OracleResult("yes", [])
    dist = all_pairs_distances(g)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    r = s.r
    # first_unused_gate[i] = indices of same-a classes that must be in use
    # before class i may be opened
    gate: list[list[int]] = [[] for _ in range(r)]
    for i in range(r):
        for j in range(i):
            if s.values[j] == s.values[i]:
                gate[i].append(j)
    assigned: list[int] = [0] * g.n  # class per vertex, 0 = unassigned
    members: list[list[int]] = [[] for _ in range(r)]

    def admissible(v: int, i: int) -> bool:
        limit = s.values[i]
        dv = dist[v]
        return all(dv[u] > limit for u in members[i])

    def backtrack(depth: int) -> bool:
        if depth == g.n:
            return True
        v = order[depth]
        for i in range(r):
            if not members[i] and any(not members[j] for j in gate[i]):
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


def ordered_map(fn, items: list, jobs: int) -> list:
    """[fn(x) for x in items], spread over `jobs` worker processes when jobs > 1
    and there are two or more items; results keep input order either way."""
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def batch_decide(lines, s: SSpec, vertex_cap: int = DEFAULT_VERTEX_CAP,
                 jobs: int = 1) -> tuple[list[dict], dict]:
    """Decide every graph6 line; never aborts on a bad line.

    Returns (records, summary).  Records keep input order even with jobs > 1.
    """
    records = ordered_map(partial(decide_line, s=s, vertex_cap=vertex_cap), list(lines), jobs)
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
