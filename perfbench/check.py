"""Independent output checks; shares no code with packfour.

A certificate is accepted only if its graph is the input graph, its four
classes partition the vertices, 1a and 1b are independent sets, and 2a and 2b
are 2-packings (no other member within a BFS ball of radius 2).  An oracle
witness is accepted only if every class i is an a_i-packing for its spec.
Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
from collections import deque

from gen import adjacency

CLASSES_1122 = {"1a": 1, "1b": 1, "2a": 2, "2b": 2}


def ball(adj, v: int, radius: int) -> set[int]:
    """Vertices within hop distance ``radius`` of v, v included."""
    dist = {v: 0}
    q = deque([v])
    while q:
        u = q.popleft()
        if dist[u] == radius:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return set(dist)


def packing_problems(adj, members, radius: int, label: str) -> list[str]:
    """Members must be pairwise at distance > radius."""
    inside = set(members)
    for v in sorted(inside):
        near = (ball(adj, v, radius) & inside) - {v}
        if near:
            return [f"class {label}: {v} and {min(near)} within distance {radius}"]
    return []


def certificate_problems(graph, text: str) -> list[str]:
    n, edges = graph
    try:
        cert = json.loads(text)
    except ValueError as e:
        return [f"certificate is not JSON: {e}"]
    if not isinstance(cert, dict):
        return ["certificate is not a JSON object"]
    problems = []
    if cert.get("n") != n:
        problems.append(f"n is {cert.get('n')!r}, input has {n}")
    if sorted(tuple(sorted(e)) for e in cert.get("edges", [])) != edges:
        problems.append("edges differ from the input graph")
    if cert.get("s_spec") != [1, 1, 2, 2]:
        problems.append(f"s_spec is {cert.get('s_spec')!r}")
    if cert.get("verified") is not True:
        problems.append("verified is not true")
    classes = cert.get("classes")
    if not isinstance(classes, dict) or set(classes) != set(CLASSES_1122):
        return problems + [f"classes are not exactly {sorted(CLASSES_1122)}"]
    seen: list[int] = []
    for members in classes.values():
        seen.extend(members)
    if sorted(seen) != list(range(n)):
        return problems + ["classes do not partition the vertices"]
    adj = adjacency(n, edges)
    for label, radius in CLASSES_1122.items():
        problems += packing_problems(adj, classes[label], radius, label)
    return problems


def witness_problems(graph, spec, coloring) -> list[str]:
    n, edges = graph
    if coloring is None or len(coloring) != n:
        return ["witness does not cover every vertex"]
    if any(not 1 <= c <= len(spec) for c in coloring):
        return ["witness uses a class outside the spec"]
    adj = adjacency(n, edges)
    problems = []
    for i, radius in enumerate(spec, start=1):
        members = [v for v in range(n) if coloring[v] == i]
        problems += packing_problems(adj, members, radius, str(i))
    return problems
