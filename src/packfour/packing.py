"""S-packing colorings and an independent verifier.

For a spec S = (a_1, ..., a_r), a coloring assigns every vertex a class in
1..r, and class i must be an a_i-packing: pairwise distance strictly greater
than a_i.  The verifier here is deliberately dumb — distance checks only, no
knowledge of how a coloring was produced — so it can certify both pipeline
and oracle output.  It finds violating pairs by distance: same-class edges,
same-class pairs around a common neighbour, and a ball search only for
members of classes whose radius is 3 or more; (1,1,2,2) needs no ball.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ClassOutOfRange, EmptySpec, NotNonDecreasing, NotPositive
from .graph import Graph, bfs_distances

# a coloring is a plain list: index = vertex, value = class in 1..r
Coloring = list[int]


class SSpec(namedtuple("SSpec", "values")):
    """A packing spec: values is a non-empty, non-decreasing tuple of
    positive ints, which SSpec(values) checks."""
    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]):
        if len(values) == 0:
            raise EmptySpec()
        for a in values:
            if not isinstance(a, int) or a < 1:
                raise NotPositive(str(a))
        if any(x > y for x, y in zip(values, values[1:])):
            raise NotNonDecreasing(values)
        return super().__new__(cls, values)

    @property
    def r(self) -> int:
        return len(self.values)


def parse_sspec(text: str) -> SSpec:
    """Parse "1,1,2,2" into a validated SSpec."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    values = []
    for t in tokens:
        try:
            values.append(int(t))
        except ValueError:
            raise NotPositive(t) from None
    return SSpec(tuple(values))


class Violation(namedtuple("Violation", "u v class_index dist")):
    __slots__ = ()

    def __str__(self):
        return (f"vertices {self.u} and {self.v} share class {self.class_index} "
                f"at distance {self.dist}")


def verify_spacking(g: Graph, s: SSpec, c: Coloring) -> Violation | None:
    """None if c is a valid S-packing coloring of g, else the first violation.

    Two members of class i violate it when they are at distance at most a_i.
    Three routes find the violating pairs:

    1. distance 1: an edge whose ends share a class, since every a_i >= 1;
    2. distance 2: two members of a class with a_i >= 2 among the
       neighbours of one vertex w, read off w's adjacency;
    3. distance 3 to a_i: a radius-a_i ball around each member u of a class
       with a_i >= 3, scanned for a later member.

    A violating pair at distance d is found by route 1 if d = 1, route 2 if
    d = 2 (its members share a neighbour and a_i >= 2) and route 3 if d >= 3.
    Route 2 keeps, per vertex w and class, the first member among w's
    neighbours and pairs it with each later one.  That still yields the
    lexicographically smallest violating pair (u, v): a first member f < u
    would form the smaller violating pair (f, u).  Route 3 walks u upwards
    and stops at its first pair, or once u passes the smallest pair routes
    1 and 2 found.  The violation returned is the lexicographically smallest
    pair over all routes, with its distance from a BFS bounded at its class's
    radius.
    """
    if len(c) != g.n:
        raise ValueError(f"coloring covers {len(c)} vertices, graph has {g.n}")
    r = s.r
    for v in range(g.n):
        if not 1 <= c[v] <= r:
            raise ClassOutOfRange(v, c[v], r)
    radius = (0, *s.values)  # indexed by class
    far = [a >= 2 for a in radius]
    # first[k]: the first class-k neighbour of the vertex owner[k]
    owner = [-1] * (r + 1)
    first = [0] * (r + 1)
    pairs: list[tuple[int, int]] = []
    for w, nbrs in enumerate(g.adj):
        cw = c[w]
        for x in nbrs:
            k = c[x]
            if k == cw and x > w:
                pairs.append((w, x))
            if far[k]:
                if owner[k] == w:
                    pairs.append((first[k], x))
                else:
                    owner[k] = w
                    first[k] = x
    for u in range(min(pairs)[0] + 1 if pairs else g.n):
        a = radius[c[u]]
        if a >= 3:
            v = min((w for w in bfs_distances(g, [u], a) if w > u and c[w] == c[u]), default=None)
            if v is not None:
                pairs.append((u, v))
                break
    if not pairs:
        return None
    u, v = min(pairs)
    return Violation(u, v, c[u], bfs_distances(g, [u], radius[c[u]])[v])
