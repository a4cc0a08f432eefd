"""S-packing colorings and an independent verifier.

For a spec S = (a_1, ..., a_r), a coloring assigns every vertex a class in
1..r, and class i must be an a_i-packing: pairwise distance strictly greater
than a_i.  The verifier here is deliberately dumb — distance checks only, no
knowledge of how a coloring was produced — so it can certify both pipeline
and oracle output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClassOutOfRange, EmptySpec, NotNonDecreasing, NotPositive
from .graph import Graph, bfs_distances, vertices_within

# a coloring is a plain list: index = vertex, value = class in 1..r
Coloring = list[int]


@dataclass(frozen=True)
class SSpec:
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptySpec()
        for a in self.values:
            if not isinstance(a, int) or a < 1:
                raise NotPositive(str(a))
        if any(x > y for x, y in zip(self.values, self.values[1:])):
            raise NotNonDecreasing(self.values)

    @property
    def r(self) -> int:
        return len(self.values)


def parse_sspec(text: str) -> SSpec:
    """Parse "1,1,2,2" into a validated SSpec."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise EmptySpec()
    values = []
    for t in tokens:
        try:
            values.append(int(t))
        except ValueError:
            raise NotPositive(t) from None
    return SSpec(tuple(values))


@dataclass(frozen=True)
class Violation:
    u: int
    v: int
    class_index: int
    dist: float

    def __str__(self):
        return (f"vertices {self.u} and {self.v} share class {self.class_index} "
                f"at distance {self.dist}")


def verify_spacking(g: Graph, s: SSpec, c: Coloring) -> Violation | None:
    """None if c is a valid S-packing coloring of g, else the first violation.

    For each u in ascending order, looks for a same-class v > u inside u's
    radius-a_i ball, so the returned violation is the lexicographically
    smallest violating pair (u, v).
    """
    if len(c) != g.n:
        raise ValueError(f"coloring covers {len(c)} vertices, graph has {g.n}")
    for v in range(g.n):
        if not 1 <= c[v] <= s.r:
            raise ClassOutOfRange(v, c[v], s.r)
    for u in range(g.n):
        near = vertices_within(g, [u], s.values[c[u] - 1])
        v = min((w for w in near if w > u and c[w] == c[u]), default=None)
        if v is not None:
            return Violation(u, v, c[u], bfs_distances(g, u)[v])
    return None
