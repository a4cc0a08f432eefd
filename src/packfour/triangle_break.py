"""Extract two disjoint 2-packings whose removal kills every triangle.

The search keeps a pair of vertex sets (a, b) subject to three conditions:

  (1) a and b are disjoint and each is a 2-packing (pairwise distance >= 3),
  (2) every chosen vertex lies in at least one triangle,
  (3) no triangle contains two chosen vertices,

and hill-climbs on total vertex weight — `heavy` for a vertex in two or more
triangles, `light` for exactly one, 0 otherwise — until no triangle survives
outside a u b.  Moves are bounded exchanges: at most one removal per side, at
most two additions in total, removals within distance 2 of an added vertex.
Every step is a local strict ascent: its additions lie within distance 3 of
the first surviving triangle and it strictly increases the weight, so with
default integer weights a run takes at most 2n steps.

Complete-graph components on four vertices cannot satisfy (3) with two chosen
vertices (any two of their vertices share a triangle), so each K4 component is
handled up front by placing its two smallest vertices one into a and one into
b; the component's remainder is a single edge, which is triangle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import Stuck
from .graph import (
    Graph,
    Triangle,
    components,
    list_triangles,
    require_cubic,
    triangle_membership_counts,
    vertices_within,
)

SIDE_A = 0
SIDE_B = 1


@dataclass(frozen=True)
class Weights:
    heavy: float = 2
    light: float = 1

    def __post_init__(self):
        if not self.heavy > self.light > 0:
            raise ValueError(f"need heavy > light > 0, got {self.heavy}, {self.light}")


@dataclass(frozen=True)
class PackingPair:
    a: frozenset[int]
    b: frozenset[int]
    weight: float
    surviving: int  # triangles with no vertex in a u b

    @property
    def marked(self) -> frozenset[int]:
        return self.a | self.b


@dataclass(frozen=True)
class Move:
    add_a: tuple[int, ...] = ()
    add_b: tuple[int, ...] = ()
    remove_a: int | None = None
    remove_b: int | None = None

    def sort_key(self):
        adds = sorted([(v, SIDE_A) for v in self.add_a] + [(v, SIDE_B) for v in self.add_b])
        rems = sorted(([(self.remove_a, SIDE_A)] if self.remove_a is not None else []) +
                      ([(self.remove_b, SIDE_B)] if self.remove_b is not None else []))
        return (adds, rems)


@dataclass(frozen=True)
class AppliedMove:
    move: Move
    weight_before: float
    weight_after: float
    surviving_after: int

    def to_record(self) -> dict:
        return {
            "removeA": self.move.remove_a,
            "removeB": self.move.remove_b,
            "addA": list(self.move.add_a),
            "addB": list(self.move.add_b),
            "w_before": self.weight_before,
            "w_after": self.weight_after,
            "gamma_after": self.surviving_after,
        }


@dataclass(frozen=True)
class PairViolation:
    condition: int
    vertices: tuple[int, ...]
    detail: str

    def __str__(self):
        return f"condition ({self.condition}) violated by {list(self.vertices)}: {self.detail}"


def vertex_weight(g: Graph, weights: Weights, counts: list[int], v: int) -> float:
    """Weight of one vertex given its triangle-membership count."""
    if counts[v] >= 2:
        return weights.heavy
    if counts[v] == 1:
        return weights.light
    return 0


class _Search:
    """Precomputed triangle structure shared by every operation on one graph."""

    def __init__(self, g: Graph, weights: Weights):
        self.g = g
        self.weights = weights
        self.triangles: list[Triangle] = list_triangles(g)
        self.counts = triangle_membership_counts(g)
        self.wvec = [vertex_weight(g, weights, self.counts, v) for v in range(g.n)]
        self.tri_by_vertex: list[list[int]] = [[] for _ in range(g.n)]
        for i, t in enumerate(self.triangles):
            for v in t:
                self.tri_by_vertex[v].append(i)

    def pair_from_sets(self, a, b) -> PackingPair:
        marked = set(a) | set(b)
        weight = sum(self.wvec[v] for v in marked)
        surviving = sum(1 for t in self.triangles if not (set(t) & marked))
        return PackingPair(frozenset(a), frozenset(b), weight, surviving)

    def survivors(self, marked) -> list[Triangle]:
        return [t for t in self.triangles if not (set(t) & marked)]

    def candidates_near(self, t: Triangle) -> list[int]:
        """Triangle vertices within distance 3 of t: the additions a step may use."""
        return sorted(v for v in vertices_within(self.g, t, 3) if self.counts[v] >= 1)

    def move_result(self, pair: PackingPair, move: Move) -> PackingPair | None:
        """The pair after the move, or None when the move is invalid.

        Valid means: removals come from their own side, additions are new
        vertices in triangles, both sides stay disjoint 2-packings, and no
        triangle ends up with two chosen vertices.
        """
        g = self.g
        if move.remove_a is not None and move.remove_a not in pair.a:
            return None
        if move.remove_b is not None and move.remove_b not in pair.b:
            return None
        adds = list(move.add_a) + list(move.add_b)
        if not adds or len(adds) > 2 or len(set(adds)) != len(adds):
            return None
        new_a = set(pair.a)
        new_b = set(pair.b)
        if move.remove_a is not None:
            new_a.discard(move.remove_a)
        if move.remove_b is not None:
            new_b.discard(move.remove_b)
        for v in adds:
            # re-adding a just-removed vertex to its own side is a no-op shape
            if v in new_a or v in new_b:
                return None
            if v == move.remove_a and v in move.add_a:
                return None
            if v == move.remove_b and v in move.add_b:
                return None
            if self.counts[v] == 0:
                return None  # condition (2)
        new_a.update(move.add_a)
        new_b.update(move.add_b)
        if new_a & new_b:
            return None  # condition (1), disjointness
        for v in move.add_a:
            if vertices_within(g, [v], 2) & (new_a - {v}):
                return None  # condition (1), 2-packing in a
        for v in move.add_b:
            if vertices_within(g, [v], 2) & (new_b - {v}):
                return None  # condition (1), 2-packing in b
        new_marked = new_a | new_b
        for v in adds:
            for ti in self.tri_by_vertex[v]:
                if len(set(self.triangles[ti]) & new_marked) >= 2:
                    return None  # condition (3)
        weight = pair.weight
        for r in (move.remove_a, move.remove_b):
            if r is not None:
                weight -= self.wvec[r]
        for v in adds:
            weight += self.wvec[v]
        surviving = sum(1 for t in self.triangles if not (set(t) & new_marked))
        return PackingPair(frozenset(new_a), frozenset(new_b), weight, surviving)

    def improving_moves(self, pair: PackingPair,
                        add_candidates: list[int]) -> Iterator[tuple[Move, PackingPair]]:
        """Valid strictly weight-increasing moves in Move.sort_key() order.

        Laziness matters — the breaker stops at the first.
        """
        items = [(v, side) for v in add_candidates for side in (SIDE_A, SIDE_B)]
        items.sort()
        combos: list[tuple[tuple[int, int], ...]] = []
        for i, first in enumerate(items):
            combos.append((first,))
            for second in items[i + 1:]:
                if second[0] != first[0]:
                    combos.append((first, second))
        # combos is already in lex order: (x,) immediately precedes (x, *)
        for combo in combos:
            add_a = tuple(sorted(v for v, s in combo if s == SIDE_A))
            add_b = tuple(sorted(v for v, s in combo if s == SIDE_B))
            near = vertices_within(self.g, [v for v, _ in combo], 2)
            ra_opts = [None] + sorted(pair.a & near)
            rb_opts = [None] + sorted(pair.b & near)
            moves = [Move(add_a, add_b, ra, rb) for ra in ra_opts for rb in rb_opts]
            moves.sort(key=Move.sort_key)
            for move in moves:
                result = self.move_result(pair, move)
                if result is None:
                    continue
                if result.weight > pair.weight:
                    yield move, result


def recompute_pair(g: Graph, weights: Weights, a, b) -> PackingPair:
    """Weight and surviving-triangle count from scratch, for cache checks."""
    return _Search(g, weights).pair_from_sets(a, b)


def check_packing_pair(g: Graph, a, b) -> list[PairViolation]:
    """All violations of conditions (1)(2)(3); empty list means the pair is valid."""
    a = set(a)
    b = set(b)
    counts = triangle_membership_counts(g)
    out: list[PairViolation] = []
    for v in sorted(a & b):
        out.append(PairViolation(1, (v,), "vertex chosen on both sides"))
    for name, side in (("a", a), ("b", b)):
        members = sorted(side)
        for i, u in enumerate(members):
            near = vertices_within(g, [u], 2)
            for v in members[i + 1:]:
                if v in near:
                    out.append(PairViolation(
                        1, (u, v), f"distance < 3 within side {name}"))
    for v in sorted(a | b):
        if counts[v] == 0:
            out.append(PairViolation(2, (v,), "chosen vertex lies in no triangle"))
    marked = a | b
    for t in list_triangles(g):
        hit = sorted(set(t) & marked)
        if len(hit) >= 2:
            out.append(PairViolation(3, t, f"triangle contains {hit}"))
    return out


def surviving_triangles(g: Graph, pair: PackingPair) -> list[Triangle]:
    """Triangles disjoint from a u b, in lexicographic order."""
    marked = pair.marked
    return [t for t in list_triangles(g) if not (set(t) & marked)]


def enumerate_improving_moves(g: Graph, weights: Weights, pair: PackingPair,
                              t: Triangle) -> Iterator[Move]:
    """Improving moves whose additions stay within distance 3 of triangle t.

    Improving means strictly weight-increasing.  t must be a surviving
    triangle of the pair.  Moves come out in a fixed lexicographic order
    (additions compared before removals, side a before side b); for the first
    surviving triangle, the first yield is exactly the step break_triangles
    takes.
    """
    if set(t) & pair.marked:
        raise ValueError(f"triangle {t} is not surviving for this pair")
    search = _Search(g, weights)
    for move, _ in search.improving_moves(pair, search.candidates_near(t)):
        yield move


def _k4_components(g: Graph) -> list[list[int]]:
    out = []
    for comp in components(g):
        if len(comp) == 4 and all(g.has_edge(u, v)
                                  for i, u in enumerate(comp) for v in comp[i + 1:]):
            out.append(comp)
    return out


def break_triangles(g: Graph, weights: Weights | None = None
                    ) -> tuple[PackingPair, list[AppliedMove]]:
    """Run the search to a pair with no surviving triangle; return it with its trace.

    The input must be cubic.  K4 components get their fixed placement first;
    then the loop picks the first surviving triangle and applies the first
    strictly weight-increasing move whose additions lie within distance 3 of
    it.  Raises Stuck when that triangle has no such move.
    """
    require_cubic(g)
    weights = weights if weights is not None else Weights()
    search = _Search(g, weights)
    a: set[int] = set()
    b: set[int] = set()
    trace: list[AppliedMove] = []
    pair = search.pair_from_sets(a, b)
    for comp in _k4_components(g):
        p, q = comp[0], comp[1]
        move = Move(add_a=(p,), add_b=(q,))
        before = pair.weight
        a.add(p)
        b.add(q)
        pair = search.pair_from_sets(a, b)
        trace.append(AppliedMove(move, before, pair.weight, pair.surviving))
    while pair.surviving > 0:
        t = search.survivors(pair.marked)[0]
        chosen = next(search.improving_moves(pair, search.candidates_near(t)), None)
        if chosen is None:
            raise Stuck(pair, t)
        move, result = chosen
        trace.append(AppliedMove(move, pair.weight, result.weight, result.surviving))
        pair = result
    return pair, trace

