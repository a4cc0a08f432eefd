"""Extract two disjoint 2-packings whose removal kills every triangle.

The search keeps a pair of vertex sets (a, b) subject to three conditions:

  (1) a and b are disjoint and each is a 2-packing (pairwise distance >= 3),
  (2) every chosen vertex lies in at least one triangle,
  (3) no triangle contains two chosen vertices,

and hill-climbs on total vertex weight — HEAVY = 2 for a vertex in two or more
triangles, LIGHT = 1 for exactly one, 0 otherwise — until no triangle survives
outside a u b.  Moves are bounded exchanges: at most one removal per side, at
most two additions in total, removals within distance 2 of an added vertex.
Every step is a local strict ascent: its additions lie within distance 3 of
the first surviving triangle and it strictly increases the integer weight,
which never exceeds 2n, so a run takes at most 2n steps.

Moves around a triangle are generated lazily in canonical order (Move.sort_key:
additions, then removals) and each candidate is checked once, cheapest test
first: weight gain, then membership, then the 2-packing test against radius-2
balls computed once per graph, then condition (3).  A step takes the first.

Complete-graph components on four vertices cannot satisfy (3) with two chosen
vertices (any two of their vertices share a triangle), so each K4 component is
handled up front by placing its two smallest vertices one into a and one into
b; the component's remainder is a single edge, which is triangle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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

HEAVY = 2  # weight of a vertex in two or more triangles
LIGHT = 1  # weight of a vertex in exactly one triangle


@dataclass(frozen=True)
class PackingPair:
    a: frozenset[int]
    b: frozenset[int]
    weight: int
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
    weight_before: int
    weight_after: int
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


def _choices(items: list, compatible) -> Iterator[tuple]:
    """Each item alone, then each compatible pair (x, y) with y after x.

    On a sorted list this is lexicographic order: (x,) precedes (x, *).
    """
    for i, x in enumerate(items):
        yield (x,)
        for y in items[i + 1:]:
            if compatible(x, y):
                yield (x, y)


class _Search:
    """Precomputed triangle structure and radius-2 balls shared by every
    operation on one graph."""

    def __init__(self, g: Graph):
        self.g = g
        self.triangles: list[Triangle] = list_triangles(g)
        self.counts = triangle_membership_counts(g)
        self.wvec = [HEAVY if c >= 2 else LIGHT if c else 0 for c in self.counts]
        self.tri_by_vertex: list[list[int]] = [[] for _ in range(g.n)]
        for i, t in enumerate(self.triangles):
            for v in t:
                self.tri_by_vertex[v].append(i)
        self.ball2 = [vertices_within(g, [v], 2) for v in range(g.n)]

    def pair_from_sets(self, a, b) -> PackingPair:
        marked = set(a) | set(b)
        weight = sum(self.wvec[v] for v in marked)
        surviving = sum(1 for t in self.triangles if not (set(t) & marked))
        return PackingPair(frozenset(a), frozenset(b), weight, surviving)

    def apply(self, pair: PackingPair, move: Move) -> PackingPair:
        return self.pair_from_sets((pair.a - {move.remove_a}) | set(move.add_a),
                                   (pair.b - {move.remove_b}) | set(move.add_b))

    def improving_moves(self, pair: PackingPair, t: Triangle) -> Iterator[Move]:
        """Valid strictly weight-increasing moves whose additions lie within
        distance 3 of t, generated in Move.sort_key() order.

        Additions are (vertex, side) items: one, or two on distinct vertices.
        Removals are (vertex, side) items too, at most one per side, taken
        from that side within distance 2 of an addition, none first.
        """
        w = self.wvec
        sides = (pair.a, pair.b)
        marked = pair.marked
        adds = [(v, side) for v in sorted(vertices_within(self.g, t, 3)) if self.counts[v]
                for side in (SIDE_A, SIDE_B)]
        for combo in _choices(adds, lambda x, y: x[0] != y[0]):
            if any(v in sides[side] for v, side in combo):
                continue  # already on its own side: _admits rejects every removal
            gain = sum(w[v] for v, _ in combo)
            near = set().union(*(self.ball2[v] for v, _ in combo))
            rems = sorted((r, side) for side in (SIDE_A, SIDE_B) for r in sides[side] & near)
            for removal in chain([()], _choices(rems, lambda x, y: x[1] != y[1])):
                if (gain > sum(w[r] for r, _ in removal)
                        and self._admits(sides, marked, combo, removal)):
                    rem = {side: r for r, side in removal}
                    yield Move(tuple(v for v, s in combo if s == SIDE_A),
                               tuple(v for v, s in combo if s == SIDE_B),
                               rem.get(SIDE_A), rem.get(SIDE_B))

    def _admits(self, sides, marked, combo, removal) -> bool:
        """Whether the exchange keeps the pair valid.  Condition (2) needs no
        check: every addition is a triangle vertex."""
        if any(v in marked and (v, 1 - side) not in removal for v, side in combo):
            return False  # an addition is new, or switches sides
        removed = {r for r, _ in removal}
        if any(u != v and ((u in sides[side] and u not in removed) or (u, side) in combo)
               for v, side in combo for u in self.ball2[v]):
            return False  # condition (1): each side stays a 2-packing
        added = {v for v, _ in combo}
        return not any(sum(1 for u in self.triangles[ti]
                           if u in added or (u in marked and u not in removed)) >= 2
                       for v in added for ti in self.tri_by_vertex[v])  # condition (3)


def enumerate_improving_moves(g: Graph, pair: PackingPair, t: Triangle) -> Iterator[Move]:
    """Improving moves whose additions stay within distance 3 of triangle t.

    Improving means strictly weight-increasing.  t must be a surviving
    triangle of the pair.  Moves are generated in canonical order,
    Move.sort_key() (additions compared before removals, side a before side b),
    and each candidate is checked once; for the first surviving triangle, the
    first yield is exactly the step break_triangles takes.
    """
    if set(t) & pair.marked:
        raise ValueError(f"triangle {t} is not surviving for this pair")
    yield from _Search(g).improving_moves(pair, t)


def _k4_components(g: Graph) -> list[list[int]]:
    out = []
    for comp in components(g):
        if len(comp) == 4 and all(g.has_edge(u, v)
                                  for i, u in enumerate(comp) for v in comp[i + 1:]):
            out.append(comp)
    return out


def break_triangles(g: Graph) -> tuple[PackingPair, list[AppliedMove]]:
    """Run the search to a pair with no surviving triangle; return it with its trace.

    The input must be cubic.  K4 components get their fixed placement first;
    then the loop picks the first surviving triangle and applies the first
    strictly weight-increasing move whose additions lie within distance 3 of
    it.  Raises Stuck when that triangle has no such move.
    """
    require_cubic(g)
    search = _Search(g)
    pair = search.pair_from_sets((), ())
    trace: list[AppliedMove] = []

    def step(move: Move) -> None:
        nonlocal pair
        after = search.apply(pair, move)
        trace.append(AppliedMove(move, pair.weight, after.weight, after.surviving))
        pair = after

    for comp in _k4_components(g):
        step(Move(add_a=(comp[0],), add_b=(comp[1],)))
    while pair.surviving > 0:
        marked = pair.marked
        t = next(t for t in search.triangles if not (set(t) & marked))
        move = next(search.improving_moves(pair, t), None)
        if move is None:
            raise Stuck(pair, t)
        step(move)
    return pair, trace
