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

The triangles are listed once per graph, into one index from each vertex to
the triangles through it; vertex weights, condition (3) and the K4 placement
below all read that index.  The pair is mutable search state, updated in
place from the triangles of the moved vertices only: the sides a and b, their
union, the number of chosen vertices on each triangle, the weight and the
number of surviving triangles.  The first surviving triangle comes off a
min-heap of triangle indices with lazy deletion; a removal can revive an
earlier triangle, so its index goes back on the heap.  A PackingPair is built
only where the pair leaves the search: the returned pair and Stuck.

Moves around a triangle are generated lazily in canonical order
(Move.sort_key: additions, then removals), and a step takes the first.  Each
addition item (vertex, side) settles its forced removals once per step: the
members of its side within distance 2 (condition (1)) and, when it switches
sides, the vertex itself on the other side.  Items and pairs of items whose
forced removals need two removals from one side, or weigh at least their
gain, are skipped before any removal is chosen; so are two additions on one
side within distance 2.  Only removal choices containing the forced ones are
enumerated, and each is checked for weight gain, then condition (3).

Complete-graph components on four vertices cannot satisfy (3) with two chosen
vertices (any two of their vertices share a triangle), so each K4 component is
handled up front by placing its two smallest vertices one into a and one into
b; the component's remainder is a single edge, which is triangle-free.  In a
cubic graph a vertex lies on three triangles exactly when its closed
neighbourhood is a K4 component, so the index finds these components.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import Stuck
from .graph import Graph, Triangle, list_triangles, require_cubic, vertices_within

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
    """The triangle index and radius-2 balls of one graph, and the pair the
    search holds on it, kept as mutable state and updated in place."""

    def __init__(self, g: Graph, a=(), b=()):
        self.g = g
        self.triangles: list[Triangle] = list_triangles(g)
        self.tri_by_vertex: list[list[int]] = [[] for _ in range(g.n)]
        for i, t in enumerate(self.triangles):
            for v in t:
                self.tri_by_vertex[v].append(i)
        self.wvec = [HEAVY if len(ts) >= 2 else LIGHT if ts else 0 for ts in self.tri_by_vertex]
        self.ball2 = [vertices_within(g, [v], 2) for v in range(g.n)]
        self.sides = (set(a), set(b))
        self.marked = self.sides[SIDE_A] | self.sides[SIDE_B]
        self.weight = sum(self.wvec[v] for v in self.marked)
        self.hits = [sum(1 for v in t if v in self.marked) for t in self.triangles]
        # indices of surviving triangles, ascending, so already a min-heap
        self.survivors = [i for i, h in enumerate(self.hits) if h == 0]
        self.surviving = len(self.survivors)

    def pair(self) -> PackingPair:
        a, b = self.sides
        return PackingPair(frozenset(a), frozenset(b), self.weight, self.surviving)

    def play(self, move: Move) -> None:
        """Apply a valid move in place, removals first so a vertex can switch
        sides; only the triangles of the moved vertices are touched."""
        for side, r in ((SIDE_A, move.remove_a), (SIDE_B, move.remove_b)):
            if r is not None:
                self.sides[side].remove(r)
                self.marked.remove(r)
                self.weight -= self.wvec[r]
                for ti in self.tri_by_vertex[r]:
                    self.hits[ti] -= 1
                    if self.hits[ti] == 0:
                        self.surviving += 1
                        heapq.heappush(self.survivors, ti)  # revived
        for side, adds in ((SIDE_A, move.add_a), (SIDE_B, move.add_b)):
            for v in adds:
                self.sides[side].add(v)
                self.marked.add(v)
                self.weight += self.wvec[v]
                for ti in self.tri_by_vertex[v]:
                    if self.hits[ti] == 0:
                        self.surviving -= 1
                    self.hits[ti] += 1

    def first_surviving(self) -> Triangle:
        """The lowest-index surviving triangle; some triangle must survive.
        Heap entries of triangles hit since they were pushed are dropped here."""
        heap = self.survivors
        while self.hits[heap[0]]:
            heapq.heappop(heap)
        return self.triangles[heap[0]]

    def improving_moves(self, t: Triangle) -> Iterator[Move]:
        """Valid strictly weight-increasing moves whose additions lie within
        distance 3 of t, generated in Move.sort_key() order.

        Additions are (vertex, side) items: one, or two on distinct vertices.
        Removals are (vertex, side) items too, at most one per side, taken
        from that side within distance 2 of an addition, none first.  Each
        item's forced removals are settled once per call: the members of its
        side within distance 2 of it (condition (1)), and the vertex itself on
        the other side when it switches.  An item forcing two removals from
        one side is dropped, two items on one side within distance 2 are never
        paired, and a pair is skipped when its forced removals fall twice on
        one side or weigh at least its gain.  Only removal choices containing
        every forced removal are tried; each is checked for gain, then for
        condition (3).  The generator reads the live state, so it must not be
        resumed after a move is played.
        """
        w, ball2, sides = self.wvec, self.ball2, self.sides
        forced: dict[tuple[int, int], frozenset] = {}
        for v in sorted(vertices_within(self.g, t, 3)):
            if not self.tri_by_vertex[v]:
                continue
            for side in (SIDE_A, SIDE_B):
                if v in sides[side]:
                    continue  # already on its own side
                clash = sides[side] & ball2[v]
                if len(clash) < 2:
                    forced[(v, side)] = frozenset(
                        [(u, side) for u in clash]
                        + ([(v, 1 - side)] if v in sides[1 - side] else []))
        items = list(forced)  # insertion order is (vertex, side) order

        def compatible(x, y) -> bool:
            return x[0] != y[0] and (x[1] != y[1] or y[0] not in ball2[x[0]])

        for combo in _choices(items, compatible):
            must = frozenset().union(*(forced[x] for x in combo))
            if len({side for _, side in must}) < len(must):
                continue  # two forced removals from one side
            gain = sum(w[v] for v, _ in combo)
            if gain <= sum(w[r] for r, _ in must):
                continue
            near = set().union(*(ball2[v] for v, _ in combo))
            rems = sorted((r, side) for side in (SIDE_A, SIDE_B) for r in sides[side] & near)
            for removal in chain([()], _choices(rems, lambda x, y: x[1] != y[1])):
                if (must.issubset(removal) and gain > sum(w[r] for r, _ in removal)
                        and self._admits(combo, removal)):
                    rem = {side: r for r, side in removal}
                    yield Move(tuple(v for v, s in combo if s == SIDE_A),
                               tuple(v for v, s in combo if s == SIDE_B),
                               rem.get(SIDE_A), rem.get(SIDE_B))

    def _admits(self, combo, removal) -> bool:
        """Condition (3) after the exchange: no triangle through an addition
        holds two chosen vertices.  The forced removals settle condition (1)
        and the switch of sides, and every addition is a triangle vertex, so
        condition (2) needs no check."""
        added = {v for v, _ in combo}
        removed = {r for r, _ in removal}
        marked = self.marked
        return not any(sum(1 for u in self.triangles[ti]
                           if u in added or (u in marked and u not in removed)) >= 2
                       for v in added for ti in self.tri_by_vertex[v])


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
    yield from _Search(g, pair.a, pair.b).improving_moves(t)


def break_triangles(g: Graph) -> tuple[PackingPair, list[AppliedMove]]:
    """Run the search to a pair with no surviving triangle; return it with its trace.

    The input must be cubic.  K4 components get their fixed placement first;
    then the loop picks the first surviving triangle and applies the first
    strictly weight-increasing move whose additions lie within distance 3 of
    it.  Raises Stuck when that triangle has no such move.
    """
    require_cubic(g)
    search = _Search(g)
    trace: list[AppliedMove] = []

    def step(move: Move) -> None:
        before = search.weight
        search.play(move)
        trace.append(AppliedMove(move, before, search.weight, search.surviving))

    for v in range(g.n):
        if len(search.tri_by_vertex[v]) == 3 and v < g.adj[v][0]:
            step(Move(add_a=(v,), add_b=(g.adj[v][0],)))  # smallest two of a K4 component
    while search.surviving > 0:
        t = search.first_surviving()
        move = next(search.improving_moves(t), None)
        if move is None:
            raise Stuck(search.pair(), t)
        step(move)
    return search.pair(), trace
