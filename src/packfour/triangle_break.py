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
the first surviving triangle and it strictly increases the integer weight.
Outside K4 components a vertex lies on at most two triangles, so its weight
is its triangle count, and by (3) a triangle holds at most one chosen
vertex; the weight is therefore at most T, the number of triangles, and
exactly T once none survives, so a run takes at most T steps.  A K4
component takes one placement step, of weight 4 for its four triangles.

Set-up is eager and reads the cubic input's adjacency tuples directly: the
triangles, an index from each vertex to the triangles through it (weights
and the K4 placement read it), each triangle vertex's triangle mates, and
the radius-2 ball of each vertex within distance 1 of a triangle, its own
adjacency tuple and its three neighbours' joined.  Additions lie on
triangles and the candidate set reads the balls of triangle neighbours, so
no other entry is read, and the others are None.  In a claw-free cubic graph
every vertex lies on a triangle and the tables are full.  The pair is
mutable search state, updated in place from the triangles of the moved
vertices only: the sides, the chosen count on each triangle, the weight and
the survivor count.  The first surviving triangle comes off a min-heap of
triangle indices with lazy deletion; a removal can revive a triangle, so its
index goes back on the heap.  A PackingPair is built only where the pair
leaves the search.  Every step builds two records, Move and AppliedMove;
like every record in the package they are named tuples, cheap to build, but
each field read is a descriptor call, so a hot loop reads a record's fields
once, outside it, or unpacks the record.

A step takes the first improving move around the first surviving triangle in
canonical order (additions, then removals, each as sorted (vertex, side)
pairs), and only that move is computed: first_move forms the additions, one
(vertex, side) item or a pair, in order, _forced settles each item's forced
removals once, on demand, and _move picks the removals of the first combo
that outweighs its forced removals.

A K4 component cannot satisfy (3) with two chosen vertices (any two of its
vertices share a triangle), so its two smallest vertices are placed up front,
one into a and one into b; its remainder is a single edge, triangle-free.  In
a cubic graph a vertex lies on three triangles exactly when its closed
neighbourhood is a K4 component, so the index finds these components.
"""

from __future__ import annotations

import heapq
from collections import namedtuple

from .errors import Stuck
from .graph import Graph, Triangle, list_triangles, require_cubic

SIDE_A = 0
SIDE_B = 1

HEAVY = 2  # weight of a vertex in two or more triangles
LIGHT = 1  # weight of a vertex in exactly one triangle
_UNSETTLED = object()  # an item whose forced removals no step has asked for yet


class PackingPair(namedtuple("PackingPair", "a b weight surviving")):
    # a and b are frozensets; surviving counts the triangles with no vertex
    # in a u b
    __slots__ = ()

    @property
    def marked(self) -> frozenset[int]:
        return self.a | self.b


class Move(namedtuple("Move", "add_a add_b remove_a remove_b", defaults=((), (), None, None))):
    # add_a and add_b are tuples of vertices; a removal is a vertex or None
    __slots__ = ()


class AppliedMove(namedtuple("AppliedMove", "move weight_before weight_after surviving_after")):
    __slots__ = ()


class _Search:
    """The triangle index, mates and radius-2 balls of one graph, and the pair
    the search holds on it, kept as mutable state and updated in place; it
    starts empty."""

    def __init__(self, g: Graph):
        require_cubic(g)
        self.adj = adj = g.adj
        self.triangles: list[Triangle] = list_triangles(g)
        self.tri_by_vertex: list[list[int]] = [[] for _ in range(g.n)]
        # the vertices of the triangles through each triangle vertex, itself
        # included; None off the triangles, where no addition lies
        mates: list[set[int] | None] = [None] * g.n
        for i, t in enumerate(self.triangles):
            for v in t:
                self.tri_by_vertex[v].append(i)
                m = mates[v]
                if m is None:
                    mates[v] = set(t)
                else:
                    m.update(t)
        self.mates = mates
        self.wvec = w = [HEAVY if len(ts) >= 2 else LIGHT if ts else 0 for ts in self.tri_by_vertex]
        # graph.ball2 for a cubic graph, one comprehension with no call per
        # vertex and no tuple concatenated (v is among its neighbours'
        # neighbours), built only within distance 1 of a triangle, the
        # vertices near, _forced and the additions read; None elsewhere
        self.ball2: list[set[int] | None] = [
            {*a, *adj[p], *adj[q], *adj[r]} if x or w[p] or w[q] or w[r] else None
            for x, a in zip(w, adj) for p, q, r in (a,)]
        self.sides: tuple[set[int], set[int]] = (set(), set())
        self.weight = 0
        self.hits = [0] * len(self.triangles)  # chosen vertices on each triangle
        # indices of surviving triangles, ascending, so already a min-heap
        self.survivors = list(range(len(self.triangles)))
        self.surviving = len(self.survivors)

    def pair(self) -> PackingPair:
        a, b = self.sides
        return PackingPair(frozenset(a), frozenset(b), self.weight, self.surviving)

    def play(self, move: Move) -> None:
        """Apply a valid move in place, removals first so a vertex can switch
        sides; only the triangles of the moved vertices are touched."""
        add_a, add_b, remove_a, remove_b = move
        for side, r in ((SIDE_A, remove_a), (SIDE_B, remove_b)):
            if r is not None:
                self.sides[side].remove(r)
                self.weight -= self.wvec[r]
                for ti in self.tri_by_vertex[r]:
                    self.hits[ti] -= 1
                    if self.hits[ti] == 0:
                        self.surviving += 1
                        heapq.heappush(self.survivors, ti)  # revived
        for side, adds in ((SIDE_A, add_a), (SIDE_B, add_b)):
            for v in adds:
                self.sides[side].add(v)
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

    def near(self, t: Triangle) -> set[int]:
        """The vertices within distance 3 of t: the radius-2 balls of the
        nine vertices on t's adjacency tuples.  Their union is that of the
        balls of t's three neighbours off t, so three balls are read, not
        nine.  In a cubic graph each vertex x of t has one neighbour o off t,
        and ball2(o) holds ball2(x) but for the other two vertices off t,
        whose balls are read too; in a K4 or a diamond some of the three are
        one vertex."""
        adj = self.adj
        return set().union(*[self.ball2[o] for o in adj[t[0]] + adj[t[1]] + adj[t[2]]
                             if o not in t])

    def first_move(self, t: Triangle) -> Move | None:
        """The first valid strictly weight-increasing move in canonical order
        (additions, then removals, side a before side b at one vertex) whose
        additions lie within distance 3 of t (near), or None if there is none.

        Additions are (vertex, side) items: one, or two on distinct vertices,
        listed in one pass over the sorted candidates.  Each item settles its
        complete forced removals for conditions (1) and (3) once, on demand,
        in item order (_forced), into a list indexed like the items.  Pairs on
        one side within distance 2, sharing a triangle, or too light to
        outweigh the first item's forced removals are skipped before the
        second item is settled; an item whose spare weight no HEAVY partner
        can make up pairs with nothing.  A pair whose forced removals are two
        distinct vertices on one side is rejected, and a removal both items
        force is removed, and weighed, once.  The first combo whose additions
        outweigh its forced removals is the step's, and _move picks its
        removals.
        """
        ball2, mates, w = self.ball2, self.mates, self.wvec
        in_a, in_b = self.sides
        items = []
        for v in sorted(self.near(t)):
            if w[v]:  # the sides are disjoint: at most one of these fails
                if v not in in_a:
                    items.append((v, SIDE_A))
                if v not in in_b:
                    items.append((v, SIDE_B))
        forced = [_UNSETTLED] * len(items)
        for i, x in enumerate(items):
            fx = forced[i]
            if fx is _UNSETTLED:
                fx = self._forced(*x)
            if fx is None:
                continue
            ra, rb, weight = fx
            v, side = x
            spare = w[v] - weight
            if spare > 0:
                return self._move((x,), ra, rb, spare)
            if spare + HEAVY <= 0:
                continue  # no partner outweighs fx
            mates_v, ball_v = mates[v], ball2[v]
            for j in range(i + 1, len(items)):
                u, s = y = items[j]
                if u in mates_v or (s == side and u in ball_v) or w[u] + spare <= 0:
                    continue  # same vertex or (3), (1), or no gain over fx
                fy = forced[j]
                if fy is _UNSETTLED:
                    fy = forced[j] = self._forced(u, s)
                if fy is None:
                    continue
                sa, sb, sweight = fy
                slack = spare + w[u] - sweight
                if ra is not None and sa is not None:
                    if ra != sa:
                        continue  # two removals on side a
                    slack += w[ra]  # forced by both, removed once
                if rb is not None and sb is not None:
                    if rb != sb:
                        continue  # two removals on side b
                    slack += w[rb]
                if slack > 0:
                    return self._move(
                        (x, y), sa if ra is None else ra, sb if rb is None else rb, slack)
        return None

    def _forced(self, v: int, side: int) -> tuple[int | None, int | None, int] | None:
        """The removals that adding v to side forces, as (removal from a,
        removal from b, their total weight), each removal None when there is
        none; or None when two fall on one side.  They are the members of its
        side within distance 2 (condition (1)), and on the other side v itself
        when it switches and the chosen vertices sharing a triangle with v
        (condition (3)).  The sides are disjoint, so the two never coincide."""
        clash = self.sides[side] & self.ball2[v]
        mates = self.sides[1 - side] & self.mates[v]
        if len(clash) > 1 or len(mates) > 1:
            return None
        w = self.wvec
        own = clash.pop() if clash else None
        other = mates.pop() if mates else None
        weight = (0 if own is None else w[own]) + (0 if other is None else w[other])
        return (own, other, weight) if side == SIDE_A else (other, own, weight)

    def _move(self, combo, ra, rb, slack) -> Move:
        """The first move adding combo in removal order, given its forced
        removals ra and rb (None on a side with none) and slack > 0, the
        additions' weight less theirs.  Every removal set that holds the
        forced removals, at most one vertex per side, each within distance 2
        of an addition, satisfies (1)-(3), so only weight decides which are
        moves, and the forced removals alone always are.  One sorts before
        them only when a single removal r is forced (with none, the empty set
        sorts first; with two, no side is free): r plus a chosen vertex
        x < r on the free side, within distance 2 of an addition, that the
        slack affords (w[x] < slack), the least such x.  A chosen vertex lies
        on a triangle (condition (2)), so it weighs at least LIGHT, and with
        slack <= LIGHT no x is affordable."""
        add_a = tuple([v for v, side in combo if side == SIDE_A])
        add_b = tuple([v for v, side in combo if side == SIDE_B])
        if slack > LIGHT and (ra is None) != (rb is None):
            r, free = (ra, self.sides[SIDE_B]) if rb is None else (rb, self.sides[SIDE_A])
            w = self.wvec
            extras = [x for v, _ in combo for x in self.ball2[v] & free if x < r and w[x] < slack]
            if extras:
                ra, rb = (r, min(extras)) if rb is None else (min(extras), r)
        return Move(add_a, add_b, ra, rb)


def break_triangles(g: Graph) -> tuple[PackingPair, list[AppliedMove]]:
    """Run the search to a pair with no surviving triangle; return it with its trace.

    The input must be cubic (NotCubic otherwise).  K4 components get their
    fixed placement first; then the loop picks the first surviving triangle
    and applies the first strictly weight-increasing move whose additions
    lie within distance 3 of it.  Raises Stuck when that triangle has no
    such move.
    """
    search = _Search(g)
    trace: list[AppliedMove] = []

    def step(move: Move) -> None:
        before = search.weight
        search.play(move)
        trace.append(AppliedMove(move, before, search.weight, search.surviving))

    for v, a in enumerate(g.adj):
        if len(search.tri_by_vertex[v]) == 3 and v < a[0]:
            step(Move(add_a=(v,), add_b=(a[0],)))  # smallest two of a K4 component
    while search.surviving > 0:
        t = search.first_surviving()
        move = search.first_move(t)
        if move is None:
            raise Stuck(search.pair(), t)
        step(move)
    return search.pair(), trace
