from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import pickle

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from packfour import triangle_break
from packfour.errors import EmptySpec, NotCubic, NotNonDecreasing, NotPositive, Stuck
from packfour.generators import (
    cycle,
    diamond_necklace,
    inflate,
    k4,
    k33,
    petersen,
    prism,
    random_cubic,
)
from packfour.graph import bfs_distances, build_graph, list_triangles
from packfour.odd_cycle import Addition, ReductionState
from packfour.oracle import OracleResult
from packfour.packing import SSpec, Violation
from packfour.triangle_break import (
    HEAVY,
    LIGHT,
    AppliedMove,
    Move,
    PackingPair,
    _Search,
    break_triangles,
)

import oracles
from oracles import check_packing_pair, recompute_pair, surviving_triangles


@functools.lru_cache(maxsize=64)
def k4_component_vertices(g) -> frozenset[int]:
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from(g.edges())
    out: set[int] = set()
    for comp in nx.connected_components(nxg):
        if len(comp) == 4 and all(v in g.adj[u]
                                  for u, v in itertools.combinations(comp, 2)):
            out.update(comp)
    return frozenset(out)  # cached, so immutable


def essential_violations(g, a, b):
    """Pair violations that matter: condition (3) inside a K4 component is
    unavoidable and accepted by design."""
    k4verts = k4_component_vertices(g)
    return [viol for viol in check_packing_pair(g, a, b)
            if not (viol.condition == 3 and set(viol.vertices) <= k4verts)]


def test_vertex_weight():
    assert (HEAVY, LIGHT) == (2, 1)
    assert _Search(k4()).wvec == [2, 2, 2, 2]
    assert _Search(prism()).wvec == [1] * 6
    assert _Search(petersen()).wvec == [0] * 10


def test_check_packing_pair():
    g = prism()
    assert check_packing_pair(g, {3}, {0}) == []
    assert check_packing_pair(g, set(), set()) == []

    viols = check_packing_pair(g, {0}, {0})
    assert any(v.condition == 1 and v.vertices == (0,) for v in viols)

    viols = check_packing_pair(g, {0, 1}, set())
    assert any(v.condition == 1 and v.vertices == (0, 1) for v in viols)

    viols = check_packing_pair(g, {0}, {1})
    assert [v.condition for v in viols] == [3]
    assert viols[0].vertices == (0, 1, 2)

    viols = check_packing_pair(petersen(), {0}, set())
    assert [v.condition for v in viols] == [2]

    # any two K4 vertices share two triangles
    viols = check_packing_pair(k4(), {0}, {1})
    assert [v.condition for v in viols] == [3, 3]
    assert essential_violations(k4(), {0}, {1}) == []


def test_surviving_triangles():
    g = prism()
    empty = recompute_pair(g, set(), set())
    assert surviving_triangles(g, empty) == [(0, 1, 2), (3, 4, 5)]
    assert empty.surviving == 2 and empty.weight == 0
    half = recompute_pair(g, {0}, set())
    assert surviving_triangles(g, half) == [(3, 4, 5)]
    done = recompute_pair(g, {3}, {0})
    assert surviving_triangles(g, done) == []
    assert done.weight == 2 and done.surviving == 0
    assert done.marked == {0, 3}


def test_move_sort_key_order():
    key = oracles.move_sort_key
    # side a sorts before side b at the same vertex; vertices dominate sides
    assert key(Move(add_a=(0,))) < key(Move(add_b=(0,)))
    assert key(Move(add_b=(0,))) < key(Move(add_a=(3,)))
    # a single addition precedes any two-addition move extending it
    assert key(Move(add_a=(0,))) < key(Move(add_a=(0, 3)))
    # removals break ties after additions, no-removal first
    assert key(Move(add_a=(5,))) < key(Move(add_a=(5,), remove_a=2))
    assert key(Move(add_a=(5,), remove_a=1)) < key(Move(add_a=(5,), remove_b=1))
    # an extra removal that sorts before the forced one comes first
    assert key(Move(add_a=(5,), remove_a=3, remove_b=1)) < key(Move(add_a=(5,), remove_a=3))


def mid_run(g, part=2):
    """The sides a, b after the first 1/part of break_triangles(g)'s steps
    (halfway by default), and their first surviving triangle."""
    _, trace = break_triangles(g)
    a, b = sides_after(trace[:len(trace) // part])
    return a, b, surviving_triangles(g, recompute_pair(g, a, b))[0]


def sides_after(trace):
    """The sides a, b after replaying the trace's moves from empty sides."""
    a: set[int] = set()
    b: set[int] = set()
    for am in trace:
        m = am.move
        a = (a - {m.remove_a}) | set(m.add_a)
        b = (b - {m.remove_b}) | set(m.add_b)
    return a, b


def search_at(g, a, b):
    """A search on g holding the sides a, b, reached by playing them as one
    move from the empty start."""
    search = _Search(g)
    search.play(Move(tuple(sorted(a)), tuple(sorted(b))))
    return search


def reference_moves(g, pair, t):
    """Every move shape around t, brute force, kept when valid and strictly
    improving, in oracles.move_sort_key order."""
    d = oracles.cached_distances(g)
    tris = oracles.cached_triangles(g)
    on_triangle = {v for tri in tris for v in tri}
    near_t = [v for v in sorted(on_triangle) if min(d[v][x] for x in t) <= 3]
    # recompute_pair's weights, counted once per call
    weight = {v: min(2, sum(v in tri for tri in tris)) for v in on_triangle}
    a, b = set(pair.a), set(pair.b)
    out = []
    for k in (1, 2):
        for adds in itertools.combinations(near_t, k):
            for sides in itertools.product("ab", repeat=k):
                add_a = tuple(v for v, s in zip(adds, sides) if s == "a")
                add_b = tuple(v for v, s in zip(adds, sides) if s == "b")
                close = [r for r in a | b if min(d[r][v] for v in adds) <= 2]
                for ra in [None] + [r for r in close if r in a]:
                    for rb in [None] + [r for r in close if r in b]:
                        na, nb = a - {ra}, b - {rb}
                        # additions are new vertices; a vertex may switch sides
                        if set(adds) & (na | nb) or ra in add_a or rb in add_b:
                            continue
                        na |= set(add_a)
                        nb |= set(add_b)
                        if (sum(weight.get(v, 0) for v in na | nb) > pair.weight
                                and essential_violations(g, na, nb) == []):
                            out.append(Move(add_a, add_b, ra, rb))
    return sorted(out, key=oracles.move_sort_key)


@pytest.mark.parametrize("setup", [
    (prism, set(), set(), (0, 1, 2)),
    (prism, {0}, set(), (3, 4, 5)),
    (lambda: diamond_necklace(2), {0}, set(), (4, 6, 7)),
    (lambda: diamond_necklace(4), {1}, {5, 9}, (0, 2, 3)),
    (lambda: inflate(k4()), {0}, set(), (3, 4, 5)),
    (lambda: inflate(random_cubic(10, seed=2)), None, None, None),  # mid-run pair
    (lambda: inflate(random_cubic(8, seed=3)), None, None, None),
    (lambda: inflate(random_cubic(12, seed=1)), None, None, None),
    (lambda: oracles.diamond_strings(40, 1, 0.3, 2), None, None, None),
    (lambda: oracles.diamond_strings(40, 1, 0.3, 3), None, None, None),
])
def test_first_move_sound(setup):
    # the search's move around t is the first valid strictly improving move
    # in canonical order, by brute force
    make, a, b, t = setup
    g = make()
    if t is None:
        a, b, t = mid_run(g)
    pair = recompute_pair(g, a, b)
    search = search_at(g, a, b)
    assert search.pair() == pair
    assert search.first_surviving() == surviving_triangles(g, pair)[0]
    m = search.first_move(t)
    assert m is not None and m == reference_moves(g, pair, t)[0]
    d = oracles.cached_distances(g)
    adds = list(m.add_a) + list(m.add_b)
    assert 1 <= len(adds) <= 2 and len(set(adds)) == len(adds)
    # additions stay within distance 3 of the target triangle
    for v in adds:
        assert min(d[v][x] for x in t) <= 3
    # removals come from their own side, within distance 2 of an addition
    for r, side in ((m.remove_a, a), (m.remove_b, b)):
        if r is not None:
            assert r in side
            assert min(d[r][v] for v in adds) <= 2
    na = (set(a) - {m.remove_a}) | set(m.add_a)
    nb = (set(b) - {m.remove_b}) | set(m.add_b)
    assert essential_violations(g, na, nb) == []
    assert recompute_pair(g, na, nb).weight > pair.weight


def relabelled_necklace(p):
    """diamond_necklace(3) relabelled by the seeded permutation p."""
    return oracles.permute(diamond_necklace(3), oracles.random_perm(12, p))


@pytest.mark.parametrize("make", [
    prism,
    lambda: diamond_necklace(2),
    lambda: diamond_necklace(4),
    lambda: inflate(k4()),
    lambda: inflate(random_cubic(10, seed=2)),
    lambda: inflate(random_cubic(8, seed=3)),
    lambda: inflate(random_cubic(12, seed=1)),
    lambda: inflate(random_cubic(12, seed=4)),
    lambda: relabelled_necklace(172),
    lambda: relabelled_necklace(63),
], ids=["prism", "necklace2", "necklace4", "inflate-k4", "inflate-rc10-2", "inflate-rc8-3",
        "inflate-rc12-1", "inflate-rc12-4", "necklace3-p172", "necklace3-p63"])
def test_every_step_is_the_reference_first_move(make):
    # every step of the run, not only one mid-run point: the move taken is
    # the brute-force first improving move around the first surviving triangle
    g = make()
    assert g.n <= 36 and not k4_component_vertices(g)
    _, trace = break_triangles(g)
    for k, am in enumerate(trace):
        pair = recompute_pair(g, *sides_after(trace[:k]))
        assert am.move == reference_moves(g, pair, surviving_triangles(g, pair)[0])[0]


def forcing_conditions(g, m, r, side):
    """Why move m must remove r from side: 1 when an addition on that side lies
    within distance 2 of r, 3 when r shares a triangle with an addition on the
    other side, "switch" when r itself is added on the other side."""
    d = oracles.cached_distances(g)
    out = set()
    for v, s in [(v, "a") for v in m.add_a] + [(v, "b") for v in m.add_b]:
        if s == side and d[r][v] <= 2:
            out.add(1)
        elif s != side and r == v:
            out.add("switch")
        elif s != side and any({r, v} <= set(t) for t in oracles.cached_triangles(g)):
            out.add(3)
    return out


def removals_and_reasons(g, pair, t):
    """Each reference move around t with the forcing conditions of each of
    its removals, in oracles.move_sort_key order."""
    return [(m, [forcing_conditions(g, m, r, side) for r, side in
                 sorted((r, side) for r, side in ((m.remove_a, "a"), (m.remove_b, "b"))
                        if r is not None)])
            for m in reference_moves(g, pair, t)]


def test_first_move_cases_reach_every_removal_rule():
    # cases of test_first_move_sound that reach each removal rule: the
    # mid-run pair on diamond_strings(40, 1, 0.3, 3) has a removal forced by
    # condition (3) alone, and two-removal moves whose unforced extra removal
    # sorts before the forced one; the necklace pair has moves whose two
    # removals are both unforced extras
    g = oracles.diamond_strings(40, 1, 0.3, 3)
    a, b, t = mid_run(g)
    moves = removals_and_reasons(g, recompute_pair(g, a, b), t)
    assert any(why == {3} for _, whys in moves for why in whys)
    assert any(len(whys) == 2 and not whys[0] and whys[1] for _, whys in moves)
    assert search_at(g, a, b).first_move(t) == moves[0][0]
    g = diamond_necklace(4)
    moves = removals_and_reasons(g, recompute_pair(g, {1}, {5, 9}), (0, 2, 3))
    assert any(whys == [set(), set()] for _, whys in moves)
    assert search_at(g, {1}, {5, 9}).first_move((0, 2, 3)) == moves[0][0]


def reference_forced(g, a, b, v, side):
    """The removals that adding v to side ("a" or "b") forces, as (vertex,
    side) pairs, by brute force: the members of that side within distance 2
    of v, and on the other side v itself and the chosen vertices sharing a
    triangle with v."""
    d = oracles.cached_distances(g)
    tris = oracles.cached_triangles(g)
    own, other, flip = (a, b, "b") if side == "a" else (b, a, "a")
    return ({(r, side) for r in own if d[r][v] <= 2}
            | {(r, flip) for r in other if any({r, v} <= set(tri) for tri in tris)})


def merge_rules(g, pair, t, moves):
    """The rules for merging two additions' forced removals that the
    reference moves around t reach.  Brute force over pairs of addition
    items (vertex, side) near t, in Move.sort_key order, that a move may
    hold together and that each force at most one removal per side:
      "collision": they force distinct removals on one side, so no move adds
        both, though the additions outweigh all the removals they force;
      "shared": they force one removal in common, and a move adds both,
        which a second count of that removal would outweigh;
      "heavy": the first item's forced removals outweigh it by exactly 1,
        and a move adds it together with a HEAVY second item."""
    d = oracles.cached_distances(g)
    tris = oracles.cached_triangles(g)

    def weight(vs):
        return recompute_pair(g, set(vs), ()).weight

    def vertices(removals):
        return {r for r, _ in removals}

    adding_both = {(m.add_a, m.add_b) for m in moves}
    near_t = [v for v in sorted({v for tri in tris for v in tri}) if min(d[v][x] for x in t) <= 3]
    items = [(v, s) for v in near_t for s in "ab" if v not in (pair.a if s == "a" else pair.b)]
    forced = {x: reference_forced(g, pair.a, pair.b, *x) for x in items}
    rules = set()
    for x, y in itertools.combinations(items, 2):
        (v, sx), (u, sy) = x, y
        fx, fy = forced[x], forced[y]
        if (u == v or any({u, v} <= set(tri) for tri in tris) or (sx == sy and d[u][v] <= 2)
                or len(vertices(fx)) != len({s for _, s in fx})
                or len(vertices(fy)) != len({s for _, s in fy})):
            continue  # never held together, or one item is dropped alone
        both = (tuple(z for z, s in (x, y) if s == "a"), tuple(z for z, s in (x, y) if s == "b"))
        if len({s for _, s in fx | fy}) < len(fx | fy):
            assert both not in adding_both
            if weight({v, u}) > weight(vertices(fx | fy)):
                rules.add("collision")
        elif both in adding_both:
            if fx & fy and weight({v, u}) <= weight(vertices(fx)) + weight(vertices(fy)):
                rules.add("shared")
            if weight({v}) - weight(vertices(fx)) == -1 and weight({u}) == HEAVY:
                rules.add("heavy")
    return rules


@pytest.mark.parametrize("make,part,rule", [
    (lambda: oracles.diamond_strings(40, 1, 0.3, 5), 2, "collision"),
    (lambda: inflate(random_cubic(8, seed=3)), 4, "shared"),
    (lambda: oracles.diamond_strings(40, 1, 0.3, 0), 4, "heavy"),
])
def test_first_move_cases_reach_every_merge_rule(make, part, rule):
    # the pair merge in first_move rejects a combo whose additions force
    # two distinct removals on one side, counts a removal forced by both
    # additions once, and pairs a first item with spare weight -1 only with
    # HEAVY partners; each case reaches one of these rules
    g = make()
    a, b, t = mid_run(g, part)
    pair = recompute_pair(g, a, b)
    moves = reference_moves(g, pair, t)
    assert rule in merge_rules(g, pair, t, moves)
    assert search_at(g, a, b).first_move(t) == moves[0]


@pytest.mark.parametrize("make,part", [
    (lambda: inflate(random_cubic(12, seed=4)), 2),
    (lambda: oracles.diamond_strings(40, 1, 0.3, 1), 4),
])
def test_first_move_cases_reach_extra_removals(make, part):
    # on these cases some additions have several moves, one per affordable
    # extra removal; the search takes the first of them all
    g = make()
    a, b, t = mid_run(g, part)
    pair = recompute_pair(g, a, b)
    moves = reference_moves(g, pair, t)
    per_addition = collections.Counter((m.add_a, m.add_b) for m in moves)
    assert max(per_addition.values()) > 1
    assert search_at(g, a, b).first_move(t) == moves[0]


def test_break_k4_frozen():
    pair, trace = break_triangles(k4())
    assert (sorted(pair.a), sorted(pair.b)) == ([0], [1])
    assert pair.weight == 4 and pair.surviving == 0
    assert oracles.reference_lemma_records(trace) == [
        {"removeA": None, "removeB": None, "addA": [0], "addB": [1],
         "w_before": 0, "w_after": 4, "gamma_after": 0},
    ]


def test_break_prism_frozen():
    pair, trace = break_triangles(prism())
    assert (sorted(pair.a), sorted(pair.b)) == ([3], [0])
    assert oracles.reference_lemma_records(trace) == [
        {"removeA": None, "removeB": None, "addA": [0], "addB": [],
         "w_before": 0, "w_after": 1, "gamma_after": 1},
        {"removeA": 0, "removeB": None, "addA": [3], "addB": [0],
         "w_before": 1, "w_after": 2, "gamma_after": 0},
    ]


def test_break_triangle_free_graphs():
    for g in (petersen(), k33()):
        pair, trace = break_triangles(g)
        assert pair.a == frozenset() and pair.b == frozenset()
        assert pair.surviving == 0 and trace == []


def test_break_necklace_and_inflation_frozen():
    pair, trace = break_triangles(diamond_necklace(2))
    assert (sorted(pair.a), sorted(pair.b)) == ([2], [6])
    assert pair.weight == 4 and len(trace) == 4
    pair, trace = break_triangles(inflate(k4()))
    assert (sorted(pair.a), sorted(pair.b)) == ([3, 6, 9], [0])
    assert pair.weight == 4 and len(trace) == 4


# the moves of break_triangles(relabelled_necklace(p)), frozen before the
# search computed only the move it takes
RELABELLED_NECKLACE_MOVES = {
    172: [((0,), (), None, None), ((1,), (0,), 0, None), ((3,), (1,), 1, 0),
          ((0,), (3,), 3, None), ((1,), (7,), 0, 1), ((2,), (), 1, None)],
    63: [((0,), (), None, None), ((1,), (), None, None), ((), (0, 2), 0, None),
         ((0,), (7,), None, 0), ((6,), (3,), 1, 2)],
}


@pytest.mark.parametrize("p,taken,extra", [
    # an unforced extra removal sorts before the forced one: the move takes it
    (172, [set(), {"switch"}], [set(), {"switch"}]),
    # an affordable extra sorts after the forced removal: the move does not
    (63, [{1, "switch"}], [{1, "switch"}, set()]),
])
def test_break_relabelled_necklace_frozen(p, taken, extra):
    # a step removes more than its additions force only when one removal is
    # forced and an affordable chosen vertex on the free side sorts before
    # it.  Each run has a step whose move has the taken forcing conditions
    # (per removal, in removal order) and whose additions have exactly one
    # move with two removals, with the extra forcing conditions
    g = relabelled_necklace(p)
    pair, trace = break_triangles(g)
    assert [am.move for am in trace] == RELABELLED_NECKLACE_MOVES[p]
    assert pair.surviving == 0
    steps = []
    for k, am in enumerate(trace):
        before = recompute_pair(g, *sides_after(trace[:k]))
        moves = removals_and_reasons(g, before, surviving_triangles(g, before)[0])
        steps.append((dict(moves)[am.move],
                      [whys for m, whys in moves if m[:2] == am.move[:2] and len(whys) == 2]))
    assert (taken, [extra]) in steps


# (diamond_strings arguments, relabelling seed): n, steps and the sha256 of the
# trace records of break_triangles on that graph relabelled by
# oracles.random_perm, frozen before the search computed only the move it takes
RELABELLED_DIAMOND_STRING_TRACES = {
    ((4, 0, 0.5, 4), 1): (32, 10, "11013515a4c3deb9077da9fe218b0705d38df44244406d4613555a91abfb2ff3"),
    ((6, 1, 0.5, 6), 44): (50, 19, "019ca1bb87c13e0c3c1f1d2b9945b1dae92a3751c576248624e425969d3bf6e4"),
}


@pytest.mark.parametrize("args,p", sorted(RELABELLED_DIAMOND_STRING_TRACES),
                         ids=["n32-heavy-unaffordable", "n50-two-extras"])
def test_break_relabelled_diamond_strings_frozen(args, p):
    # the edges of the extra-removal rule: on the first graph a step with one
    # forced removal r and slack 2 has a HEAVY chosen vertex x < r within
    # reach, which the slack does not afford; on the second a step has two
    # affordable extras below r, and takes the least
    g = oracles.diamond_strings(*args)
    g = oracles.permute(g, oracles.random_perm(g.n, p))
    pair, trace = break_triangles(g)
    n, steps, digest = RELABELLED_DIAMOND_STRING_TRACES[args, p]
    assert (g.n, len(trace), pair.surviving) == (n, steps, 0)
    records = json.dumps(oracles.reference_lemma_records(trace), sort_keys=True)
    assert hashlib.sha256(records.encode()).hexdigest() == digest


def test_break_rejects_non_cubic():
    with pytest.raises(NotCubic) as e:
        break_triangles(cycle(5))
    assert e.value.degree == 2
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(NotCubic):
        break_triangles(g)


def test_break_k4_components_placed_pairwise():
    g = oracles.disjoint_union(k4(), k4())
    pair, trace = break_triangles(g)
    assert (sorted(pair.a), sorted(pair.b)) == ([0, 4], [1, 5])
    assert len(trace) == 2 and pair.surviving == 0

    g = oracles.disjoint_union(k4(), prism())
    pair, trace = break_triangles(g)
    assert pair.a & {0, 1, 2, 3} == {0}
    assert pair.b & {0, 1, 2, 3} == {1}
    assert pair.surviving == 0
    assert essential_violations(g, pair.a, pair.b) == []


@pytest.mark.parametrize("k", [0, 1, 5])
def test_stuck_carries_the_pair_and_first_survivor(monkeypatch, k):
    g = inflate(random_cubic(10, seed=2))  # no K4 component: every step searches
    _, trace = break_triangles(g)
    assert len(trace) > k
    expected = recompute_pair(g, *sides_after(trace[:k]))
    first_move = _Search.first_move
    searches = []

    def stall_after_k_steps(self, t):
        searches.append(t)
        return first_move(self, t) if len(searches) <= k else None

    monkeypatch.setattr(_Search, "first_move", stall_after_k_steps)
    with pytest.raises(Stuck) as e:
        break_triangles(g)
    assert e.value.pair == expected  # sides, weight and survivor count
    assert e.value.triangle == surviving_triangles(g, expected)[0]
    assert searches[-1] == e.value.triangle


# sha256 of the trace records of break_triangles(diamond_strings(base_n, 1, 0.3, 7)),
# taken from the breaker that rescanned every triangle on every step (n ~ 10^3
# and 10^4) and from the one whose removal-set generator also rejected combos
# (n ~ 10^5), before the search computed only the move it takes
DIAMOND_STRING_TRACES = {
    160: (996, 418, "30ffaea98b941dcc320bc89825c34c0de5c93ddf70e344fdc3b39ca6586d2ea2"),
    1600: (10720, 4560, "6f2a52eb8f31f457891c87b2c22d78eb2c97a2eec2c31e2e2cb6d49dc71cf78a"),
    16000: (106128, 45064, "04b3469b87ca560f99e76282ab5f831d315f9e6adcf459aa94f05403e66487e7"),
}


@pytest.mark.parametrize("base_n", sorted(DIAMOND_STRING_TRACES))
def test_breaker_work_per_step_is_bounded(monkeypatch, base_n):
    # counts, not timings: addition items settled per step stay below a
    # constant from n ~ 10^3 to n ~ 10^5, each step hands exactly one combo
    # to _move (these graphs have no K4 component, so every step searches,
    # and only a combo with a move reaches it), and the pair is built whole
    # only at the end.  Every step settles at least its move's first item,
    # so a settlement that bypasses _forced cannot pass.  The paper's counts
    # hold at every size: the breaker ends at weight T, the number of
    # triangles, in at most T steps, and every unchosen vertex keeps at most
    # two unchosen neighbours (ROADMAP item 13).
    g = oracles.diamond_strings(base_n, 1, 0.3, 7)
    forced, move = _Search._forced, _Search._move
    counts = {"settled": 0, "combos": 0, "pairs": 0}

    def counted_forced(self, *args):
        counts["settled"] += 1
        return forced(self, *args)

    def counted_move(self, *args):
        counts["combos"] += 1
        return move(self, *args)

    class CountedPair(PackingPair):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            counts["pairs"] += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(_Search, "_forced", counted_forced)
    monkeypatch.setattr(_Search, "_move", counted_move)
    monkeypatch.setattr(triangle_break, "PackingPair", CountedPair)
    pair, trace = break_triangles(g)
    n, steps, digest = DIAMOND_STRING_TRACES[base_n]
    assert (g.n, len(trace), pair.surviving) == (n, steps, 0)
    assert steps <= counts["settled"] <= 12 * steps
    assert counts["combos"] == steps
    assert counts["pairs"] == 1
    triangles = len(list_triangles(g))
    assert pair.weight == triangles and len(trace) <= triangles
    chosen = pair.marked
    assert all(sum(w not in chosen for w in g.adj[v]) <= 2
               for v in range(g.n) if v not in chosen)
    records = json.dumps(oracles.reference_lemma_records(trace), sort_keys=True)
    assert hashlib.sha256(records.encode()).hexdigest() == digest


def replay_and_check(g, trace, final_pair):
    a: set[int] = set()
    b: set[int] = set()
    prev_w = 0
    for am in trace:
        m = am.move
        assert am.weight_before == prev_w
        adds = list(m.add_a) + list(m.add_b)
        assert 1 <= len(adds) <= 2
        if m.remove_a is not None:
            a.remove(m.remove_a)
        if m.remove_b is not None:
            b.remove(m.remove_b)
        for v in m.add_a:
            assert v not in a and v not in b
            a.add(v)
        for v in m.add_b:
            assert v not in a and v not in b
            b.add(v)
        # conditions (1)(2)(3) hold after every applied move, K4 cores aside
        assert essential_violations(g, a, b) == []
        state = recompute_pair(g, a, b)
        assert state.weight == am.weight_after
        assert state.surviving == am.surviving_after
        assert am.weight_after > am.weight_before  # strict ascent
        prev_w = am.weight_after
    assert a == set(final_pair.a) and b == set(final_pair.b)
    # one chosen vertex on each triangle, and a vertex weighs its triangle
    # count (K4 components: two vertices of weight 2, four triangles), so
    # the final weight is T, and strict ascent bounds the steps by it
    triangles = len(list_triangles(g))
    assert final_pair.weight == triangles
    assert len(trace) <= triangles


@pytest.mark.parametrize("n,seed", [(n, s) for n in (8, 12, 16, 20) for s in range(5)])
def test_break_invariants_random_cubic(n, seed):
    g = random_cubic(n, seed=seed)
    pair, trace = break_triangles(g)
    assert pair.surviving == 0
    here = recompute_pair(g, pair.a, pair.b)
    assert (here.weight, here.surviving) == (pair.weight, pair.surviving)
    replay_and_check(g, trace, pair)


def all_valid_pairs(g, fixed_a=frozenset(), fixed_b=frozenset()):
    """Every valid packing pair extending the fixed placement, brute force."""
    free = [v for v in sorted({v for t in oracles.cached_triangles(g) for v in t})
            if v not in fixed_a and v not in fixed_b
            and v not in k4_component_vertices(g)]
    for assignment in itertools.product((None, "a", "b"), repeat=len(free)):
        a = set(fixed_a) | {v for v, x in zip(free, assignment) if x == "a"}
        b = set(fixed_b) | {v for v, x in zip(free, assignment) if x == "b"}
        if essential_violations(g, a, b) == []:
            yield a, b


@pytest.mark.parametrize("make,fixed", [
    (prism, (frozenset(), frozenset())),
    (lambda: oracles.disjoint_union(k4(), prism()), (frozenset({0}), frozenset({1}))),
])
def test_every_valid_pair_with_survivors_admits_a_move(make, fixed):
    # a stall would need a valid pair with surviving triangles and no
    # improving move anywhere near them; there is none on these graphs, and
    # around each survivor the search finds the brute-force first move
    g = make()
    seen = 0
    for a, b in all_valid_pairs(g, *fixed):
        pair = recompute_pair(g, a, b)
        if pair.surviving == 0:
            continue
        seen += 1
        search = search_at(g, a, b)
        assert search.pair() == pair
        moves = [search.first_move(t) for t in surviving_triangles(g, pair)]
        assert moves == [(reference_moves(g, pair, t) or [None])[0]
                         for t in surviving_triangles(g, pair)]
        assert any(moves), f"no improving move from a={sorted(a)} b={sorted(b)}"
    assert seen > 0


def test_applied_move_record_shape():
    am = AppliedMove(Move(add_a=(3,), add_b=(0,), remove_a=0), 1, 2, 0)
    assert oracles.reference_lemma_records([am]) == [{
        "removeA": 0, "removeB": None, "addA": [3], "addB": [0],
        "w_before": 1, "w_after": 2, "gamma_after": 0,
    }]


def test_step_records_are_frozen_and_hash_by_their_fields():
    # every record the package returns: the step records and the six others,
    # each with its fields and the repr the frozen dataclasses they replaced
    # wrote, pinned
    m = Move(add_a=(3,), add_b=(0,), remove_a=0)
    am = AppliedMove(m, 1, 2, 0)
    add = Addition(5, "A", 7)
    records = [
        (m, ((3,), (0,), 0, None), "Move(add_a=(3,), add_b=(0,), remove_a=0, remove_b=None)"),
        (am, (m, 1, 2, 0), "AppliedMove(move=Move(add_a=(3,), add_b=(0,), remove_a=0, "
                           "remove_b=None), weight_before=1, weight_after=2, surviving_after=0)"),
        (build_graph(3, [(0, 1), (1, 2)]), (3, ((1,), (0, 2), (1,))),
         "Graph(n=3, adj=((1,), (0, 2), (1,)))"),
        (SSpec((1, 1, 2, 2)), ((1, 1, 2, 2),), "SSpec(values=(1, 1, 2, 2))"),
        (Violation(0, 2, 3, 2), (0, 2, 3, 2), "Violation(u=0, v=2, class_index=3, dist=2)"),
        (PackingPair(frozenset({3}), frozenset({0}), 2, 0), (frozenset({3}), frozenset({0}), 2, 0),
         "PackingPair(a=frozenset({3}), b=frozenset({0}), weight=2, surviving=0)"),
        (add, (5, "A", 7), "Addition(vertex=5, side='A', cycle_length=7)"),
        (ReductionState(frozenset({0}), frozenset(), (0, 1, 0)),
         (frozenset({0}), frozenset(), (0, 1, 0)),
         "ReductionState(ext_a=frozenset({0}), ext_b=frozenset(), color=(0, 1, 0))"),
        (OracleResult("unknown", reason="cap"), ("unknown", None, "cap"),
         "OracleResult(status='unknown', coloring=None, reason='cap')"),
    ]
    for record, fields, text in records:
        cls = type(record)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dict
        # the hash of the tuple of the fields, equality by fields, the same repr
        assert hash(record) == hash(fields)
        assert record == cls(*fields) == fields
        assert {record, cls(*fields)} == {record}
        assert repr(record) == text
        # --jobs sends results between processes
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls and back == record
    assert Move() == Move((), (), None, None)
    assert OracleResult("no") == OracleResult("no", None, None)
    assert m != Move((3,), (0,), None) and am != AppliedMove(m, 1, 2, 1)
    assert str(Violation(0, 2, 3, 2)) == "vertices 0 and 2 share class 3 at distance 2"
    # an SSpec is validated whenever it is built
    for values, error in (((), EmptySpec), ((1, 0), NotPositive), ((1, "2"), NotPositive),
                          ((2, 1), NotNonDecreasing)):
        with pytest.raises(error):
            SSpec(values)
        with pytest.raises(error):
            SSpec(values=values)


@settings(max_examples=80, deadline=None)
@given(st.one_of(oracles.cubic_graphs(max_n=20), oracles.cubic_graphs(max_n=12).map(inflate),
                 st.integers(2, 6).map(diamond_necklace), st.just(k4()),
                 st.just(oracles.disjoint_union(k4(), prism()))))
def test_near_reads_three_balls_for_nine(g):
    # the balls of t's three neighbours off t cover the balls of the nine
    # vertices on t's adjacency tuples, K4 and diamonds included
    search = _Search(g)
    for t in search.triangles:
        nine = set().union(*[search.ball2[u] for x in t for u in g.adj[x]])
        assert search.near(t) == nine == set(bfs_distances(g, t, 3))


def test_pair_is_frozen():
    pair = recompute_pair(prism(), {3}, {0})
    assert isinstance(pair, PackingPair)
    with pytest.raises(AttributeError):
        pair.weight = 99  # type: ignore[misc]
