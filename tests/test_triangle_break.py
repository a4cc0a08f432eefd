from __future__ import annotations

import itertools

import pytest

from packfour.errors import NotCubic
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
from packfour.graph import build_graph, components, triangle_membership_counts
from packfour.triangle_break import (
    HEAVY,
    LIGHT,
    AppliedMove,
    Move,
    PackingPair,
    _Search,
    break_triangles,
    enumerate_improving_moves,
)

import oracles
from oracles import check_packing_pair, recompute_pair, surviving_triangles


def k4_component_vertices(g) -> set[int]:
    out: set[int] = set()
    for comp in components(g):
        if len(comp) == 4 and all(g.has_edge(u, v)
                                  for u, v in itertools.combinations(comp, 2)):
            out.update(comp)
    return out


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
    # side a sorts before side b at the same vertex; vertices dominate sides
    assert Move(add_a=(0,)).sort_key() < Move(add_b=(0,)).sort_key()
    assert Move(add_b=(0,)).sort_key() < Move(add_a=(3,)).sort_key()
    # a single addition precedes any two-addition move extending it
    assert Move(add_a=(0,)).sort_key() < Move(add_a=(0, 3)).sort_key()
    # removals break ties after additions, no-removal first
    assert Move(add_a=(5,)).sort_key() < Move(add_a=(5,), remove_a=2).sort_key()
    assert (Move(add_a=(5,), remove_a=1).sort_key()
            < Move(add_a=(5,), remove_b=1).sort_key())


def test_enumerate_requires_surviving_triangle():
    g = prism()
    pair = recompute_pair(g, {0}, set())
    with pytest.raises(ValueError):
        next(enumerate_improving_moves(g, pair, (0, 1, 2)))


def test_enumerate_first_moves_frozen():
    g = prism()
    empty = recompute_pair(g, set(), set())
    first = next(enumerate_improving_moves(g, empty, (0, 1, 2)))
    assert first == Move(add_a=(0,))
    half = recompute_pair(g, {0}, set())
    first = next(enumerate_improving_moves(g, half, (3, 4, 5)))
    # single additions near the surviving triangle are all blocked by vertex 0,
    # so the canonical move swaps 0 to side b while claiming 3 for side a
    assert first == Move(add_a=(3,), add_b=(0,), remove_a=0)


def mid_run(g):
    """The sides a, b halfway through break_triangles(g), and their first
    surviving triangle."""
    _, trace = break_triangles(g)
    a: set[int] = set()
    b: set[int] = set()
    for am in trace[:len(trace) // 2]:
        m = am.move
        a = (a - {m.remove_a}) | set(m.add_a)
        b = (b - {m.remove_b}) | set(m.add_b)
    return a, b, surviving_triangles(g, recompute_pair(g, a, b))[0]


def reference_moves(g, pair, t):
    """Every move shape around t, brute force, kept when valid and strictly
    improving, in Move.sort_key order."""
    d = oracles.floyd_warshall(g)
    counts = triangle_membership_counts(g)
    near_t = [v for v in range(g.n) if counts[v] >= 1 and min(d[v][x] for x in t) <= 3]
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
                        if (essential_violations(g, na, nb) == []
                                and recompute_pair(g, na, nb).weight > pair.weight):
                            out.append(Move(add_a, add_b, ra, rb))
    return sorted(out, key=Move.sort_key)


@pytest.mark.parametrize("setup", [
    (prism, set(), set(), (0, 1, 2)),
    (prism, {0}, set(), (3, 4, 5)),
    (lambda: diamond_necklace(2), {0}, set(), (4, 6, 7)),
    (lambda: inflate(k4()), {0}, set(), (3, 4, 5)),
    (lambda: inflate(random_cubic(10, seed=2)), None, None, None),  # mid-run pair
])
def test_enumerate_stream_sound(setup):
    make, a, b, t = setup
    g = make()
    if t is None:
        a, b, t = mid_run(g)
    pair = recompute_pair(g, a, b)
    moves = list(enumerate_improving_moves(g, pair, t))
    assert moves
    # complete: exactly the valid strictly improving moves, in canonical order
    assert moves == reference_moves(g, pair, t)
    keys = [m.sort_key() for m in moves]
    assert keys == sorted(keys)
    assert len(set(moves)) == len(moves)
    near_t = oracles.floyd_warshall(g)
    for m in moves:
        adds = list(m.add_a) + list(m.add_b)
        assert 1 <= len(adds) <= 2 and len(set(adds)) == len(adds)
        # additions stay within distance 3 of the target triangle
        for v in adds:
            assert min(near_t[v][x] for x in t) <= 3
        # removals come from their own side, within distance 2 of an addition
        for r, side in ((m.remove_a, a), (m.remove_b, b)):
            if r is not None:
                assert r in side
                assert min(near_t[r][v] for v in adds) <= 2
        na = (set(a) - {m.remove_a}) | set(m.add_a)
        nb = (set(b) - {m.remove_b}) | set(m.add_b)
        assert essential_violations(g, na, nb) == []
        result = recompute_pair(g, na, nb)
        assert (result.weight > pair.weight
                or (result.weight == pair.weight and result.surviving < pair.surviving))


def test_break_k4_frozen():
    pair, trace = break_triangles(k4())
    assert (sorted(pair.a), sorted(pair.b)) == ([0], [1])
    assert pair.weight == 4 and pair.surviving == 0
    assert [am.to_record() for am in trace] == [
        {"removeA": None, "removeB": None, "addA": [0], "addB": [1],
         "w_before": 0, "w_after": 4, "gamma_after": 0},
    ]


def test_break_prism_frozen():
    pair, trace = break_triangles(prism())
    assert (sorted(pair.a), sorted(pair.b)) == ([3], [0])
    assert [am.to_record() for am in trace] == [
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
    assert len(trace) <= 2 * g.n


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
    free = [v for v, c in enumerate(triangle_membership_counts(g))
            if c >= 1 and v not in fixed_a and v not in fixed_b
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
    # improving move anywhere near them; there is none on these graphs
    g = make()
    seen = 0
    for a, b in all_valid_pairs(g, *fixed):
        pair = recompute_pair(g, a, b)
        if pair.surviving == 0:
            continue
        seen += 1
        assert any(
            next(enumerate_improving_moves(g, pair, t), None) is not None
            for t in surviving_triangles(g, pair)
        ), f"no improving move from a={sorted(a)} b={sorted(b)}"
    assert seen > 0


def test_applied_move_record_shape():
    am = AppliedMove(Move(add_a=(3,), add_b=(0,), remove_a=0), 1, 2, 0)
    assert am.to_record() == {
        "removeA": 0, "removeB": None, "addA": [3], "addB": [0],
        "w_before": 1, "w_after": 2, "gamma_after": 0,
    }


def test_pair_is_frozen():
    pair = recompute_pair(prism(), {3}, {0})
    assert isinstance(pair, PackingPair)
    with pytest.raises(AttributeError):
        pair.weight = 99  # type: ignore[misc]
