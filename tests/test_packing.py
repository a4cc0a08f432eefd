from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from packfour import packing
from packfour.errors import ClassOutOfRange, EmptySpec, NotNonDecreasing, NotPositive
from packfour.generators import cycle, inflate, k4, k33, petersen, prism
from packfour.graph import build_graph
from packfour.packing import SSpec, Violation, parse_sspec, verify_spacking
from packfour.pipeline import color_claw_free_cubic

import oracles
from oracles import graphs


def test_sspec_validation():
    assert SSpec((1, 1, 2, 2)).r == 4
    with pytest.raises(EmptySpec):
        SSpec(())
    with pytest.raises(NotPositive):
        SSpec((0, 1))
    with pytest.raises(NotPositive):
        SSpec((1, -2))
    with pytest.raises(NotPositive):
        SSpec((1, 1.5))  # type: ignore[arg-type]
    with pytest.raises(NotNonDecreasing) as e:
        SSpec((2, 1))
    assert e.value.values == (2, 1)


def test_parse_sspec():
    assert parse_sspec("1,1,2,2").values == (1, 1, 2, 2)
    assert parse_sspec(" 1 , 2 ").values == (1, 2)
    with pytest.raises(EmptySpec):
        parse_sspec("")
    with pytest.raises(EmptySpec):
        parse_sspec(" , ")
    with pytest.raises(NotPositive) as e:
        parse_sspec("1,b")
    assert e.value.token == "b"
    with pytest.raises(NotNonDecreasing):
        parse_sspec("3,1")


def test_is_k_packing():
    # the bounded-BFS reference the acceptance and reducer tests rely on
    is_k_packing = oracles.is_k_packing
    g = prism()
    assert is_k_packing(g, [], 5)
    assert is_k_packing(g, [2], 5)
    assert is_k_packing(g, [1, 5], 1)  # distance 2
    assert not is_k_packing(g, [1, 5], 2)
    assert not is_k_packing(g, [0, 1], 1)
    assert is_k_packing(k33(), [0, 1, 2], 1)
    assert not is_k_packing(k33(), [0, 1, 2], 2)
    # duplicates collapse to one member
    assert is_k_packing(g, [2, 2], 3)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12), st.data())
def test_is_k_packing_agrees_with_floyd_warshall(g, data):
    s = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=min(g.n, 5)))
    k = data.draw(st.integers(0, 4))
    d = oracles.floyd_warshall(g)
    want = all(d[u][v] > k for u in s for v in s if u != v)
    assert oracles.is_k_packing(g, s, k) == want


def test_verify_accepts_valid_colorings():
    assert verify_spacking(prism(), SSpec((1, 1, 2, 2)), [3, 1, 2, 2, 4, 1]) is None
    # proper 2-coloring of an even cycle is a (1,1) coloring
    assert verify_spacking(cycle(6), SSpec((1, 1)), [1, 2, 1, 2, 1, 2]) is None
    assert verify_spacking(k4(), SSpec((1, 1, 2, 2)), [1, 2, 3, 4]) is None


def test_verify_reports_first_violation():
    # distance 1: (0,2) has distance 2 > 1, so the first bad pair is (0,4)
    v = verify_spacking(cycle(5), SSpec((1, 2)), [1, 2, 1, 2, 1])
    assert v == Violation(0, 4, 1, 1)
    assert "0 and 4" in str(v) and "class 1" in str(v)
    # distance 2 only: the ends of a path share a neighbour
    path3 = build_graph(3, [(0, 1), (1, 2)])
    assert verify_spacking(path3, SSpec((1, 2)), [2, 1, 2]) == Violation(0, 2, 2, 2)
    # distance 3 only: (0,3) comes before the adjacent pair (1,2)
    path4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert verify_spacking(path4, SSpec((3, 3)), [1, 2, 2, 1]) == Violation(0, 3, 1, 3)
    v = verify_spacking(prism(), SSpec((1, 1, 2, 2)), [3, 1, 2, 2, 4, 3])
    assert v is not None and (v.u, v.v, v.class_index) == (0, 5, 3)


def test_verify_input_errors():
    with pytest.raises(ValueError):
        verify_spacking(k4(), SSpec((1, 1, 2, 2)), [1, 2, 3])
    with pytest.raises(ClassOutOfRange) as e:
        verify_spacking(k4(), SSpec((1, 2)), [1, 2, 3, 1])
    assert (e.value.vertex, e.value.class_index) == (2, 3)
    with pytest.raises(ClassOutOfRange):
        verify_spacking(k4(), SSpec((1, 2)), [0, 1, 2, 1])


@st.composite
def random_colorings(draw):
    g = draw(graphs(max_n=10))
    s = draw(st.sampled_from([(1,), (3,), (1, 1), (1, 2), (1, 5), (2, 3),
                              (1, 1, 2, 2), (1, 1, 2, 3), (2, 2, 4, 5)]))
    coloring = draw(st.lists(st.integers(1, len(s)), min_size=g.n, max_size=g.n))
    return g, s, coloring


@st.composite
def one_flip_colorings(draw):
    # a valid coloring with one vertex moved to another class: every violation
    # sits inside the flipped vertex's ball, where a ball scan could go wrong
    g = inflate(draw(oracles.cubic_graphs(max_n=10)))
    coloring, _ = color_claw_free_cubic(g)
    v = draw(st.integers(0, g.n - 1))
    coloring[v] = draw(st.sampled_from([c for c in (1, 2, 3, 4) if c != coloring[v]]))
    return g, (1, 1, 2, 2), coloring


@st.composite
def planted_far_colorings(draw):
    # two vertices at distance 3-5 share a class of exactly that radius and
    # every other vertex has a class of its own, so the one violation lies
    # where only the ball search looks; a pendant path makes such a pair exist
    g = draw(graphs(min_n=1, max_n=8))
    path = [0] + list(range(g.n, g.n + draw(st.integers(3, 5))))
    g = build_graph(path[-1] + 1, list(g.edges()) + list(zip(path, path[1:])))
    dist = oracles.floyd_warshall(g)
    u, v = draw(st.sampled_from([(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                                 if 3 <= dist[u][v] <= 5]))
    others = iter(range(1, g.n - 1))
    coloring = [g.n - 1 if x in (u, v) else next(others) for x in range(g.n)]
    return g, (1,) * (g.n - 2) + (int(dist[u][v]),), coloring


@given(st.one_of(random_colorings(), one_flip_colorings(), planted_far_colorings()))
@settings(max_examples=80)
def test_verify_agrees_with_distance_oracle(case):
    g, s, coloring = case
    got = verify_spacking(g, SSpec(s), coloring)
    assert (got is None) == oracles.spacking_ok(g, s, coloring)
    if got is not None:
        dist = oracles.floyd_warshall(g)
        violating = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if coloring[u] == coloring[v] and dist[u][v] <= s[coloring[u] - 1]]
        assert (got.u, got.v) == min(violating)
        assert got.dist == dist[got.u][got.v]
        assert coloring[got.u] == coloring[got.v] == got.class_index


@given(graphs(max_n=8), st.data())
@settings(max_examples=60)
def test_swapping_equal_classes_preserves_verdict(g, data):
    # (1,1,2,2): classes 1<->2 and 3<->4 have equal radii, swapping is harmless
    if g.n == 0:
        return
    coloring = data.draw(st.lists(st.integers(1, 4), min_size=g.n, max_size=g.n))
    swap = {1: 2, 2: 1, 3: 4, 4: 3}
    swapped = [swap[c] for c in coloring]
    s = SSpec((1, 1, 2, 2))
    assert (verify_spacking(g, s, coloring) is None) == (verify_spacking(g, s, swapped) is None)


def test_singleton_classes_always_pass():
    # every class a singleton: no pair to violate, any spec works
    g = petersen()
    s = SSpec(tuple(range(1, 11)))
    assert verify_spacking(g, s, list(range(1, 11))) is None


@pytest.mark.parametrize("base_n", [160, 1600])
def test_verify_1122_searches_no_ball(monkeypatch, base_n):
    # radii 1 and 2 need no ball search: a valid coloring at n ~ 10^3 and
    # n ~ 10^4 passes with no BFS at all, and single flips are caught with
    # one BFS only, bounded at the violated class's radius, for the distance
    g = oracles.diamond_strings(base_n, 1, 0.3, 7)
    coloring, _ = color_claw_free_cubic(g)
    radii = []
    search = packing.bfs_distances

    def bounded(g, sources, radius):
        radii.append(radius)
        return search(g, sources, radius)

    monkeypatch.setattr(packing, "bfs_distances", bounded)
    s = (1, 1, 2, 2)
    assert verify_spacking(g, SSpec(s), coloring) is None
    assert radii == []
    dists = set()
    for f in range(0, g.n, g.n // 7):
        # the unflipped coloring passes, so every violation of a flip at f
        # involves f and lies in the radius-2 ball around f.  That ball holds
        # every shortest path from f of length at most 2, and distances inside
        # it never undercut the graph's: Floyd-Warshall on it is the reference
        ball = sorted({f, *g.adj[f], *(y for x in g.adj[f] for y in g.adj[x])})
        index = {x: i for i, x in enumerate(ball)}
        sub = build_graph(len(ball), [(index[x], index[y]) for x in ball
                                      for y in g.adj[x] if x < y and y in index])
        dist = oracles.floyd_warshall(sub)
        for k in (1, 2, 3, 4):
            flipped = coloring[:]
            flipped[f] = k
            local = [flipped[x] for x in ball]
            violating = [(ball[i], ball[j], local[i], dist[i][j])
                         for i in range(len(ball)) for j in range(i + 1, len(ball))
                         if local[i] == local[j] and dist[i][j] <= s[local[i] - 1]]
            expected = Violation(*min(violating)) if violating else None
            radii.clear()
            assert verify_spacking(g, SSpec(s), flipped) == expected
            assert radii == ([] if expected is None else [s[expected.class_index - 1]])
            dists.add(None if expected is None else expected.dist)
    assert dists == {None, 1, 2}  # passes, and both routes caught something
