from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from packfour import generators
from packfour.errors import BadParameter, NotCubic, RetryLimit, UnknownName
from packfour.generators import (
    cycle,
    diamond_necklace,
    inflate,
    k4,
    k33,
    named_graph,
    petersen,
    prism,
    problem1_family,
    random_cubic,
    vertices_on_cycle_3_or_4,
)
from packfour.graph import find_claw, is_cubic, list_triangles

import oracles


def is_connected(g):
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from(g.edges())
    return nx.is_connected(nxg)


def test_fixture_shapes():
    assert (k4().n, k4().m) == (4, 6)
    assert (prism().n, prism().m) == (6, 9)
    assert (petersen().n, petersen().m) == (10, 15)
    assert (k33().n, k33().m) == (6, 9)
    for g in (k4(), prism(), petersen(), k33()):
        assert is_cubic(g)
    # petersen has girth 5: triangle-free and no 4-cycles
    assert list_triangles(petersen()) == []
    assert vertices_on_cycle_3_or_4(petersen()) == [False] * 10


def test_cycle():
    g = cycle(5)
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(BadParameter):
        cycle(2)


def test_diamond_necklace():
    g = diamond_necklace(2)
    assert g.n == 8 and is_cubic(g)
    assert sorted(g.edges()) == [
        (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4),
        (2, 3), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    ]
    with pytest.raises(BadParameter):
        diamond_necklace(1)
    for k in (2, 3, 5, 8):
        g = diamond_necklace(k)
        assert g.n == 4 * k and is_cubic(g)
        assert find_claw(g) is None
        assert is_connected(g)
        # the two hub vertices of each diamond sit in two triangles
        assert len(list_triangles(g)) == 2 * k


def test_inflate_frozen():
    g = inflate(k4())
    assert g.n == 12 and g.m == 18 and is_cubic(g)
    assert find_claw(g) is None
    assert len(list_triangles(g)) == 4
    big = inflate(petersen())
    assert big.n == 30 and big.m == 45
    assert find_claw(big) is None
    # determinism: construction does not depend on dict order or randomness
    assert sorted(inflate(k4()).edges()) == sorted(g.edges())


def test_inflate_rejects_non_cubic():
    with pytest.raises(NotCubic):
        inflate(cycle(6))


@given(st.sampled_from([4, 6, 8, 10, 12]), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_inflate_of_random_cubic_is_claw_free_cubic(n, seed):
    g = inflate(random_cubic(n, seed=seed))
    assert g.n == 3 * n and is_cubic(g)
    assert find_claw(g) is None
    # every vertex of an inflation lies in its gadget triangle
    assert {v for t in oracles.brute_triangles(g) for v in t} == set(range(g.n))


def test_named_graph():
    assert sorted(named_graph("K4").edges()) == sorted(k4().edges())
    assert named_graph("c5").n == 5
    assert named_graph("C_7").n == 7
    assert named_graph("necklace3").n == 12
    assert named_graph("diamond-necklace_4").n == 16
    assert named_graph(" prism ").n == 6
    with pytest.raises(UnknownName):
        named_graph("dodecahedron")
    with pytest.raises(UnknownName):
        named_graph("c")


def test_random_cubic_determinism():
    a = random_cubic(12, seed=5)
    b = random_cubic(12, seed=5)
    assert sorted(a.edges()) == sorted(b.edges())
    assert is_cubic(a)
    others = [sorted(random_cubic(12, seed=s).edges()) for s in range(6)]
    assert any(e != sorted(a.edges()) for e in others)


def test_random_cubic_small_cases(monkeypatch):
    # the only simple cubic graph on 4 vertices is K4
    assert sorted(random_cubic(4, seed=99).edges()) == sorted(k4().edges())
    with pytest.raises(BadParameter):
        random_cubic(5, seed=0)
    with pytest.raises(BadParameter):
        random_cubic(2, seed=0)
    monkeypatch.setattr(generators, "MAX_RETRIES", 0)
    with pytest.raises(RetryLimit):
        random_cubic(10, seed=0)


def test_random_cubic_connected_flag():
    for seed in range(10):
        g = random_cubic(16, seed=seed, connected=True)
        assert is_connected(g)


def test_vertices_on_cycle_3_or_4():
    assert vertices_on_cycle_3_or_4(prism()) == [True] * 6
    assert vertices_on_cycle_3_or_4(k33()) == [True] * 6  # 4-cycles everywhere
    assert vertices_on_cycle_3_or_4(cycle(4)) == [True] * 4
    assert vertices_on_cycle_3_or_4(cycle(5)) == [False] * 5
    g = oracles.disjoint_union(cycle(4), cycle(6))
    assert vertices_on_cycle_3_or_4(g) == [True] * 4 + [False] * 6


def test_problem1_family():
    g = problem1_family(4, seed=0)
    # two triangle gadgets (3 vertices) and two K_{2,3} gadgets (5 vertices)
    assert g.n == 16 and is_cubic(g)
    assert all(vertices_on_cycle_3_or_4(g))
    assert sorted(problem1_family(4, seed=0).edges()) == sorted(g.edges())
    h = problem1_family(6, seed=3)
    assert h.n == 3 * 3 + 5 * 3 and is_cubic(h)
    assert all(vertices_on_cycle_3_or_4(h))
    with pytest.raises(BadParameter):
        problem1_family(7, seed=0)
