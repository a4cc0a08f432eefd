from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packfour.errors import DuplicateEdge, SelfLoop, VertexOutOfRange
from packfour.generators import cycle, k4, k33, petersen, prism, problem1_family, random_cubic
from packfour.graph import (
    INF,
    bfs_distances,
    build_graph,
    components,
    find_claw,
    induced_subgraph,
    is_cubic,
    list_triangles,
    shortest_odd_cycle,
    triangle_membership_counts,
    two_coloring,
    vertices_within,
)
from packfour.odd_cycle import reduce_odd_cycles
from packfour.triangle_break import break_triangles

import oracles
from oracles import graphs


def test_build_graph_validates():
    with pytest.raises(SelfLoop):
        build_graph(3, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (0, 1)])
    # reversed orientation is still the same edge
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(VertexOutOfRange):
        build_graph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        build_graph(3, [(-1, 0)])


def test_graph_basics():
    g = prism()
    assert g.n == 6
    assert g.m == 9
    assert [g.degree(v) for v in g.vertices()] == [3] * 6
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 4)
    # edges come out sorted with u < v
    assert list(g.edges()) == sorted(g.edges())
    assert all(u < v for u, v in g.edges())
    # adjacency lists are sorted tuples
    assert all(list(g.adj[v]) == sorted(g.adj[v]) for v in g.vertices())


def test_bfs_distances_prism():
    assert bfs_distances(prism(), 0) == [0, 1, 1, 1, 2, 2]


def test_bfs_unreachable_is_inf():
    g = build_graph(4, [(0, 1)])
    d = bfs_distances(g, 0)
    assert d[0] == 0 and d[1] == 1
    assert d[2] is INF and d[3] is INF
    assert math.isinf(d[2])


@given(graphs(max_n=9))
@settings(max_examples=60)
def test_bfs_agrees_with_floyd_warshall(g):
    fw = oracles.floyd_warshall(g)
    for s in g.vertices():
        d = bfs_distances(g, s)
        for v in g.vertices():
            assert (d[v] is INF) == (fw[s][v] == oracles.INF)
            if d[v] is not INF:
                assert d[v] == fw[s][v]


def test_vertices_within():
    g = prism()
    assert vertices_within(g, [0], 0) == {0}
    assert vertices_within(g, [0], 1) == {0, 1, 2, 3}
    assert vertices_within(g, [0], 2) == set(range(6))
    assert vertices_within(g, [], 2) == set()
    assert vertices_within(g, [0, 4], 1) == {0, 1, 2, 3, 4, 5}


def test_list_triangles_frozen():
    assert list_triangles(prism()) == [(0, 1, 2), (3, 4, 5)]
    assert list_triangles(petersen()) == []
    assert list_triangles(k4()) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


@given(graphs(max_n=10))
@settings(max_examples=60)
def test_list_triangles_agrees_with_brute(g):
    assert list_triangles(g) == oracles.brute_triangles(g)


def test_triangle_counts():
    assert triangle_membership_counts(k4()) == [3, 3, 3, 3]
    assert triangle_membership_counts(prism()) == [1] * 6
    assert triangle_membership_counts(petersen()) == [0] * 10


def test_is_cubic():
    assert is_cubic(k4())
    assert is_cubic(petersen())
    assert not is_cubic(cycle(5))
    assert not is_cubic(build_graph(1, []))


def test_find_claw_frozen():
    assert find_claw(prism()) is None
    assert find_claw(k4()) is None
    assert find_claw(petersen()) == (0, (1, 4, 5))
    assert find_claw(k33()) == (0, (3, 4, 5))


@given(graphs(max_n=9))
@settings(max_examples=60)
def test_find_claw_agrees_with_brute(g):
    claws = oracles.brute_claws(g)
    got = find_claw(g)
    if not claws:
        assert got is None
    else:
        # first claw in (center, leaves) lexicographic order
        assert got == claws[0]
        c, (a, b, d) = got
        for leaf in (a, b, d):
            assert g.has_edge(c, leaf)
        assert not g.has_edge(a, b) and not g.has_edge(a, d) and not g.has_edge(b, d)


def test_induced_subgraph():
    g = prism()
    sub, mapping = induced_subgraph(g, {1, 2, 4, 5})
    assert mapping == [1, 2, 4, 5]
    assert sub.n == 4
    # surviving edges: 1-2, 1-4, 2-5, 4-5
    assert list(sub.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


@given(graphs(max_n=9))
@settings(max_examples=60)
def test_induced_subgraph_edge_membership(g):
    keep = [v for v in g.vertices() if v % 2 == 0]
    sub, mapping = induced_subgraph(g, keep)
    assert mapping == sorted(keep)
    back = {i: mapping[i] for i in range(sub.n)}
    original = {(u, v) for u, v in g.edges() if u in set(keep) and v in set(keep)}
    assert {(back[u], back[v]) for u, v in sub.edges()} == original


@given(graphs(max_n=10), st.data())
@settings(max_examples=80)
def test_induced_subgraph_equals_validated_build(g, data):
    # the direct relabelling must equal a round trip through build_graph
    mask = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    keep = [v for v in g.vertices() if mask[v]]
    sub, mapping = induced_subgraph(g, keep)
    new = {old: i for i, old in enumerate(mapping)}
    edges = [(new[u], new[v]) for u, v in g.edges() if u in new and v in new]
    assert sub == build_graph(len(mapping), edges)


def test_induced_subgraph_rejects_out_of_range():
    for bad in (6, -1):
        with pytest.raises(VertexOutOfRange):
            induced_subgraph(prism(), [0, bad])


def test_components():
    g = oracles.disjoint_union(k4(), prism())
    assert components(g) == [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9]]
    assert components(build_graph(3, [])) == [[0], [1], [2]]


def test_bipartition_frozen():
    assert two_coloring(cycle(6)) == ([0, 1, 0, 1, 0, 1], [])
    assert two_coloring(cycle(5)) == ([0, 1, 0, 0, 1], [0, 1, 4, 2, 3])
    assert two_coloring(k33()) == ([0, 0, 0, 1, 1, 1], [])
    # the conflict sits in the second component, after a bipartite first one
    c6_c5 = oracles.disjoint_union(cycle(6), cycle(5))
    assert two_coloring(c6_c5) == ([0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1], [6, 7, 10, 8, 9])


@given(graphs(max_n=10))
@settings(max_examples=80)
def test_two_coloring_sound(g):
    color, odd = two_coloring(g)
    d = oracles.floyd_warshall(g)
    odd_cycles = [c for c in oracles.all_simple_cycles(g) if len(c) % 2 == 1]
    for v in g.vertices():
        # BFS layer parity from the smallest vertex of v's component
        root = min(u for u in g.vertices() if d[v][u] < INF)
        assert color[v] == d[root][v] % 2
    assert sorted(odd) == [v for v in g.vertices()
                           if any(d[v][c[0]] < INF for c in odd_cycles)]
    if not odd:
        assert all(color[u] != color[v] for u, v in g.edges())


def test_shortest_odd_cycle_frozen():
    assert shortest_odd_cycle(cycle(5)) == (0, 1, 2, 3, 4)
    assert shortest_odd_cycle(cycle(6)) is None
    assert shortest_odd_cycle(petersen()) == (0, 1, 2, 3, 4)
    assert shortest_odd_cycle(k4()) == (0, 1, 2)


@given(graphs(max_n=10))
@settings(max_examples=60)
def test_shortest_odd_cycle_minimal_and_chordless(g):
    cyc = shortest_odd_cycle(g)
    want = oracles.shortest_odd_cycle_length(g)
    if want is None:
        assert cyc is None
        return
    assert cyc is not None
    assert len(cyc) == want
    assert len(set(cyc)) == len(cyc)
    for i in range(len(cyc)):
        assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
    # minimum odd cycles have no chords
    assert oracles.is_chordless(g, cyc)
    # canonical form: smallest vertex first, smaller successor
    assert cyc[0] == min(cyc)
    assert cyc[1] < cyc[-1]


@given(graphs(max_n=10))
@settings(max_examples=80)
def test_shortest_odd_cycle_witness_matches_scan(g):
    assert shortest_odd_cycle(g) == oracles.reference_shortest_odd_cycle(g)


@pytest.mark.parametrize("keep_ratio", [0.5, 0.8, 1.0])
def test_shortest_odd_cycle_witness_on_cubic_subgraphs(keep_ratio):
    # induced subgraphs of cubic graphs mix degrees 0-3 and long odd cycles
    for n in (10, 20, 40, 80):
        for seed in range(5):
            g = random_cubic(n, seed=seed)
            keep = random.Random(seed).sample(range(n), round(keep_ratio * n))
            sub, _ = induced_subgraph(g, keep)
            assert shortest_odd_cycle(sub) == oracles.reference_shortest_odd_cycle(sub)


@pytest.mark.parametrize("n, seed", [(30, 1), (60, 0)])
def test_shortest_odd_cycle_witness_on_reducer_remainders(n, seed):
    # every remainder the reducer visits: the first, then one per absorption
    g = problem1_family(n, seed)
    pair, _ = break_triangles(g)
    _, additions = reduce_odd_cycles(g, pair)
    remaining = set(range(g.n)) - pair.marked
    for add in [None] + additions:
        if add is not None:
            remaining.discard(add.vertex)
        sub, _ = induced_subgraph(g, remaining)
        assert shortest_odd_cycle(sub) == oracles.reference_shortest_odd_cycle(sub)


@pytest.mark.parametrize(
    "g, want",
    [
        (oracles.disjoint_union(cycle(6), cycle(5)), (6, 7, 8, 9, 10)),
        (oracles.disjoint_union(cycle(5), cycle(7)), (0, 1, 2, 3, 4)),
        (build_graph(0, []), None),
        (build_graph(4, []), None),
    ],
    ids=["C6+C5", "C5+C7", "n0", "edgeless"],
)
def test_shortest_odd_cycle_over_components(g, want):
    assert shortest_odd_cycle(g) == want
    assert shortest_odd_cycle(g) == oracles.reference_shortest_odd_cycle(g)


@given(graphs(max_n=8), graphs(max_n=8), st.data())
@settings(max_examples=80)
def test_shortest_odd_cycle_witness_on_relabelled_unions(g1, g2, data):
    # a random relabelling often puts a bipartite component on the smallest
    # labels, ahead of the component holding the witness
    union = oracles.disjoint_union(g1, g2)
    g = oracles.permute(union, data.draw(st.permutations(range(union.n))))
    assert shortest_odd_cycle(g) == oracles.reference_shortest_odd_cycle(g)
