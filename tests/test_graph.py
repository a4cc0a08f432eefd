from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packfour import odd_cycle
from packfour.errors import DuplicateEdge, SelfLoop, VertexOutOfRange
from packfour.generators import cycle, k4, k33, petersen, prism, problem1_family, random_cubic
from packfour.graph import (
    INF,
    Graph,
    ball2,
    bfs_distances,
    build_graph,
    find_claw,
    is_cubic,
    list_triangles,
)
from packfour.odd_cycle import (lay_out, odd_girth_record, reduce_odd_cycles,
                                witness_cycle)
from packfour.oracle import all_pairs_distances
from packfour.triangle_break import break_triangles

import oracles
from oracles import graphs


def induced_subgraph(g: Graph, keep) -> Graph:
    """Subgraph induced by `keep`, on g's own vertex ids.

    Vertices outside keep stay, isolated.  g's adjacency tuples are sorted,
    so filtering them keeps them sorted and simple: no revalidation through
    build_graph.
    """
    inside = [False] * g.n
    for v in keep:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(v, g.n)
        inside[v] = True
    adj = tuple(tuple([w for w in a if inside[w]]) if inside[v] else ()
                for v, a in enumerate(g.adj))
    return Graph(n=g.n, adj=adj)


def two_coloring(g: Graph) -> tuple[list[int], list[int]]:
    """The reducer's BFS 2-coloring of a whole graph, roots ascending, as
    (color, clash): color is the parity of each vertex's depth in lay_out's
    layering, and clash lists the smaller ends of the edges whose ends share
    a color, ascending and once each, so it is empty exactly when g is
    bipartite, and then color is a proper 2-coloring."""
    dist = [-1] * g.n
    odd = lay_out(g.adj, range(g.n), dist)
    return [d & 1 for d in dist], sorted({u for _, _, clash in odd for u, _ in clash})


def shortest_odd_cycle(g: Graph) -> tuple[int, ...] | None:
    """The reducer's witness for a whole graph: a minimum-length odd cycle,
    or None if g is bipartite, from the three searches a reducer round runs
    (see the odd_cycle module)."""
    clash = two_coloring(g)[1]
    if not clash:
        return None
    h, first = odd_girth_record(g.adj, clash, [-1] * g.n, [0] * g.n)
    return witness_cycle(g.adj, first, h)


def test_build_graph_validates():
    # each check's exception carries the offending endpoints; the checks run
    # edge by edge, range (u, then v), then self-loop, then duplicate, so the
    # first problem in the list wins over a later, different one
    cases = [
        ([(1, 1)], SelfLoop, {"u": 1}),
        ([(0, 1), (0, 1)], DuplicateEdge, {"u": 0, "v": 1}),
        # reversed orientation is still the same edge
        ([(0, 1), (1, 0)], DuplicateEdge, {"u": 1, "v": 0}),
        ([(0, 3)], VertexOutOfRange, {"v": 3, "n": 3}),
        ([(-1, 0)], VertexOutOfRange, {"v": -1, "n": 3}),
        ([(3, -1)], VertexOutOfRange, {"v": 3, "n": 3}),
        ([(5, 5)], VertexOutOfRange, {"v": 5, "n": 3}),
        ([(0, 1), (2, 2), (0, 5)], SelfLoop, {"u": 2}),
        ([(0, 1), (1, 0), (1, 1)], DuplicateEdge, {"u": 1, "v": 0}),
        ([(1, 3), (0, 0)], VertexOutOfRange, {"v": 3, "n": 3}),
        ([(0, 2), (2, 0), (0, 7)], DuplicateEdge, {"u": 2, "v": 0}),
    ]
    for edges, error, fields in cases:
        with pytest.raises(error) as e:
            build_graph(3, edges)
        assert vars(e.value) == fields, edges
    with pytest.raises(VertexOutOfRange) as e:
        build_graph(-1, [])
    assert vars(e.value) == {"v": -1, "n": -1}


@st.composite
def edge_lists(draw):
    """(n, edges): a canonical list, one with a single change (the previous
    edge repeated, a pair reversed, a self-loop, an end of -1 or n, a first
    edge (-1, 0)), a shuffled one, or arbitrary pairs; pairs are tuples or
    lists, as certificates hold them."""
    n = draw(st.integers(-1, 9))
    edges = sorted(draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))))
                   if n >= 2 else st.just(set())))
    kind = draw(st.sampled_from(["canonical", "repeat", "reverse", "loop", "end",
                                 "first", "shuffle", "arbitrary"]))
    at = draw(st.integers(0, max(len(edges) - 1, 0)))
    if kind == "repeat" and edges:
        edges.insert(at + 1, edges[at])
    elif kind == "reverse" and edges:
        edges[at] = edges[at][::-1]
    elif kind == "loop":
        w = draw(st.integers(0, max(n - 1, 0)))
        edges.insert(at, (w, w))
    elif kind == "end" and edges:
        end, side = draw(st.sampled_from([-1, n])), draw(st.integers(0, 1))
        edges[at] = (end, edges[at][1]) if side == 0 else (edges[at][0], end)
    elif kind == "first":
        edges.insert(0, (-1, 0))
    elif kind == "shuffle":
        edges = draw(st.permutations(edges))
    elif kind == "arbitrary":
        ends = st.integers(-2, max(n, 0) + 1)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=12))
    if draw(st.booleans()):
        edges = [list(e) for e in edges]
    return n, edges


@given(edge_lists())
@settings(max_examples=400)
def test_build_graph_matches_checking_loop(case):
    # the canonical route and its fall-back into the checking loop return
    # the reference's graph or raise its exception, fields and message alike,
    # from a list or a one-shot iterator
    n, edges = case
    want = oracles.outcome(oracles.reference_build_graph, n, edges)
    assert oracles.outcome(build_graph, n, edges) == want
    assert oracles.outcome(build_graph, n, iter(edges)) == want


def test_graph_basics():
    g = prism()
    assert g.n == 6
    assert g.m == 9
    assert [len(g.adj[v]) for v in range(g.n)] == [3] * 6
    assert 1 in g.adj[0] and 0 in g.adj[1]
    assert 4 not in g.adj[0]
    # edges come out sorted with u < v
    assert list(g.edges()) == sorted(g.edges())
    assert all(u < v for u, v in g.edges())
    # adjacency lists are sorted tuples
    assert all(list(g.adj[v]) == sorted(g.adj[v]) for v in range(g.n))


def test_bfs_distances_prism():
    assert bfs_distances(prism(), [0]) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
    assert all_pairs_distances(prism())[0] == [0, 1, 1, 1, 2, 2]


def test_bfs_unreachable_is_inf():
    # an unreachable vertex has no entry, and the oracle's matrix reads INF
    g = build_graph(4, [(0, 1)])
    assert bfs_distances(g, [0]) == {0: 0, 1: 1}
    d = all_pairs_distances(g)[0]
    assert d[0] == 0 and d[1] == 1
    assert d[2] is INF and d[3] is INF
    assert math.isinf(d[2])


@given(graphs(max_n=9))
@settings(max_examples=60)
def test_bfs_agrees_with_floyd_warshall(g):
    fw = oracles.floyd_warshall(g)
    matrix = all_pairs_distances(g)
    for s in range(g.n):
        d = matrix[s]
        for v in range(g.n):
            assert (d[v] is INF) == (fw[s][v] == oracles.INF)
            if d[v] is not INF:
                assert d[v] == fw[s][v]
        # a search bounded at radius r holds exactly the vertices within r
        for r in range(4):
            assert bfs_distances(g, [s], r) == {v: fw[s][v] for v in range(g.n)
                                                if fw[s][v] <= r}


def test_vertices_within():
    g = prism()
    assert bfs_distances(g, [0], 0) == {0: 0}
    assert set(bfs_distances(g, [0], 1)) == {0, 1, 2, 3}
    assert set(bfs_distances(g, [0], 2)) == set(range(6))
    assert bfs_distances(g, [], 2) == {}
    assert bfs_distances(g, [0, 4], 1) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 0, 5: 1}


@given(graphs(max_n=10))
@settings(max_examples=60)
def test_ball2_agrees_with_vertices_within_at_any_degree(g):
    # the reducer asks for balls on graphs it does not check for cubicity
    assert [ball2(g.adj, v) for v in range(g.n)] == [set(bfs_distances(g, [v], 2))
                                                     for v in range(g.n)]


def test_list_triangles_frozen():
    assert list_triangles(prism()) == [(0, 1, 2), (3, 4, 5)]
    assert list_triangles(petersen()) == []
    assert list_triangles(k4()) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


@given(graphs(max_n=10))
@settings(max_examples=60)
def test_list_triangles_agrees_with_brute(g):
    assert list_triangles(g) == oracles.brute_triangles(g)


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
            assert leaf in g.adj[c]
        assert b not in g.adj[a] and d not in g.adj[a] and d not in g.adj[b]


def test_induced_subgraph():
    g = prism()
    sub = induced_subgraph(g, {1, 2, 4, 5})
    # same ids; 0 and 3 stay, isolated
    assert sub.n == 6 and sub.m == 4
    assert sub.adj[0] == sub.adj[3] == ()
    # surviving edges: 1-2, 1-4, 2-5, 4-5
    assert list(sub.edges()) == [(1, 2), (1, 4), (2, 5), (4, 5)]


@given(graphs(max_n=9))
@settings(max_examples=60)
def test_induced_subgraph_edge_membership(g):
    keep = {v for v in range(g.n) if v % 2 == 0}
    sub = induced_subgraph(g, keep)
    assert sub.n == g.n
    assert all(sub.adj[v] == () for v in range(g.n) if v not in keep)
    original = {(u, v) for u, v in g.edges() if u in keep and v in keep}
    assert set(sub.edges()) == original
    assert sub.m == len(original)


@given(graphs(max_n=10), st.data())
@settings(max_examples=80)
def test_induced_subgraph_equals_validated_build(g, data):
    # the direct filtering must equal a round trip through build_graph
    mask = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    keep = [v for v in range(g.n) if mask[v]]
    edges = [(u, v) for u, v in g.edges() if mask[u] and mask[v]]
    assert induced_subgraph(g, keep) == build_graph(g.n, edges)


def test_induced_subgraph_rejects_out_of_range():
    for bad in (6, -1):
        with pytest.raises(VertexOutOfRange):
            induced_subgraph(prism(), [0, bad])


def test_bipartition_frozen():
    assert two_coloring(cycle(6)) == ([0, 1, 0, 1, 0, 1], [])
    assert two_coloring(cycle(5)) == ([0, 1, 0, 0, 1], [2])
    assert two_coloring(k33()) == ([0, 0, 0, 1, 1, 1], [])
    # the conflict sits in the second component, after a bipartite first one
    c6_c5 = oracles.disjoint_union(cycle(6), cycle(5))
    assert two_coloring(c6_c5) == ([0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1], [8])


@given(graphs(max_n=10))
@settings(max_examples=80)
def test_two_coloring_sound(g):
    color, clash = two_coloring(g)
    d = oracles.floyd_warshall(g)
    for v in range(g.n):
        # BFS layer parity from the smallest vertex of v's component
        root = min(u for u in range(g.n) if d[v][u] < INF)
        assert color[v] == d[root][v] % 2
    # the smaller end of every same-color edge, ascending, once each
    assert clash == sorted({u for u, v in g.edges() if color[u] == color[v]})
    assert (clash == []) == (oracles.odd_cycle_vertices(g) == [])


def test_shortest_odd_cycle_frozen():
    assert shortest_odd_cycle(cycle(5)) == (0, 1, 2, 3, 4)
    assert shortest_odd_cycle(cycle(6)) is None
    assert shortest_odd_cycle(petersen()) == (0, 1, 2, 3, 4)
    assert shortest_odd_cycle(k4()) == (0, 1, 2)
    # a bowtie with 2 isolated: the clash edges are (1, 4) and (3, 5), so the
    # searched sources are 1 and 3, yet the witness source 0 is on the tied
    # triangle through 3 and ends no clash edge
    bowtie = build_graph(6, [(0, 3), (0, 5), (1, 4), (1, 5), (3, 5), (4, 5)])
    assert shortest_odd_cycle(bowtie) == (0, 3, 5)
    assert oracles.reference_shortest_odd_cycle(bowtie) == (0, 3, 5)


def test_shortest_odd_cycle_folds_every_parent():
    # three paths join 2 and 6: 2-8-3-11-10-6, 2-4-9-14-6 and 2-5-1-7-6, and
    # the pendant path 10-13-12-0 makes 0 the 2-coloring's root, so 2 ends the
    # one clash edge and is the one source searched.  In its BFS the edge
    # (6, 10) lies inside layer 4, and 6 is found from 14 before 7; the least
    # vertex on the two tied 9-cycles, 1, is reached only through 7, 6's
    # second parent
    g = build_graph(15, [(0, 12), (1, 5), (1, 7), (2, 4), (2, 5), (2, 8), (3, 8), (3, 11),
                         (4, 9), (6, 7), (6, 10), (6, 14), (9, 14), (10, 11), (10, 13), (12, 13)])
    assert two_coloring(g)[1] == [2]
    depth = [-1] * g.n
    assert odd_cycle._odd_layer(g.adj, 2, g.n, depth, [0] * g.n) == (4, 1)
    assert depth == [-1] * g.n
    assert shortest_odd_cycle(g) == (1, 5, 2, 8, 3, 11, 10, 6, 7)
    assert oracles.reference_shortest_odd_cycle(g) == (1, 5, 2, 8, 3, 11, 10, 6, 7)


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
        assert cyc[(i + 1) % len(cyc)] in g.adj[cyc[i]]
    # minimum odd cycles have no chords
    assert oracles.is_chordless(g, cyc)
    # canonical form: smallest vertex first, smaller successor
    assert cyc[0] == min(cyc)
    assert cyc[1] < cyc[-1]


@given(graphs(max_n=10))
@settings(max_examples=80)
def test_shortest_odd_cycle_witness_matches_scan(g):
    assert shortest_odd_cycle(g) == oracles.reference_shortest_odd_cycle(g)


def assert_witness_on_own_ids(g, keep):
    # the witness on the subgraph kept on g's ids equals the reference's,
    # both on those ids and on the subgraph relabelled onto 0..k-1, mapped back
    sub = induced_subgraph(g, keep)
    packed, mapping = oracles.relabelled_subgraph(g, keep)
    want = oracles.reference_shortest_odd_cycle(packed)
    got = shortest_odd_cycle(sub)
    assert got == oracles.reference_shortest_odd_cycle(sub)
    assert got == (None if want is None else tuple(mapping[i] for i in want))


@pytest.mark.parametrize("keep_ratio", [0.5, 0.8, 1.0])
def test_shortest_odd_cycle_witness_on_cubic_subgraphs(keep_ratio):
    # induced subgraphs of cubic graphs mix degrees 0-3 and long odd cycles
    for n in (10, 20, 40, 80):
        for seed in range(5):
            g = random_cubic(n, seed=seed)
            keep = random.Random(seed).sample(range(n), round(keep_ratio * n))
            assert_witness_on_own_ids(g, keep)


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
        assert_witness_on_own_ids(g, remaining)


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


@given(oracles.tied_odd_cycles())
@settings(max_examples=100)
def test_shortest_odd_cycle_witness_on_tied_cycles(g):
    assert shortest_odd_cycle(g) == oracles.reference_shortest_odd_cycle(g)


def _clash_edges(g):
    color = two_coloring(g)[0]
    return sum(color[u] == color[v] for u, v in g.edges())


@pytest.fixture
def searched(monkeypatch):
    # the sources of every bounded per-source BFS shortest_odd_cycle runs
    sources = []
    search = odd_cycle._odd_layer

    def counted(adj, s, radius, depth, low):
        sources.append(s)
        return search(adj, s, radius, depth, low)

    monkeypatch.setattr(odd_cycle, "_odd_layer", counted)
    return sources


def test_shortest_odd_cycle_searches_one_source_on_long_cycle(searched):
    # one clash edge, (10000, 10001), so one source; a search from every
    # vertex would take about n^2 BFS steps here
    g = cycle(20001)
    assert _clash_edges(g) == 1
    assert shortest_odd_cycle(g) == tuple(range(20001))
    assert searched == [10000]


def test_shortest_odd_cycle_searches_at_most_clash_edges(searched):
    # every remainder the reducer visits on problem1_family(60, 0)
    g = problem1_family(60, 0)
    pair, _ = break_triangles(g)
    _, additions = reduce_odd_cycles(g, pair)
    assert additions
    remaining = set(range(g.n)) - pair.marked
    for add in [None] + additions:
        if add is not None:
            remaining.discard(add.vertex)
        sub = induced_subgraph(g, remaining)
        searched.clear()
        shortest_odd_cycle(sub)
        assert len(searched) <= _clash_edges(sub)


@given(graphs(max_n=8), graphs(max_n=8), st.data())
@settings(max_examples=80)
def test_shortest_odd_cycle_witness_on_relabelled_unions(g1, g2, data):
    # a random relabelling often puts a bipartite component on the smallest
    # labels, ahead of the component holding the witness
    union = oracles.disjoint_union(g1, g2)
    g = oracles.permute(union, data.draw(st.permutations(range(union.n))))
    assert shortest_odd_cycle(g) == oracles.reference_shortest_odd_cycle(g)
