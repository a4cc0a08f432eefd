from __future__ import annotations

import hashlib
import inspect
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packfour import odd_cycle
from packfour.errors import StuckOddCycle
from packfour.generators import inflate, k4, petersen, prism, problem1_family, random_cubic
from packfour.formats import coloring_from_certificate, read_certificate
from packfour.graph import build_graph, find_claw, is_cubic, list_triangles
from packfour.odd_cycle import Addition, addable_side, reduce_odd_cycles
from packfour.packing import SSpec, verify_spacking
from packfour.pipeline import color_claw_free_cubic
from packfour.triangle_break import break_triangles

import oracles
from oracles import is_k_packing
from test_graph import induced_subgraph, two_coloring


def pentagonal_prism():
    # C5 x K2: triangle-free and cubic, so the breaker hands over an empty
    # pair and both pentagons must be opened here
    return build_graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                            (5, 6), (6, 7), (7, 8), (8, 9), (5, 9),
                            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


def test_addable_side_prefers_a():
    g = pentagonal_prism()
    assert addable_side(g, set(), set(), 0) == "A"
    # 5 is adjacent to 0, so side a is blocked but empty side b is free
    assert addable_side(g, {0}, set(), 5) == "B"
    assert addable_side(g, {0}, set(), 7) == "A"
    assert addable_side(g, {0}, {5}, 6) is None
    with pytest.raises(ValueError):
        addable_side(g, {0}, {5}, 0)


def test_addable_side_reads_every_neighbour():
    # 0 has degree 4 and 5 hangs off its fourth neighbour 4, so 5 lies at
    # distance 2 from 0 and blocks side a; degree 1 and 0 read balls too
    g = build_graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    assert addable_side(g, {5}, set(), 0) == "B"
    assert addable_side(g, {5}, {1}, 0) is None
    assert addable_side(g, {0}, set(), 5) == "B"
    assert addable_side(g, {0}, set(), 6) == "A"


def test_addition_record():
    assert oracles.reference_reducer_records([Addition(7, "A", 5)]) == [
        {"vertex": 7, "side": "A", "cycle_length": 5}]


def test_reduce_pentagonal_prism_frozen():
    g = pentagonal_prism()
    pair, trace = break_triangles(g)
    assert pair.marked == frozenset()
    state, additions = reduce_odd_cycles(g, pair)
    assert [(a.vertex, a.side, a.cycle_length) for a in additions] == [
        (0, "A", 5), (5, "B", 5),
    ]
    assert sorted(state.ext_a) == [0] and sorted(state.ext_b) == [5]
    assert oracles.remainder(g, state) == frozenset(range(10)) - {0, 5}


def test_reduce_problem1_gadget_frozen():
    # long odd cycles, and two absorptions from cycles of equal length
    g = problem1_family(30, 1)
    pair, _ = break_triangles(g)
    state, additions = reduce_odd_cycles(g, pair)
    assert [(a.vertex, a.side, a.cycle_length) for a in additions] == [
        (68, "B", 13), (35, "A", 15), (115, "B", 17), (11, "A", 17),
    ]
    check_reduction(g, pair, state, additions)


def test_reduce_claw_free_frozen():
    # inflated K4 with edge (4, 7) replaced by one diamond 12-14-15-13: claw-free,
    # yet the breaker leaves a 9-cycle that the reducer must open
    g = inflate(k4())
    edges = [e for e in g.edges() if e != (4, 7)]
    edges += [(4, 12), (12, 14), (12, 15), (14, 15), (14, 13), (15, 13), (13, 7)]
    g = build_graph(16, edges)
    assert g.n == 16 and find_claw(g) is None
    pair, _ = break_triangles(g)
    state, additions = reduce_odd_cycles(g, pair)
    assert [(a.vertex, a.side, a.cycle_length) for a in additions] == [(10, "B", 9)]
    check_reduction(g, pair, state, additions)
    coloring, _ = color_claw_free_cubic(g)
    assert verify_spacking(g, SSpec((1, 1, 2, 2)), coloring) is None


def test_reduce_noop_when_remainder_bipartite():
    g = prism()
    pair, _ = break_triangles(g)
    state, additions = reduce_odd_cycles(g, pair)
    assert additions == []
    assert state.ext_a == pair.a and state.ext_b == pair.b


def test_reduce_petersen_sticks_with_claw_witness():
    g = petersen()
    pair, _ = break_triangles(g)
    with pytest.raises(StuckOddCycle) as e:
        reduce_odd_cycles(g, pair)
    assert e.value.cycle == (2, 3, 4, 9, 7)
    assert e.value.claw == (0, (1, 4, 5))
    assert "claw" in str(e.value)
    # the stuck state is a consistent snapshot: every cycle vertex is blocked
    st = e.value.state
    for v in e.value.cycle:
        assert addable_side(g, st.ext_a, st.ext_b, v) is None


def reduction_outcome(reduce, g, pair):
    # what a reducer returns, or what its StuckOddCycle carries
    try:
        return reduce(g, pair)
    except StuckOddCycle as e:
        return ("stuck", e.state, e.cycle, e.claw)


def test_reduce_matches_reference_reducer():
    # the one live adjacency against the loop that rebuilds the remainder on
    # 0..k-1 after every absorption: the same additions and the same state,
    # or the same stuck cycle and state
    # random_cubic(42, seed=5) is a clawed graph the reducer sticks on
    cases = [problem1_family(30, 1), problem1_family(60, 0), random_cubic(42, seed=5)]
    for i in range(26):
        g = random_cubic(20 + 4 * i, seed=i)
        assert find_claw(g) is not None
        cases.append(g)
    outcomes = []
    for g in cases:
        pair, _ = break_triangles(g)
        got = reduction_outcome(reduce_odd_cycles, g, pair)
        assert got == reduction_outcome(oracles.reference_reduce_odd_cycles, g, pair)
        outcomes.append(got[0] if got[0] == "stuck" else len(got[1]))
    assert "stuck" in outcomes and max(o for o in outcomes if o != "stuck") > 20


def test_reduce_remainder_drops_chosen_vertices_of_both_sides():
    # the live remainder empties each chosen vertex's entry and filters every
    # chosen vertex out of its unchosen neighbours' tuples; on these pairs an
    # a-vertex is adjacent to a b-vertex, and some unchosen vertex has chosen
    # neighbours on both sides, so a filter that drops only the chosen
    # vertex in hand leaves a chosen vertex in the remainder
    for g in (problem1_family(20, 0), problem1_family(20, 1), inflate(k4())):
        pair, _ = break_triangles(g)
        a, b = pair.a, pair.b
        assert any({u, v} & a and {u, v} & b for u, v in g.edges())
        assert any(u not in pair.marked and a.intersection(g.adj[u]) and b.intersection(g.adj[u])
                   for u in range(g.n))
        got = reduction_outcome(reduce_odd_cycles, g, pair)
        assert got == reduction_outcome(oracles.reference_reduce_odd_cycles, g, pair)


@pytest.mark.parametrize("k", [3, 10, 30])
def test_reduce_diamond_chain_matches_reference_reducer(k):
    # the first claw-free family whose reducer absorbs, once per 2-switch
    g = oracles.diamond_chain(k)
    assert is_cubic(g) and find_claw(g) is None
    pair, _ = break_triangles(g)
    state, additions = reduce_odd_cycles(g, pair)
    assert (state, additions) == oracles.reference_reduce_odd_cycles(g, pair)
    assert [a.cycle_length for a in additions] == [17] * (k - 1)
    check_reduction(g, pair, state, additions)
    cg, s, coloring = coloring_from_certificate(read_certificate(color_claw_free_cubic(g)[1]))
    assert cg == g and verify_spacking(g, s, coloring) is None


def test_reduce_diamond_chain_trace_pinned():
    # the reducer trace of diamond_chain(333), 332 absorptions, pinned with
    # the reducer that 2-colored and searched the whole remainder every round
    g = oracles.diamond_chain(333)
    pair, _ = break_triangles(g)
    _, additions = reduce_odd_cycles(g, pair)
    trace = json.dumps(oracles.reference_reducer_records(additions), separators=(",", ":"))
    assert len(additions) == 332
    assert hashlib.sha256(trace.encode()).hexdigest() == (
        "03764a0764523d2209115ef29d3e348d324309196d6d8a5e4f751c640368422a")


@pytest.mark.parametrize("k", [333, 3333])
def test_reduce_diamond_chain_visits_linear(k, monkeypatch):
    # the reducer is linear on the claw-free chain: the adjacency reads of
    # its layouts, repairs, searches and witness BFS, summed over the run,
    # stay under 4n (n = 9,990 and 99,990), and the run aborts as soon as
    # they pass it; a round over the whole remainder would read about n each.
    # Every function of odd_cycle that takes an adjacency is wrapped, so a
    # read made outside the wrapped names cannot go uncounted; one called
    # from another with the wrapped adjacency is not wrapped twice
    g = oracles.diamond_chain(k)
    pair, _ = break_triangles(g)
    bound = 4 * g.n
    reads = 0

    class Counted:
        def __init__(self, adj):
            self.adj = adj

        def __len__(self):
            return len(self.adj)

        def __getitem__(self, v):
            nonlocal reads
            reads += 1
            if reads > bound:
                raise AssertionError(f"reducer read more than {bound} adjacencies")
            return self.adj[v]

        def __setitem__(self, v, a):
            self.adj[v] = a

    readers = ("lay_out", "relayer", "cut_vertex", "odd_girth_record", "_odd_layer",
               "witness_cycle")
    assert sorted(readers) == sorted(
        name for name, f in vars(odd_cycle).items()
        if inspect.isfunction(f) and f.__module__ == odd_cycle.__name__
        and "adj" in inspect.signature(f).parameters)
    for name in readers:
        monkeypatch.setattr(odd_cycle, name, lambda adj, *rest, f=getattr(odd_cycle, name): f(
            adj if isinstance(adj, Counted) else Counted(adj), *rest))
    state, additions = reduce_odd_cycles(g, pair)
    assert len(additions) == k - 1
    assert 0 < reads <= bound


@pytest.mark.parametrize("n, absorbed, built", [(30, 4, 2), (60, 5, 2), (1000, 81, 16)])
def test_reduce_builds_witness_only_when_its_source_is_blocked(n, absorbed, built, monkeypatch):
    # the witness cycle starts at the record's vertex, and the scan absorbs
    # its first vertex that may join a side, so the BFS that builds the cycle
    # runs only when that vertex may join neither
    calls = 0
    witness = odd_cycle.witness_cycle

    def counted(*args):
        nonlocal calls
        calls += 1
        return witness(*args)

    monkeypatch.setattr(odd_cycle, "witness_cycle", counted)
    g = problem1_family(n, 1)
    pair, _ = break_triangles(g)
    _, additions = reduce_odd_cycles(g, pair)
    assert (len(additions), calls) == (absorbed, built)


def delete_in_turn(g, keep, order):
    """Lay out the subgraph of g induced by keep from scratch, then delete
    the vertices of order one at a time with cut_vertex, and after each
    deletion compare the adjacency, the depths and every non-bipartite
    piece's root, vertices and clash edges with a from-scratch layout.
    Returns how often each branch of a deletion ran."""
    adj = list(induced_subgraph(g, keep).adj)
    dist = [-1] * g.n
    held = {root: (comp, clash) for root, comp, clash in odd_cycle.lay_out(adj, range(g.n), dist)}
    left = set(keep)
    branches = dict.fromkeys(("root", "empty", "repair", "split"), 0)
    for v in order:
        root = next((r for r, (comp, _) in held.items() if v in comp), None)
        if root is None:
            # a bipartite piece, which the reducer never cuts: read it off adj
            comp = {v}
            stack = [v]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            root, clash = min(comp), set()
        else:
            comp, clash = held.pop(root)
        rest = comp - {v}
        before = list(dist)
        for r, c, k in odd_cycle.cut_vertex(adj, v, root, comp, dist, clash):
            held[r] = (c, k)
        left.discard(v)
        fresh = [-1] * g.n
        want = {r: (c, k) for r, c, k in odd_cycle.lay_out(adj, range(g.n), fresh)}
        assert adj == list(induced_subgraph(g, left).adj)
        assert dist == fresh
        assert held == want
        if v == root:
            branches["root"] += 1
        else:
            moved = [x for x in rest if dist[x] != before[x]]
            branches["repair" if moved else "empty"] += 1
            if sum(fresh[x] == 0 for x in rest) > 1:
                branches["split"] += 1
    return branches


@given(oracles.cubic_graphs(), st.data())
@settings(max_examples=80)
def test_relayer_equals_fresh_layout(g, data):
    # every vertex of a cubic graph, or of an induced subgraph of one, deleted
    # in a drawn order: repaired depths and clash edges equal a fresh layout's
    keep = data.draw(st.sets(st.sampled_from(range(g.n))) | st.just(set(range(g.n))))
    delete_in_turn(g, keep, data.draw(st.permutations(sorted(keep))))


def test_relayer_reaches_every_branch():
    # root deletions are laid out again from scratch; other deletions repair
    # the layering, move no vertex at all, or split the piece off
    total = dict.fromkeys(("root", "empty", "repair", "split"), 0)
    for n in (16, 40):
        for seed in range(4):
            g = random_cubic(n, seed=seed)
            rng = random.Random(seed)
            keep = rng.sample(range(n), 3 * n // 4) if seed % 2 else list(range(n))
            order = rng.sample(keep, len(keep))
            for branch, count in delete_in_turn(g, keep, order).items():
                total[branch] += count
    assert all(total.values()), total


def test_forced_petersen_sticks_like_reference_reducer():
    g = petersen()
    pair, _ = break_triangles(g)
    with pytest.raises(StuckOddCycle) as want:
        oracles.reference_reduce_odd_cycles(g, pair)
    with pytest.raises(StuckOddCycle) as got:
        color_claw_free_cubic(g, force=True)
    assert (got.value.cycle, got.value.state, got.value.claw) == (
        want.value.cycle, want.value.state, want.value.claw)


def check_reduction(g, pair, state, additions):
    # extensions contain their bases and stay disjoint 2-packings
    assert set(pair.a) <= set(state.ext_a)
    assert set(pair.b) <= set(state.ext_b)
    assert not (state.ext_a & state.ext_b)
    assert is_k_packing(g, state.ext_a, 2)
    assert is_k_packing(g, state.ext_b, 2)
    # every logged cycle length is odd, every logged vertex left the remainder
    remaining = oracles.remainder(g, state)
    for add in additions:
        assert add.cycle_length % 2 == 1 and add.cycle_length >= 3
        assert add.vertex not in remaining
    # the remainder is bipartite and triangle-free
    sub = induced_subgraph(g, remaining)
    color, odd = two_coloring(sub)
    assert odd == [] and all(color[u] != color[v] for u, v in sub.edges())
    assert list_triangles(sub) == []


def test_reduce_invariants_on_cubic_samples():
    ran = 0
    for n in (10, 12, 14, 16):
        for seed in range(8):
            g = random_cubic(n, seed=7000 + 100 * n + seed)
            pair, _ = break_triangles(g)
            try:
                state, additions = reduce_odd_cycles(g, pair)
            except StuckOddCycle as e:
                # sticking is only expected alongside a claw
                assert e.claw is not None
                continue
            ran += 1
            check_reduction(g, pair, state, additions)
    assert ran > 0


def test_reduce_only_adds_new_vertices():
    # base vertices are never re-examined: additions are new vertices only
    g = random_cubic(14, seed=100150)
    pair, _ = break_triangles(g)
    state, additions = reduce_odd_cycles(g, pair)
    for add in additions:
        assert add.vertex not in pair.marked
    check_reduction(g, pair, state, additions)
