from __future__ import annotations

import pytest

from packfour.errors import StuckOddCycle
from packfour.generators import petersen, prism, problem1_family, random_cubic
from packfour.graph import build_graph, induced_subgraph, list_triangles, two_coloring
from packfour.odd_cycle import Addition, ReductionState, addable_side, reduce_odd_cycles
from packfour.triangle_break import break_triangles

from oracles import is_k_packing, recompute_pair


def pentagonal_prism():
    # C5 x K2: triangle-free and cubic, so the breaker hands over an empty
    # pair and both pentagons must be opened here
    return build_graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                            (5, 6), (6, 7), (7, 8), (8, 9), (5, 9),
                            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


def state_for(g, a, b):
    pair = recompute_pair(g, a, b)
    return ReductionState(
        base_a=pair.a, base_b=pair.b,
        ext_a=frozenset(a), ext_b=frozenset(b),
        remaining=frozenset(range(g.n)) - pair.marked,
        additions=(),
    )


def test_addable_side_prefers_a():
    g = pentagonal_prism()
    state = state_for(g, set(), set())
    assert addable_side(g, state, 0) == "A"
    state = state_for(g, {0}, set())
    # 5 is adjacent to 0, so side a is blocked but empty side b is free
    assert addable_side(g, state, 5) == "B"
    assert addable_side(g, state, 7) == "A"
    state = state_for(g, {0}, {5})
    assert addable_side(g, state, 6) is None
    with pytest.raises(ValueError):
        addable_side(g, state, 0)


def test_addition_record():
    assert Addition(7, "A", 5).to_record() == {"vertex": 7, "side": "A", "cycle_length": 5}


def test_reduce_pentagonal_prism_frozen():
    g = pentagonal_prism()
    pair, trace = break_triangles(g)
    assert pair.marked == frozenset()
    state, additions = reduce_odd_cycles(g, pair)
    assert [(a.vertex, a.side, a.cycle_length) for a in additions] == [
        (0, "A", 5), (5, "B", 5),
    ]
    assert sorted(state.ext_a) == [0] and sorted(state.ext_b) == [5]
    assert state.base_a == frozenset() and state.base_b == frozenset()
    assert state.remaining == frozenset(range(10)) - {0, 5}
    assert tuple(additions) == state.additions


def test_reduce_problem1_gadget_frozen():
    # long odd cycles, and two absorptions from cycles of equal length
    g = problem1_family(30, 1)
    pair, _ = break_triangles(g)
    state, additions = reduce_odd_cycles(g, pair)
    assert [(a.vertex, a.side, a.cycle_length) for a in additions] == [
        (68, "B", 13), (35, "A", 15), (115, "B", 17), (11, "A", 17),
    ]
    check_reduction(g, pair, state, additions)


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
        assert addable_side(g, st, v) is None


def check_reduction(g, pair, state, additions):
    # extensions contain their bases and stay disjoint 2-packings
    assert set(pair.a) <= set(state.ext_a)
    assert set(pair.b) <= set(state.ext_b)
    assert not (state.ext_a & state.ext_b)
    assert is_k_packing(g, state.ext_a, 2)
    assert is_k_packing(g, state.ext_b, 2)
    # every logged cycle length is odd, every logged vertex left the remainder
    for add in additions:
        assert add.cycle_length % 2 == 1 and add.cycle_length >= 3
        assert add.vertex not in state.remaining
    # the remainder is bipartite and triangle-free
    sub, _ = induced_subgraph(g, state.remaining)
    color, odd = two_coloring(sub)
    assert odd == [] and all(color[u] != color[v] for u, v in sub.edges())
    assert list_triangles(sub) == []
    assert state.remaining | state.ext_a | state.ext_b == set(range(g.n))


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
