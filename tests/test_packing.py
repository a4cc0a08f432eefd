from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from packfour.errors import ClassOutOfRange, EmptySpec, NotNonDecreasing, NotPositive
from packfour.generators import cycle, inflate, k4, k33, petersen, prism
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
    # the Floyd-Warshall reference the acceptance and reducer tests rely on
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


def test_verify_accepts_valid_colorings():
    assert verify_spacking(prism(), SSpec((1, 1, 2, 2)), [3, 1, 2, 2, 4, 1]) is None
    # proper 2-coloring of an even cycle is a (1,1) coloring
    assert verify_spacking(cycle(6), SSpec((1, 1)), [1, 2, 1, 2, 1, 2]) is None
    assert verify_spacking(k4(), SSpec((1, 1, 2, 2)), [1, 2, 3, 4]) is None


def test_verify_reports_first_violation():
    v = verify_spacking(cycle(5), SSpec((1, 2)), [1, 2, 1, 2, 1])
    # (0,2) has distance 2 > 1, so the first bad pair is (0,4)
    assert v == Violation(0, 4, 1, 1)
    assert "0 and 4" in str(v) and "class 1" in str(v)
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
    g = draw(graphs(max_n=8))
    s = draw(st.sampled_from([(1,), (1, 1), (1, 2), (1, 1, 2, 2), (2, 3)]))
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


@given(st.one_of(random_colorings(), one_flip_colorings()))
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
