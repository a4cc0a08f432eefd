from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from packfour.errors import NotClawFree, NotCubic, RefusesUnverified, StuckOddCycle
from packfour.formats import coloring_from_certificate, read_certificate
from packfour.generators import (
    cycle,
    diamond_necklace,
    inflate,
    k4,
    k33,
    petersen,
    prism,
    problem1_family,
    random_cubic,
)
import packfour
from packfour import pipeline
from packfour.graph import build_graph, find_claw, is_cubic
from packfour.odd_cycle import ReductionState
from packfour.oracle import exists_spacking
from packfour.packing import SSpec, verify_spacking
from packfour.pipeline import color_claw_free_cubic

import oracles
from test_graph import induced_subgraph, two_coloring

S1122 = SSpec((1, 1, 2, 2))


def test_k4_coloring_frozen():
    coloring, cert_text = color_claw_free_cubic(k4())
    assert coloring == [3, 4, 1, 2]
    cert = json.loads(cert_text)
    assert cert["classes"] == {"1a": [2], "1b": [3], "2a": [0], "2b": [1]}
    assert cert["verified"] is True
    assert len(cert["lemma_trace"]) == 1
    assert cert["reducer_trace"] == []


def test_prism_coloring_frozen():
    coloring, cert_text = color_claw_free_cubic(prism())
    cert = json.loads(cert_text)
    assert cert["classes"] == {"1a": [1, 5], "1b": [2, 4], "2a": [3], "2b": [0]}
    assert verify_spacking(prism(), S1122, coloring) is None


def test_certificate_is_self_contained():
    g = diamond_necklace(4)
    coloring, cert_text = color_claw_free_cubic(g)
    g2, s, c2 = coloring_from_certificate(read_certificate(cert_text))
    assert sorted(g2.edges()) == sorted(g.edges())
    assert c2 == coloring
    assert verify_spacking(g2, s, c2) is None


def test_reducer_trace_appears_when_used():
    # claw-free cubic graph whose post-breaker remainder has a 7-cycle
    g = random_cubic(10, seed=100088)
    coloring, cert_text = color_claw_free_cubic(g)
    cert = json.loads(cert_text)
    assert cert["reducer_trace"] == [{"cycle_length": 7, "side": "B", "vertex": 2}]
    assert verify_spacking(g, S1122, coloring) is None


def test_precondition_errors():
    with pytest.raises(NotCubic):
        color_claw_free_cubic(cycle(5))
    with pytest.raises(NotClawFree) as e:
        color_claw_free_cubic(petersen())
    assert e.value.claw == (0, (1, 4, 5))
    with pytest.raises(NotClawFree):
        color_claw_free_cubic(k33())


def check_claw_precondition(g):
    # color raises NotClawFree carrying find_claw's claw exactly when there is one
    claw = find_claw(g)
    if claw is None:
        coloring, _ = color_claw_free_cubic(g)
        assert verify_spacking(g, S1122, coloring) is None
    else:
        with pytest.raises(NotClawFree) as e:
            color_claw_free_cubic(g)
        assert e.value.claw == claw
        assert str(e.value) == str(NotClawFree(claw))


@settings(max_examples=80, deadline=None)
@given(st.one_of(oracles.cubic_graphs(max_n=20), oracles.cubic_graphs(max_n=12).map(inflate)))
def test_claw_precondition_matches_find_claw(g):
    check_claw_precondition(g)


def test_claw_precondition_matches_find_claw_on_gadgets():
    for n in (10, 20, 40):
        for seed in range(3):
            check_claw_precondition(problem1_family(n, seed))


@settings(max_examples=60, deadline=None)
@given(oracles.graphs(min_n=1, max_n=10), st.booleans())
def test_non_cubic_raises_not_cubic_before_the_claw_check(g, force):
    assume(not is_cubic(g))
    with pytest.raises(NotCubic):
        color_claw_free_cubic(g, force=force)


def test_clawed_non_cubic_raises_not_cubic():
    # Petersen less one edge, and K_{1,3}: both hold a claw, and both fail
    # the cubic check first
    less = build_graph(10, [e for e in petersen().edges() if e != (0, 1)])
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    for g in (less, star):
        assert find_claw(g) is not None
        with pytest.raises(NotCubic):
            color_claw_free_cubic(g)


def test_force_surfaces_stuck_instead_of_lying():
    with pytest.raises(StuckOddCycle) as e:
        color_claw_free_cubic(petersen(), force=True)
    assert e.value.claw is not None


def test_non_bipartite_remainder_raises_before_any_certificate(monkeypatch):
    # a reducer that stops early leaves the prism's triangle 3-4-5 behind,
    # with the clashing 2-coloring its last round computed; the certificate
    # writer's own check refuses it, so no certificate comes out
    def stop_early(g, pair):
        remaining = frozenset({1, 2, 3, 4, 5})
        color = two_coloring(induced_subgraph(g, remaining))[0]
        state = ReductionState(ext_a=frozenset({0}), ext_b=frozenset(), remaining=remaining,
                               additions=(), color=tuple(color))
        return state, []

    written = []
    write_certificate = pipeline.write_certificate

    def spy(*args):
        certificate = write_certificate(*args)
        written.append(certificate)
        return certificate

    monkeypatch.setattr(pipeline, "reduce_odd_cycles", stop_early)
    monkeypatch.setattr(pipeline, "write_certificate", spy)
    with pytest.raises(RefusesUnverified, match="vertices 3 and 5 share class 1"):
        color_claw_free_cubic(prism())
    assert written == []


def test_force_can_succeed_off_contract():
    # k33 has claws but its reduction happens to go through
    coloring, _ = color_claw_free_cubic(k33(), force=True)
    assert verify_spacking(k33(), S1122, coloring) is None


@pytest.mark.parametrize("make", [
    k4,
    prism,
    lambda: diamond_necklace(2),
    lambda: diamond_necklace(5),
    lambda: inflate(k4()),
    lambda: inflate(prism()),
    lambda: inflate(petersen()),
    lambda: oracles.disjoint_union(k4(), prism()),
    lambda: oracles.disjoint_union(k4(), k4()),
])
def test_pipeline_verifies_on_fixtures(make):
    g = make()
    coloring, cert_text = color_claw_free_cubic(g)
    assert verify_spacking(g, S1122, coloring) is None
    assert json.loads(cert_text)["n"] == g.n


def test_pipeline_agrees_with_oracle_small():
    for g in (k4(), prism(), diamond_necklace(2), diamond_necklace(3), inflate(k4())):
        coloring, _ = color_claw_free_cubic(g)
        assert verify_spacking(g, S1122, coloring) is None
        assert exists_spacking(g, S1122).status == "yes"


def test_pipeline_handles_disconnected_k4s():
    g = oracles.disjoint_union(k4(), k4(), k4())
    coloring, cert_text = color_claw_free_cubic(g)
    assert verify_spacking(g, S1122, coloring) is None
    assert json.loads(cert_text)["n"] == 12


def test_benchmark_wrapped_names_exist():
    # the benchmark times a layer by swapping a name the program calls and
    # silently skips a name the program no longer has, so a move or rename
    # would drop its per-layer metric without an error; its table is read
    # here.  One entry is stale: the pipeline leaves verification to
    # write_certificate, whose module's entry records the same span
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = spans.INTERPOSED
    missing = [(module, name) for module, name, _, _ in table
               if not callable(getattr(getattr(packfour, module), name, None))]
    assert missing == [("pipeline", "verify_spacking")]
    assert ({span for _, _, span, _ in table}
            == {span for module, name, span, _ in table if (module, name) not in missing})
