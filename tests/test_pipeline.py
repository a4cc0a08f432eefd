from __future__ import annotations

import json

import pytest

from packfour.errors import NotClawFree, NotCubic, StuckOddCycle
from packfour.formats import coloring_from_certificate, read_certificate
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
from packfour import pipeline
from packfour.graph import build_graph
from packfour.odd_cycle import ReductionState
from packfour.oracle import exists_spacking
from packfour.packing import SSpec, verify_spacking
from packfour.pipeline import color_claw_free_cubic

import oracles

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


def test_force_surfaces_stuck_instead_of_lying():
    with pytest.raises(StuckOddCycle) as e:
        color_claw_free_cubic(petersen(), force=True)
    assert e.value.claw is not None


def test_non_bipartite_remainder_raises_before_any_certificate(monkeypatch):
    # a reducer that stops early leaves the prism's triangle 3-4-5 behind
    def stop_early(g, pair):
        state = ReductionState(base_a=pair.a, base_b=pair.b, ext_a=frozenset({0}),
                               ext_b=frozenset(), remaining=frozenset({1, 2, 3, 4, 5}),
                               additions=())
        return state, []

    written = []
    write_certificate = pipeline.write_certificate

    def spy(*args):
        written.append(args)
        return write_certificate(*args)

    monkeypatch.setattr(pipeline, "reduce_odd_cycles", stop_early)
    monkeypatch.setattr(pipeline, "write_certificate", spy)
    with pytest.raises(RuntimeError, match=r"odd cycle \(3, 4, 5\)"):
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
