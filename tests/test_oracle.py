from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from packfour import cli
from packfour.cli import batch_decide, decide_line
from packfour.formats import write_graph6
from packfour.generators import cycle, diamond_necklace, inflate, k4, k33, petersen, prism
from packfour.oracle import (
    DEFAULT_VERTEX_CAP,
    OracleResult,
    all_pairs_distances,
    exists_spacking,
)
from packfour.packing import SSpec, verify_spacking

import oracles
from oracles import graphs

S1122 = SSpec((1, 1, 2, 2))
S1123 = SSpec((1, 1, 2, 3))


# verdicts pinned by hand argument, not by running the oracle:
#   C5 (1,2): class 1 holds at most 2 of 5 vertices, class 2 at most 1 (any
#     two vertices of C5 are within distance 2), 2 + 1 < 5.
#   K4 (1,1,1): independent sets in K4 are single vertices, 3 * 1 < 4.
#   PETERSEN (1,1,2,2): diameter 2, so 2-packings are singletons; two maximum
#     independent sets cover at most 8 vertices, 4 + 4 + 1 + 1 < 10.
VERDICTS = [
    (cycle(5), (1, 2), "no"),
    (cycle(5), (1, 1, 2), "yes"),
    (k4(), (1, 1, 1), "no"),
    (k4(), (1, 1, 2, 2), "yes"),
    (petersen(), (1, 1, 2, 2), "no"),
    (petersen(), (1, 1, 1), "yes"),
    (prism(), (1, 1, 2, 2), "yes"),
    (prism(), (1, 1, 2, 3), "yes"),
    (k33(), (1, 1), "yes"),
]


@pytest.mark.parametrize("g,s,want", VERDICTS)
def test_frozen_verdicts(g, s, want):
    res = exists_spacking(g, SSpec(s))
    assert res.status == want
    if want == "yes":
        assert verify_spacking(g, SSpec(s), res.coloring) is None


def test_empty_graph_trivially_colorable():
    from packfour.graph import build_graph
    assert exists_spacking(build_graph(0, []), S1122) == OracleResult("yes", [])


def test_vertex_cap():
    pet = petersen()
    res = exists_spacking(inflate(pet), S1122)  # 30 vertices
    assert res.status == "unknown"
    assert "30" in res.reason
    assert exists_spacking(pet, S1122, vertex_cap=9).status == "unknown"
    # raising the cap turns unknown into a real verdict
    assert exists_spacking(pet, S1122, vertex_cap=10).status == "no"


def test_all_pairs_distances_matches_floyd_warshall():
    g = diamond_necklace(3)
    fw = oracles.floyd_warshall(g)
    ours = all_pairs_distances(g)
    for u in range(g.n):
        for v in range(g.n):
            assert ours[u][v] == fw[u][v]


@given(graphs(max_n=7), st.sampled_from([(1,), (1, 2), (1, 1, 2), (1, 1, 2, 2)]))
@settings(max_examples=50, deadline=None)
def test_yes_always_carries_verified_witness(g, s):
    res = exists_spacking(g, SSpec(s))
    assert res.status in ("yes", "no")
    if res.status == "yes":
        assert verify_spacking(g, SSpec(s), res.coloring) is None


@given(graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_spec_extension_is_monotone(g):
    # anything colorable with (1,1,2) stays colorable with an extra class,
    # and a (1,1,2,2) "no" forces a (1,1,2) "no"
    small = exists_spacking(g, SSpec((1, 1, 2)))
    big = exists_spacking(g, S1122)
    if small.status == "yes":
        assert big.status == "yes"
    if big.status == "no":
        assert small.status == "no"


@pytest.mark.parametrize("make", [k4, prism, lambda: cycle(5), lambda: cycle(7), k33])
def test_relabeling_invariance(make):
    g = make()
    want = exists_spacking(g, S1122).status
    for i in range(20):
        perm = oracles.random_perm(g.n, seed=31 * i + 5)
        assert exists_spacking(oracles.permute(g, perm), S1122).status == want


def test_decide_line_yes_and_error():
    rec = decide_line("C~", S1122, DEFAULT_VERTEX_CAP)
    assert rec["verdict"] == "yes" and rec["n"] == 4
    coloring = [int(c) for c in rec["detail"].split(",")]
    assert verify_spacking(k4(), S1122, coloring) is None
    assert "flag" not in rec

    rec = decide_line("C" + chr(20), S1122, DEFAULT_VERTEX_CAP)
    assert rec["verdict"] == "error" and rec["n"] is None
    assert "position" in rec["detail"]


def test_decide_line_no_without_flag():
    # petersen is cubic but clawed: a "no" must not be flagged
    rec = decide_line(write_graph6(petersen()), S1122, DEFAULT_VERTEX_CAP)
    assert rec["verdict"] == "no"
    assert "flag" not in rec
    # non-cubic "no" under an unrelated spec: no flag either
    rec = decide_line(write_graph6(cycle(5)), SSpec((1, 2)), DEFAULT_VERTEX_CAP)
    assert rec["verdict"] == "no"
    assert "flag" not in rec


def test_decide_line_flags_are_wired(monkeypatch):
    # no genuine claw-free cubic "no" is known for either spec (that is the
    # point of the whole exercise), so force the verdict to pin the detector
    monkeypatch.setattr(cli, "exists_spacking",
                        lambda g, s, cap: OracleResult("no"))
    rec = decide_line("C~", S1123, DEFAULT_VERTEX_CAP)
    assert rec["flag"] == "candidate-counterexample"
    assert rec["echo"] == "C~"
    rec = decide_line("C~", S1122, DEFAULT_VERTEX_CAP)
    assert rec["flag"] == "theorem-violation"
    rec = decide_line(write_graph6(petersen()), S1123, DEFAULT_VERTEX_CAP)
    assert "flag" not in rec  # clawed, stays unflagged even when forced


def test_batch_decide_orders_and_summarizes():
    lines = [
        write_graph6(k4()),
        "not graph6 \x01".replace("\x01", chr(1)),
        write_graph6(petersen()),
        write_graph6(inflate(petersen())),  # over the default cap
    ]
    records, summary = batch_decide(lines, S1122, DEFAULT_VERTEX_CAP, 1)
    assert [r["index"] for r in records] == [0, 1, 2, 3]
    assert [r["verdict"] for r in records] == ["yes", "error", "no", "unknown"]
    assert summary["total"] == 4
    assert (summary["yes"], summary["no"], summary["unknown"], summary["errors"]) == (1, 1, 1, 1)
    assert summary["s_spec"] == [1, 1, 2, 2]
    assert summary["flagged"] == []


def test_batch_decide_parallel_matches_serial():
    lines = [write_graph6(g) for g in (k4(), prism(), cycle(5), k33(), diamond_necklace(2))]
    serial = batch_decide(lines, S1123, DEFAULT_VERTEX_CAP, 1)
    parallel = batch_decide(lines, S1123, DEFAULT_VERTEX_CAP, 3)
    assert serial == parallel
