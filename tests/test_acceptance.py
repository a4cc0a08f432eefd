"""Acceptance gate: eight criteria, one test and one printed verdict line each.

The corpus below (157 claw-free cubic graphs, 4 to 60 vertices) is shared by
most criteria.  Runtime bounds are generous on purpose: they catch order-of-
magnitude regressions, not scheduler noise.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

import pytest

from packfour.cli import main
from packfour.errors import RefusesUnverified
from packfour.formats import parse_graph6, write_certificate, write_graph6
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
from packfour.graph import build_graph, find_claw, induced_subgraph, is_cubic, list_triangles
from packfour.oracle import exists_spacking
from packfour.packing import SSpec, verify_spacking
from packfour.pipeline import color_claw_free_cubic
from packfour.triangle_break import break_triangles
from packfour.odd_cycle import reduce_odd_cycles

import oracles
from oracles import is_k_packing, recompute_pair
from test_triangle_break import replay_and_check

S1122 = SSpec((1, 1, 2, 2))

PER_GRAPH_COLOR_BUDGET = 1.0   # seconds
CORPUS_TOTAL_BUDGET = 120.0    # seconds
PER_GRAPH_ORACLE_BUDGET = 10.0 # seconds


@contextmanager
def criterion(num: int, label: str, cap):
    """Print one verdict line per criterion, outside pytest's capture."""
    try:
        yield
    except BaseException:
        with cap.disabled():
            print(f"ACCEPTANCE {num} ({label}): FAIL", flush=True)
        raise
    with cap.disabled():
        print(f"ACCEPTANCE {num} ({label}): PASS", flush=True)


def build_corpus() -> list:
    graphs = [k4(), prism()]
    graphs += [diamond_necklace(k) for k in range(2, 9)]
    graphs += [inflate(g) for g in (k4(), k33(), prism(), petersen())]
    # the named list alone is 13 graphs; seeded random inflations fill the
    # corpus out past the required 150
    for n_base in range(4, 21, 2):
        for s in range(16):
            graphs.append(inflate(random_cubic(n_base, seed=1000 * n_base + s)))
    return graphs


@pytest.fixture(scope="module")
def corpus():
    graphs = build_corpus()
    assert len(graphs) == 157
    for g in graphs:
        assert is_cubic(g) and find_claw(g) is None
    return graphs


def test_criterion_1_corpus_colors_and_verifies(corpus, tmp_path, capsys):
    with criterion(1, "full corpus colored and certificate-verified", capsys):
        t_start = time.perf_counter()
        inp = tmp_path / "corpus.g6"
        inp.write_text("".join(write_graph6(g) + "\n" for g in corpus))
        certs = tmp_path / "certs.jsonl"
        assert main(["color", str(inp), "--out", str(certs)]) == 0
        cert_lines = certs.read_text().splitlines()
        assert len(cert_lines) == len(corpus)

        worst = 0.0
        for i, g in enumerate(corpus):
            t0 = time.perf_counter()
            gfile = tmp_path / "one.g6"
            gfile.write_text(write_graph6(g) + "\n")
            cfile = tmp_path / "one.json"
            cfile.write_text(cert_lines[i] + "\n")
            assert main(["verify", str(gfile), str(cfile)]) == 0
            coloring, _ = color_claw_free_cubic(g)
            assert verify_spacking(g, S1122, coloring) is None
            worst = max(worst, time.perf_counter() - t0)
        total = time.perf_counter() - t_start
        assert worst < PER_GRAPH_COLOR_BUDGET, f"slowest graph took {worst:.2f}s"
        assert total < CORPUS_TOTAL_BUDGET, f"corpus took {total:.1f}s"


def test_criterion_2_triangle_breaker_on_all_cubic(capsys):
    with criterion(2, "triangle breaker on cubic graphs, claw-free or not", capsys):
        cases = [petersen(), k33()]
        for i in range(50):
            n = 4 + 2 * (i % 9)
            cases.append(random_cubic(n, seed=5000 + i))
        for g in cases:
            pair, trace = break_triangles(g)  # Stuck would raise
            assert pair.surviving == 0
            assert not (pair.a & pair.b)
            assert is_k_packing(g, pair.a, 2) and is_k_packing(g, pair.b, 2)
            # remainder really is triangle-free, by independent triple scan
            marked = pair.marked
            assert all(set(t) & marked for t in oracles.brute_triangles(g))
            replay_and_check(g, trace, pair)  # strict ascent, <= 2n steps


def test_criterion_3_oracle_agrees_with_pipeline(corpus, capsys):
    with criterion(3, "exact oracle agrees with pipeline on n <= 14", capsys):
        small = [g for g in corpus if g.n <= 14]
        assert len(small) >= 5
        for g in small:
            t0 = time.perf_counter()
            res = exists_spacking(g, S1122)
            assert time.perf_counter() - t0 < PER_GRAPH_ORACLE_BUDGET
            assert res.status == "yes"
            assert verify_spacking(g, S1122, res.coloring) is None
            coloring, _ = color_claw_free_cubic(g)
            assert verify_spacking(g, S1122, coloring) is None


def test_criterion_4_negative_controls(capsys):
    with criterion(4, "negative controls are exact", capsys):
        assert exists_spacking(cycle(5), SSpec((1, 2))).status == "no"
        assert exists_spacking(k4(), SSpec((1, 1, 1))).status == "no"
        # a corrupted certificate (two adjacent 1a vertices) is refused
        coloring, _ = color_claw_free_cubic(prism())
        bad = list(coloring)
        v = coloring.index(1)
        u = prism().adj[v][0]
        bad[u] = 1
        assert verify_spacking(prism(), S1122, bad) is not None
        with pytest.raises(RefusesUnverified):
            write_certificate(prism(), bad)


def test_criterion_5_invariant_suites(corpus, capsys):
    with criterion(5, "move/addition invariants and relabeling invariance", capsys):
        # replay breaker and reducer traces on a corpus slice: 2-packings after
        # every step, cached weight and survivor count equal recomputation
        for g in corpus[:6] + corpus[-3:]:
            pair, trace = break_triangles(g)
            replay_and_check(g, trace, pair)
            state, additions = reduce_odd_cycles(g, pair)
            ext_a, ext_b = set(pair.a), set(pair.b)
            for add in additions:
                (ext_a if add.side == "A" else ext_b).add(add.vertex)
                assert is_k_packing(g, ext_a, 2) and is_k_packing(g, ext_b, 2)
                assert not (ext_a & ext_b)
            sub, _ = induced_subgraph(g, state.remaining)
            assert list_triangles(sub) == []
            here = recompute_pair(g, pair.a, pair.b)
            assert (here.weight, here.surviving) == (pair.weight, 0)
        # oracle verdicts are invariant under 20 random relabelings (n <= 10)
        for g in (k4(), prism(), cycle(5), diamond_necklace(2), petersen()):
            want = exists_spacking(g, S1122).status
            for i in range(20):
                perm = oracles.random_perm(g.n, seed=97 * i + 13)
                assert exists_spacking(oracles.permute(g, perm), S1122).status == want


def test_criterion_6_graph6_round_trip(corpus, capsys):
    with criterion(6, "graph6 round trip and C~ cross-check", capsys):
        import networkx as nx

        for g in corpus:
            enc = write_graph6(g)
            back = parse_graph6(enc)
            assert back.n == g.n and sorted(back.edges()) == sorted(g.edges())
            assert write_graph6(back) == enc
        # "C~" <-> K4 against the published byte layout: size byte 63 + 4,
        # then the six upper-triangle bits, all ones
        assert write_graph6(k4()) == chr(63 + 4) + chr(63 + 0b111111)
        assert sorted(parse_graph6("C~").edges()) == sorted(k4().edges())
        nxg = nx.from_graph6_bytes(b"C~")
        assert sorted(map(tuple, map(sorted, nxg.edges()))) == sorted(k4().edges())


def test_criterion_7_determinism(corpus, tmp_path, capsys):
    with criterion(7, "byte-identical certificates across runs", capsys):
        inp = tmp_path / "corpus.g6"
        inp.write_text("".join(write_graph6(g) + "\n" for g in corpus))
        first = tmp_path / "run1.jsonl"
        second = tmp_path / "run2.jsonl"
        assert main(["color", str(inp), "--out", str(first)]) == 0
        assert main(["color", str(inp), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        for g in corpus[:20]:
            _, c1 = color_claw_free_cubic(g)
            _, c2 = color_claw_free_cubic(g)
            assert c1 == c2


def test_criterion_8_problem2_experiment(corpus, tmp_path, capsys):
    with criterion(8, "problem2 experiment end-to-end", capsys):
        small = [g for g in corpus if g.n <= 14]
        inp = tmp_path / "small.g6"
        inp.write_text("".join(write_graph6(g) + "\n" for g in small))
        assert main(["experiment", "problem2", "--input", str(inp)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["total"] == len(small)
        assert summary["errors"] == 0
        assert summary["s_spec"] == [1, 1, 2, 3]
        assert summary["yes"] + summary["no"] + summary["unknown"] == len(small)
        # flags are exploratory output, not ground truth; surface, don't assert
        if summary["flagged"]:
            with capsys.disabled():
                print(f"problem2 flagged graphs: {summary['flagged']}", flush=True)
