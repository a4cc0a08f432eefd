"""Tests for the benchmark's own generator and output checker.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json

import pytest

import check
import gen
import speed
from packfour.formats import parse_graph6
from packfour.pipeline import color_claw_free_cubic

# sha256 of each workload's graph6 lines at seed 0; a change here means the
# benchmark's inputs drifted and earlier baselines no longer compare
SEED0_DIGESTS = {
    "corpus-batch": "c98e27fbfd358ac14e79fabb73811ec84fec6f84a91deefcd49ef217757ee391",
    "forced-gadget": "4d6f38c330aa8fd16329a64debcbb496aa77cfe08ce0e18e8d56bf3abbe34e4e",
}


def lines(workload, seed):
    return [gen.graph6(g) for g in gen.generate(workload, seed)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_for_a_fixed_seed(workload):
    first = lines(workload, 0)
    assert lines(workload, 0) == first
    assert gen.digest(first) == SEED0_DIGESTS[workload]
    assert lines(workload, 1) != first


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_pass_their_family_checks(workload):
    gen.check_inputs(workload, gen.generate(workload, 3))


def test_gadget_family_has_claws():
    for graph in gen.generate("forced-gadget", 0):
        assert gen.claws(graph)
        assert all(gen.on_short_cycle(graph))


def test_graph6_agrees_with_the_program_codec():
    sample = gen.generate("corpus-batch", 0)[:12]
    sample += gen.generate("forced-gadget", 0)[:3]  # n > 62 header
    for n, edges in sample:
        parsed = parse_graph6(gen.graph6((n, edges)))
        assert parsed.n == n and list(parsed.edges()) == edges


def certified(graph):
    _, cert = color_claw_free_cubic(parse_graph6(gen.graph6(graph)))
    return json.loads(cert)


def test_checker_accepts_a_program_certificate():
    graph = gen.generate("corpus-batch", 0)[-1]
    assert check.certificate_problems(graph, json.dumps(certified(graph))) == []


def test_checker_rejects_a_swapped_class():
    graph = gen.generate("corpus-batch", 0)[-1]
    cert = certified(graph)
    classes = cert["classes"]
    adj = gen.adjacency(*graph)
    assert check.packing_problems(adj, classes["1a"], 2, "1a")  # 1a is no 2-packing
    classes["1a"], classes["2a"] = classes["2a"], classes["1a"]
    assert check.certificate_problems(graph, json.dumps(cert))


def test_checker_rejects_a_missing_edge():
    graph = gen.prism()
    cert = certified(graph)
    del cert["edges"][0]
    problems = check.certificate_problems(graph, json.dumps(cert))
    assert problems == ["edges differ from the input graph"]


def test_checker_rejects_a_class_that_is_not_a_partition():
    graph = gen.prism()
    cert = certified(graph)
    cert["classes"]["1a"].append(cert["classes"]["1b"][0])
    assert check.certificate_problems(graph, json.dumps(cert))


def test_witness_check_follows_the_spec():
    graph = gen.k4()
    assert check.witness_problems(graph, (1, 1, 1, 1), [1, 2, 3, 4]) == []
    assert check.witness_problems(graph, (1, 1, 2, 2), [1, 1, 3, 4])
    assert check.witness_problems(graph, (1, 2), [1, 2, 1, 2])
    assert check.witness_problems(graph, (1, 1, 1, 1), [1, 2, 3])


def test_rescaling_is_relative_to_the_reference_unit():
    ref = speed.REF_UNIT_S
    assert speed.scale(2.0, ref, ref) == pytest.approx(2.0)
    assert speed.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert speed.scale(2.0, ref, 3 * ref) == pytest.approx(1.0)
    assert speed.probe(0.001) > 0
