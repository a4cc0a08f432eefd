"""Run the mutant catalogue: every mutant must be killed by the tests named for it.

A mutant is a literal patch on one file under src/packfour: the old text,
which must occur exactly once, the new text that replaces it, and the tests
that should fail under it.  For each mutant the script copies src/ into a
temporary directory, applies the patch there, and runs those tests in one
`python -m pytest -x` subprocess with the copy first on PYTHONPATH, under the
mutant's own time bound.  The mutant is killed when a test fails, or when the
bound runs out; a mutant that makes the code loop forever counts as killed
only that way, so its bound is short.  One pytest process runs at a time.

Before the mutants, every named test runs on an unpatched copy, which must
be the package the tests import.  The tests run grouped by their mutants'
bound, each group under half that bound, and must pass: otherwise a failure
under a mutant would say nothing about the patch, and a run past the bound
would not show that the patch made the code loop.

    python scripts/mutants.py

The catalogue holds 33 mutants and runs in about 100 s on a 2-vCPU Xeon
virtual machine.

Prints one line per mutant.  Exits 0 when every mutant is killed, and 1 when
one survives, when its old text does not occur exactly once, when pytest
cannot run its tests, or when the unpatched run fails or outlives half a
bound.  Needs the test
dependencies (pytest, hypothesis, networkx), like the test suite.

A change that adds a correctness check adds the mutants that check must kill
here, with the tests that kill them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# path is relative to src/packfour; tests are pytest node ids relative to the
# repository root; bound_s is the time bound of the one pytest run
Mutant = namedtuple("Mutant", "name path old new tests bound_s")

MISTYPED_S_SPEC = tuple(
    f"tests/test_cli.py::test_verify_mistyped_certificate_field[s_spec-{case}]"
    for case in ("5", "value8", "value9", "value10", "value11", "value12"))
FIRST_VIOLATION = ("tests/test_packing.py::test_verify_reports_first_violation",)
FIRST_MOVE = ("tests/test_triangle_break.py::test_first_move_sound",
              "tests/test_triangle_break.py::test_every_step_is_the_reference_first_move")
EXTRA_REMOVAL = ("tests/test_triangle_break.py::test_break_relabelled_necklace_frozen",
                 "tests/test_triangle_break.py::test_break_relabelled_diamond_strings_frozen")
BUILD_GRAPH = ("tests/test_graph.py::test_build_graph_validates",)
FRESH_LAYOUT = ("tests/test_odd_cycle.py::test_relayer_equals_fresh_layout",)
RELAYER = (*FRESH_LAYOUT, "tests/test_odd_cycle.py::test_reduce_pentagonal_prism_frozen")

CATALOGUE = [
    # a certificate may name (1,1,2,2) alone
    Mutant("s-spec-check-removed", "formats.py",
           '    if not (_ints(cert["s_spec"]) and cert["s_spec"] == [1, 1, 2, 2]):\n',
           "    if False:\n",
           MISTYPED_S_SPEC, 120),
    # JSON true decodes to bool, and [true, 1, 2, 2] == [1, 1, 2, 2]
    Mutant("ints-accept-bool", "formats.py",
           "{*map(type, values)} <= {int}",
           "{*map(type, values)} <= {int, bool}",
           MISTYPED_S_SPEC, 120),
    # a claimed size other than the input's is a mismatch before any build
    Mutant("verify-skips-size-check", "cli.py",
           'matches = type(cert["n"]) is not int or cert["n"] == g.n',
           "matches = True",
           ("tests/test_cli.py::test_verify_rejects_claimed_size_before_building",), 120),
    # a zero-gain move: the breaker's weight stops rising and it never ends
    Mutant("breaker-zero-gain-pair", "triangle_break.py",
           "                if slack > 0:\n",
           "                if slack >= 0:\n",
           ("tests/test_pipeline.py::test_pipeline_verifies_on_fixtures",), 15),
    Mutant("breaker-zero-gain-single", "triangle_break.py",
           "            if spare > 0:\n",
           "            if spare >= 0:\n",
           ("tests/test_pipeline.py::test_pipeline_verifies_on_fixtures",), 15),
    # the first violation is the lexicographically smallest pair
    Mutant("verify-largest-pair", "packing.py",
           "    u, v = min(pairs)\n",
           "    u, v = max(pairs)\n",
           FIRST_VIOLATION, 120),
    # two members of a radius-2 class with a common neighbour violate it
    Mutant("verify-route-2-off-at-radius-2", "packing.py",
           "far = [a >= 2 for a in radius]",
           "far = [a >= 3 for a in radius]",
           FIRST_VIOLATION, 120),
    # a vertex on two triangles weighs 2
    Mutant("breaker-heavy-weighs-3", "triangle_break.py",
           "HEAVY = 2  #",
           "HEAVY = 3  #",
           ("tests/test_triangle_break.py::test_vertex_weight",), 120),
    # a removal both items force is weighed once
    Mutant("breaker-shared-removal-counted-twice", "triangle_break.py",
           "                    slack += w[ra]  # forced by both, removed once\n",
           "                    pass\n",
           FIRST_MOVE, 120),
    # a pair forcing two distinct removals on side a has no move
    Mutant("breaker-collision-on-a-accepted", "triangle_break.py",
           "                    if ra != sa:\n",
           "                    if False:\n",
           FIRST_MOVE, 120),
    # _move: one forced removal r, and the least affordable chosen x < r on
    # the free side within distance 2 of an addition, when the slack exceeds
    # LIGHT
    Mutant("move-no-extra-ever", "triangle_break.py",
           "            if extras:\n",
           "            if False:\n",
           EXTRA_REMOVAL, 120),
    Mutant("move-extra-without-x-below-r", "triangle_break.py",
           "if x < r and w[x] < slack]",
           "if w[x] < slack]",
           EXTRA_REMOVAL, 120),
    Mutant("move-extra-guard-at-heavy", "triangle_break.py",
           "if slack > LIGHT and (ra is None)",
           "if slack > HEAVY and (ra is None)",
           EXTRA_REMOVAL, 120),
    Mutant("move-extra-at-full-slack", "triangle_break.py",
           "and w[x] < slack]",
           "and w[x] <= slack]",
           ("tests/test_triangle_break.py::"
            "test_break_relabelled_diamond_strings_frozen[n32-heavy-unaffordable]",), 120),
    Mutant("move-largest-extra", "triangle_break.py",
           "ra, rb = (r, min(extras)) if rb is None else (min(extras), r)",
           "ra, rb = (r, max(extras)) if rb is None else (max(extras), r)",
           EXTRA_REMOVAL, 120),
    Mutant("move-extra-from-forced-side", "triangle_break.py",
           "(ra, self.sides[SIDE_B]) if rb is None else (rb, self.sides[SIDE_A])",
           "(ra, self.sides[SIDE_A]) if rb is None else (rb, self.sides[SIDE_B])",
           EXTRA_REMOVAL, 120),
    # the candidates lie within distance 3 of all three triangle vertices
    Mutant("near-reads-two-balls", "triangle_break.py",
           "for o in adj[t[0]] + adj[t[1]] + adj[t[2]]",
           "for o in adj[t[0]] + adj[t[1]]",
           ("tests/test_triangle_break.py::test_near_reads_three_balls_for_nine",), 120),
    # build_graph's append pass takes canonical pairs only
    Mutant("build-route-starts-below-zero", "graph.py",
           "    pu = pv = 0\n",
           "    pu = pv = -1\n",
           BUILD_GRAPH, 120),
    Mutant("build-route-accepts-equal-v", "graph.py",
           "else pv < v < n):",
           "else pv <= v < n):",
           BUILD_GRAPH, 120),
    # a radius-2 ball holds the neighbours as well as theirs
    Mutant("ball2-without-neighbours", "graph.py",
           "    ball = set(adj[v])\n",
           "    ball = set()\n",
           ("tests/test_graph.py::test_ball2_agrees_with_vertices_within_at_any_degree",), 120),
    # a neighbour of a chosen vertex can have chosen neighbours on both sides
    Mutant("live-drops-only-vertex-in-hand", "odd_cycle.py",
           "live[u] = tuple([x for x in adj[u] if x not in marked])",
           "live[u] = tuple([x for x in adj[u] if x != v])",
           ("tests/test_odd_cycle.py::test_reduce_remainder_drops_chosen_vertices_of_both_sides",),
           120),
    # an absorbed vertex leaves its neighbours' entries
    Mutant("cut-keeps-neighbour-entries", "odd_cycle.py",
           "        adj[w] = tuple([x for x in adj[w] if x != v])\n",
           "        pass\n",
           ("tests/test_odd_cycle.py::test_reduce_problem1_gadget_frozen",), 120),
    # the witness edge is the lexicographically first in layer h
    Mutant("witness-largest-edge", "odd_cycle.py",
           "    u, v = min((u, v) for u in layer",
           "    u, v = max((u, v) for u in layer",
           ("tests/test_graph.py::test_shortest_odd_cycle_frozen",), 120),
    # an absorbed root: every piece is laid out again from its smallest vertex
    Mutant("root-laid-out-in-set-order", "odd_cycle.py",
           "return lay_out(adj, sorted(comp), dist)",
           "return lay_out(adj, list(comp), dist)",
           RELAYER, 120),
    Mutant("root-keeps-depths", "odd_cycle.py",
           "            dist[x] = -1\n",
           "            pass\n",
           RELAYER, 120),
    # relayer: the layering and clash edges a fresh layout would give
    Mutant("empty-repair-keeps-clash", "odd_cycle.py",
           "            clash.discard((v, y) if v < y else (y, v))\n",
           "            pass\n",
           FRESH_LAYOUT, 120),
    Mutant("repair-seeded-from-first-kept", "odd_cycle.py",
           "heap.append((min(kept) + 1, w))",
           "heap.append((kept[0] + 1, w))",
           FRESH_LAYOUT, 120),
    Mutant("repair-adds-no-clash", "odd_cycle.py",
           "                clash.add((w, y) if w < y else (y, w))\n",
           "                pass\n",
           FRESH_LAYOUT, 120),
    # cut_vertex: each piece cut off from the root is laid out on its own
    Mutant("split-not-laid-out", "odd_cycle.py",
           "    pieces = lay_out(adj, stray, dist)\n",
           "    pieces = []\n",
           FRESH_LAYOUT, 120),
    Mutant("split-left-in-root-set", "odd_cycle.py",
           "    comp.difference_update(stray)\n",
           "    pass\n",
           FRESH_LAYOUT, 120),
    # one absorption per shortest odd cycle: a second vertex of the same
    # cycle, a live neighbour of the first, is absorbed too when it can join
    Mutant("reducer-absorbs-two-per-cycle", "odd_cycle.py",
           "        ext[side].add(v)\n"
           "        additions.append(Addition(v, side, 2 * h + 1))\n"
           "        settle(cut_vertex(live, v, root, comp, dist, clash))\n",
           "        for v in (v, *live[v][1:]):\n"
           "            side = addable_side(g, ext[\"A\"], ext[\"B\"], v)\n"
           "            if side is not None:\n"
           "                ext[side].add(v)\n"
           "                additions.append(Addition(v, side, 2 * h + 1))\n"
           "                settle(cut_vertex(live, v, root, comp, dist, clash))\n",
           ("tests/test_odd_cycle.py::test_reduce_pentagonal_prism_frozen",), 120),
    # an error's payload is its attributes as well as its args
    Mutant("error-sets-no-attributes", "errors.py",
           "            setattr(self, name, value)\n",
           "            pass\n",
           ("tests/test_cli.py::test_package_errors_keep_their_payload_as_args",
            "tests/test_cli.py::test_package_errors_survive_pickling"), 120),
    # a wrong argument count is a TypeError when the error is built
    Mutant("error-arity-unchecked", "errors.py",
           "        if self.fields is not None and len(args) != len(self.fields):\n",
           "        if False:\n",
           ("tests/test_cli.py::test_package_error_with_wrong_argument_count_is_a_type_error",),
           120),
]


def copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def python(src: Path, *args, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter from the repository root with src first on the path."""
    paths = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, **kwargs)


def run_pytest(src: Path, tests, bound_s: float) -> int | None:
    """pytest's exit code on the tests, or None when the run outlives its
    bound (subprocess.run kills it then)."""
    try:
        return python(src, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests,
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                      timeout=bound_s).returncode
    except subprocess.TimeoutExpired:
        return None


def check_unpatched(mutants) -> str | None:
    """None when the unpatched package is the one the tests import and the
    tests of the mutants with each bound pass on it within half that bound;
    otherwise what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        imported = python(src, "-c", "import packfour; print(packfour.__file__)",
                          capture_output=True, text=True).stdout.strip()
        if not imported.startswith(str(src)):
            return f"the tests would import packfour from {imported or 'nowhere'}, not the copy"
        for bound_s in sorted({m.bound_s for m in mutants}):
            tests = list(dict.fromkeys(
                t for m in mutants if m.bound_s == bound_s for t in m.tests))
            code = run_pytest(src, tests, bound_s / 2)
            if code is None:
                return f"the tests of the {bound_s} s mutants ran past {bound_s / 2} s"
            if code != 0:
                return f"pytest exit code {code} on the tests of the {bound_s} s mutants"
    return None


def run_mutant(m: Mutant) -> tuple[bool, str]:
    """(killed, how) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        path = src / "packfour" / m.path
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return False, f"old text occurs {text.count(m.old)} times in {m.path}, not once"
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        start = time.monotonic()
        code = run_pytest(src, m.tests, m.bound_s)
        took = time.monotonic() - start
    if code is None:
        return True, f"ran past its {m.bound_s} s bound"
    if code in (1, 2):  # tests failed, or the mutated package failed to import
        return True, f"tests failed in {took:.1f} s"
    if code == 0:
        return False, f"SURVIVED: its tests passed in {took:.1f} s"
    return False, f"pytest exit code {code}: could not run the tests"


def main() -> int:
    problem = check_unpatched(CATALOGUE)
    if problem is not None:
        print(f"unpatched run: {problem}", file=sys.stderr)
        return 1
    survivors = 0
    for m in CATALOGUE:
        killed, how = run_mutant(m)
        survivors += not killed
        print(f"{'killed' if killed else 'FAILED'}\t{m.name}\t{how}", flush=True)
    print(f"{len(CATALOGUE) - survivors} of {len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
