"""packfour benchmark: seeded workloads, end-to-end metrics, traced replay.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload corpus-batch --seed 1 --seconds 50 --trace 0

``--trace 0`` times the workload with nothing interposed and prints the
end-to-end metrics; ``--trace 1`` replays every graph with a span around each
call into packfour and prints the per-layer metrics, writing the spans to
``.perfbench/``.  Both modes check every output with check.py and print, as
the last line of stdout, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
output passed.

Set-up (import packfour, generate and check the inputs, a graph6 round trip
through the program, one warm-up call) runs SETUP_REPEATS times, spread
evenly over the run, and reports its median.  For ``--seconds`` the run then
makes passes over the inputs: operations (parse a graph, then color and
certify it) one at a time, each followed by the verify path on its
certificate.  After the first pass the in-process CLI colors the whole input
once as a ``--jobs 2`` batch, whose output is checked like the rest.

Each set-up, and each operation's color and verify parts, sits between two
probes of speed.py, and its time is rescaled to the reference machine's fast
level: the machine is a shared VM whose vCPUs switch between speeds 1.7 times
apart many times a second, in proportions that drift over minutes.
Latencies and verify times are the median of a graph's rescaled samples, and
the unscaled throughput is printed on a line of its own.  A batch keeps both
vCPUs busy, and no probe followed its time, so batches give no end-to-end
metric: their span is a per-layer metric of the traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
# bytecode is looked up under a directory that is never created, and never
# written: every set-up compiles packfour from source, whatever __pycache__
# an earlier run or test left in src/
sys.dont_write_bytecode = True
sys.pycache_prefix = str(HERE.parent / ".perfbench" / "no-bytecode")

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 7
# each probe lasts this share of the last raw time of the set-up, or of the
# input's color call, that it brackets (an operation has three probes), and at
# least PROBE_MIN_S; one not timed before is taken to last FIRST_GUESS_S
PROBE_SHARE = 0.15
PROBE_MIN_S = 0.002
FIRST_GUESS_S = 0.05
# graphs this small also get the exact oracle's independent decision after
# the verify path, as acceptance criterion 3 does; it is not timed
ORACLE_MAX_N = 14
JOBS = 2
SPAN_DIR = ".perfbench"
K4_GRAPH6 = "C~"

END_TO_END_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "graph_p50_ms": "ms",
    "graph_p90_ms": "ms",
    "verify_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: span totals in ms per pass over the inputs, counts per pass
LAYER_SPANS = {
    "formats.parse_graph6_ms": "formats.parse_graph6",
    "formats.write_graph6_ms": "formats.write_graph6",
    "formats.write_certificate_ms": "formats.write_certificate",
    "formats.read_certificate_ms": "formats.read_certificate",
    "formats.coloring_from_certificate_ms": "formats.coloring_from_certificate",
    "graph.find_claw_ms": "graph.find_claw",
    "triangle_break.break_triangles_ms": "triangle_break.break_triangles",
    "odd_cycle.reduce_odd_cycles_ms": "odd_cycle.reduce_odd_cycles",
    "packing.verify_spacking_ms": "packing.verify_spacking",
    "pipeline.color_ms": "pipeline.color",
    "oracle.all_pairs_distances_ms": "oracle.all_pairs_distances",
    "oracle.exists_spacking_ms": "oracle.exists_spacking",
}
LAYER_COUNTS = ("triangle_break.steps", "odd_cycle.additions",
                "oracle.yes", "oracle.no", "oracle.unknown")
CLI_SPAN = "cli.color_batch_jobs2"


def load_program():
    """Import packfour afresh from this checkout's src/ and return it."""
    if not (SRC / "packfour" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no packfour sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "packfour" or m.startswith("packfour.")]:
        del sys.modules[name]
    import packfour
    import packfour.cli  # noqa: F401  (not imported by the package itself)
    return packfour


def probe_budget(interval: float) -> float:
    return max(PROBE_MIN_S, PROBE_SHARE * interval)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Bench:
    """One run of one workload: inputs, checks, and the samples taken."""

    def __init__(self, workload: str, seed: int, tracing: bool):
        self.workload = workload
        self.seed = seed
        self.tracing = tracing
        self.force = workload == "forced-gadget"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[tuple[str, int], str] = {}
        self.setup_s: list[float] = []  # rescaled to the reference speed
        self.setup_raw = FIRST_GUESS_S
        self.setup_at: list[float] = []  # when each set-up after the first is due
        # rescaled samples per input; raw ones per input for the unscaled line
        self.latency: dict[int, list[float]] = {}
        self.raw_latency: dict[int, list[float]] = {}
        self.color_s: list[float] = []  # color_claw_free_cubic alone, per operation
        self.verify_latency: dict[int, list[float]] = {}
        self.verdicts: dict[int, str] = {}
        self.tracer = Tracer() if tracing else None

    # ------------------------------------------------------------ set-up

    def setup(self) -> None:
        """Import, generate and check inputs, round-trip them through the
        program's graph6 codec, warm up; record the seconds this took,
        rescaled."""
        before = speed.probe(probe_budget(self.setup_raw))
        t0 = perf_counter()
        self.P = load_program()
        self.graphs = gen.generate(self.workload, self.seed)
        gen.check_inputs(self.workload, self.graphs)
        self.lines = [gen.graph6(g) for g in self.graphs]
        self.inputs_digest = gen.digest(self.lines)
        F = self.P.formats
        self.codec_mismatch = [i for i, line in enumerate(self.lines)
                               if F.write_graph6(F.parse_graph6(line)) != line]
        self.spec = self.P.packing.SSpec((1, 1, 2, 2))
        self.P.pipeline.color_claw_free_cubic(F.parse_graph6(K4_GRAPH6))
        self.setup_raw = perf_counter() - t0
        self.setup_s.append(speed.scale(self.setup_raw, before, speed.probe(
            probe_budget(self.setup_raw))))

    def plan_setups(self, start: float, seconds: float) -> None:
        """Spread the set-ups after the first evenly over the run."""
        step = seconds / SETUP_REPEATS
        self.setup_at = [start + k * step for k in range(1, SETUP_REPEATS)]

    def setup_if_due(self) -> None:
        """Called between operations: run a set-up whose time has come."""
        if self.setup_at and perf_counter() >= self.setup_at[0]:
            self.setup_at.pop(0)
            self.setup()

    # ------------------------------------------------------------ checks

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def same_as_before(self, key: tuple[str, int], digest: str) -> bool:
        """Criterion 7 as a check: every pass yields the same output bytes."""
        return self.digests.setdefault(key, digest) == digest

    def check_certificate(self, i: int, cert: str) -> None:
        if ("cert", i) not in self.digests:
            problems = check.certificate_problems(self.graphs[i], cert)
            if problems:
                self.fail(f"input {i}: {problems[0]}")
                return
        if not self.same_as_before(("cert", i), sha(cert)):
            self.fail(f"input {i}: certificate differs from an earlier pass")

    def check_verdict(self, i: int, res) -> None:
        """The oracle must find a (1,1,2,2) witness the checker accepts."""
        self.verdicts[i] = res.status
        if res.status != "yes":
            self.fail(f"input {i}: oracle answered {res.status} under (1,1,2,2)")
            return
        if ("oracle", i) not in self.digests:
            problems = check.witness_problems(self.graphs[i], (1, 1, 2, 2), res.coloring)
            if problems:
                self.fail(f"input {i}: oracle witness {problems[0]}")
                return
        if not self.same_as_before(("oracle", i), sha(",".join(map(str, res.coloring)))):
            self.fail(f"input {i}: oracle witness differs from an earlier pass")

    # ------------------------------------------------------------ operations

    def verify(self, g, cert: str, call) -> bool:
        """The ``packfour verify`` path on one certificate; ``call(name, fn,
        *args)`` runs each public function, so a traced replay can put spans
        around them."""
        P = self.P
        cg, s, coloring = call("formats.coloring_from_certificate",
                               P.formats.coloring_from_certificate,
                               call("formats.read_certificate", P.formats.read_certificate, cert))
        return (list(cg.edges()) == list(g.edges())
                and call("packing.verify_spacking", P.packing.verify_spacking,
                         cg, s, coloring) is None)

    def cross_check(self, i: int, g, call) -> None:
        """On small graphs, the exact oracle decides (1,1,2,2) on its own."""
        if g.n <= ORACLE_MAX_N:
            res = call("oracle.exists_spacking", self.P.oracle.exists_spacking, g, self.spec)
            self.check_verdict(i, res)

    def op(self, i: int) -> float:
        """One untraced operation on input i, checked; a speed probe runs
        before its color part, between that and its verify part, and after
        it.  Returns its seconds, probes included."""
        P, line = self.P, self.lines[i]
        self.attempted += 1
        untraced = lambda _name, fn, *args: fn(*args)  # noqa: E731
        last = self.raw_latency.get(i)
        budget = probe_budget(last[-1] if last else FIRST_GUESS_S)
        start = perf_counter()
        before = speed.probe(budget)
        t0 = perf_counter()
        try:
            g = P.formats.parse_graph6(line)
            t1 = perf_counter()
            _, cert = P.pipeline.color_claw_free_cubic(g, force=self.force)
            t2 = perf_counter()
            self.check_certificate(i, cert)
            between = speed.probe(budget)
            t3 = perf_counter()
            ok = self.verify(g, cert, untraced)
            t4 = perf_counter()
            after = speed.probe(budget)
            if not ok:
                self.fail(f"input {i}: verify path rejects the certificate")
            self.cross_check(i, g, untraced)
        except Exception as e:  # any raise is a failed operation, not a crash
            self.fail(f"input {i}: {type(e).__name__}: {e}")
            return perf_counter() - start
        self.raw_latency.setdefault(i, []).append(t2 - t0)
        self.latency.setdefault(i, []).append(speed.scale(t2 - t0, before, between))
        self.verify_latency.setdefault(i, []).append(speed.scale(t4 - t3, between, after))
        self.color_s.append(t2 - t1)
        return perf_counter() - start

    def traced_op(self, i: int) -> float:
        """Replay input i through the public functions, one span per call."""
        P, tr, line = self.P, self.tracer, self.lines[i]
        tr.graph = i
        self.attempted += 1
        t0 = perf_counter()
        try:
            with tr.interpose(P):
                g = tr.call("formats.parse_graph6", P.formats.parse_graph6, line)
                _, cert = tr.call("pipeline.color", P.pipeline.color_claw_free_cubic,
                                  g, force=self.force)
                ok = self.verify(g, cert, tr.call)
                self.cross_check(i, g, tr.call)
                back = tr.call("formats.write_graph6", P.formats.write_graph6, g)
        except Exception as e:
            self.fail(f"input {i} (traced): {type(e).__name__}: {e}")
            return perf_counter() - t0
        if not ok:
            self.fail(f"input {i} (traced): verify path rejects the certificate")
        if back != line:
            self.fail(f"input {i}: graph6 round trip changed the line")
        self.check_certificate(i, cert)
        return perf_counter() - t0

    def measure(self, deadline: float) -> None:
        """Passes over the inputs until the deadline, one operation at a time,
        with one CLI batch after the first pass; at least one pass.  An
        operation whose last time says it would overrun the deadline ends the
        run."""
        n = len(self.lines)
        cost: dict[int, float] = {}  # last seconds of each input's operation
        for k in itertools.count():
            if k == n:
                self.timed_batch()
            if k >= n and perf_counter() + cost[k % n] > deadline:
                return
            self.setup_if_due()
            i = k % n
            cost[i] = self.op(i) + (self.traced_op(i) if self.tracing else 0.0)

    # ------------------------------------------------------------ CLI batches

    def color_batch(self) -> None:
        """``packfour color - --jobs 2`` in-process on the whole input."""
        argv = ["color", "-", "--jobs", str(JOBS)] + (["--force"] if self.force else [])
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO("".join(line + "\n" for line in self.lines))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.P.cli.main(argv)
        finally:
            sys.stdin = saved
        rows = out.getvalue().splitlines()
        self.attempted += len(self.lines)
        if code != 0 or len(rows) != len(self.lines):
            for _ in self.lines:
                self.fail(f"color --jobs {JOBS}: exit {code}, {len(rows)} lines")
            return
        for i, cert in enumerate(rows):
            self.check_certificate(i, cert)

    def timed_batch(self) -> None:
        """One CLI batch, inside a span when tracing."""
        if self.tracing:
            self.tracer.graph = None
            self.tracer.call(CLI_SPAN, self.color_batch)
        else:
            self.color_batch()

    # ------------------------------------------------------------ metrics

    def end_to_end(self) -> dict[str, float]:
        per_graph = [statistics.median(v) for v in self.latency.values()]
        per_verify = [statistics.median(v) for v in self.verify_latency.values()]
        deciles = statistics.quantiles(per_graph, n=10, method="inclusive")
        return {
            "setup_s": statistics.median(self.setup_s),
            "graphs_per_s": len(per_graph) / sum(per_graph),
            "graph_p50_ms": statistics.median(per_graph) * 1e3,
            "graph_p90_ms": deciles[8] * 1e3,
            "verify_per_s": len(per_verify) / sum(per_verify),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-pass totals: for each input, the mean over its replays, summed."""
        tr = self.tracer
        replays: dict[int, int] = {}
        for name, graph, _, _, parent in tr.spans:
            if parent == -1 and name == "formats.parse_graph6":
                replays[graph] = replays.get(graph, 0) + 1
        ms: dict[str, float] = {}
        for name, graph, start, end, _ in tr.spans:
            if graph is not None:
                ms[name] = ms.get(name, 0.0) + (end - start) * 1e3 / replays[graph]
        counts: dict[str, float] = {}
        for graph, name, value in tr.counts:
            counts[name] = counts.get(name, 0.0) + value / replays[graph]
        for status in self.verdicts.values():
            counts[f"oracle.{status}"] = counts.get(f"oracle.{status}", 0) + 1
        out = {metric: (ms.get(span, 0.0), "ms") for metric, span in LAYER_SPANS.items()}
        batches = [end - start for name, _, start, end, _ in tr.spans if name == CLI_SPAN]
        out["cli.color_batch_jobs2_ms"] = (statistics.median(batches) * 1e3, "ms")
        for name in LAYER_COUNTS:
            out[name] = (counts.get(name, 0), "count")
        steps = counts.get("triangle_break.steps", 0)
        out["triangle_break.ms_per_step"] = (
            ms.get("triangle_break.break_triangles", 0.0) / steps if steps else 0.0, "ms")
        out["pipeline.rest_ms"] = (ms.get("pipeline.color", 0.0) - sum(
            ms.get(s, 0.0) for s in ("graph.find_claw", "triangle_break.break_triangles",
                                     "odd_cycle.reduce_odd_cycles")), "ms")
        # every untraced operation is followed by a traced replay of the same
        # input, so the two sums of color_claw_free_cubic time cover the same graphs
        traced = sum(end - start for name, _, start, end, parent in tr.spans
                     if name == "pipeline.color" and parent == -1)
        untraced = sum(self.color_s)
        out["tracing.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    bench = Bench(args.workload, args.seed, bool(args.trace))
    # the first import also loads the standard-library modules packfour uses,
    # which later set-ups find already loaded; it is not timed
    load_program()
    bench.setup()
    for i in bench.codec_mismatch:
        bench.attempted += 1
        bench.fail(f"input {i}: program's graph6 round trip changed the line")

    start = perf_counter()
    bench.plan_setups(start, args.seconds)
    bench.measure(start + args.seconds)
    while bench.setup_at:  # a run that ended early skipped these
        bench.setup_at.pop(0)
        bench.setup()

    if args.trace:
        layer = bench.per_layer()
        os.makedirs(SPAN_DIR, exist_ok=True)
        bench.tracer.dump(os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in bench.end_to_end().items()}

    n_inputs = len(bench.lines)
    print(f"workload {args.workload} seed {args.seed}: {n_inputs} graphs, "
          f"{sum(n for n, _ in bench.graphs)} vertices, inputs sha256 {bench.inputs_digest}")
    print(f"latency samples: {sum(map(len, bench.latency.values()))} operations over "
          f"{len(bench.latency)} graphs; p90 has {n_inputs - int(0.9 * n_inputs)} graphs "
          f"beyond it; {len(bench.verdicts)} oracle cross-checks; "
          f"{len(bench.setup_s)} set-ups")
    if bench.raw_latency:
        raw = [statistics.median(v) for v in bench.raw_latency.values()]
        print(f"unscaled graphs_per_s {len(raw) / sum(raw):.4f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    for err in bench.errors:
        print(f"FAILED {err}", file=sys.stderr)
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
