"""Command-line front end.

Subcommands: color, verify, oracle, gen, experiment.  Graph input is graph6
(one graph per line) or an edge list ("n m" header).  color, verify and gen
inflate tell the two apart by the first non-blank line; oracle and
experiment problem2 read graph6 only.  Each gen family and each experiment
is a subcommand of its own, taking only the options it reads: --seed goes
with gen random-cubic, gen problem1 and experiment problem1 alone.  All runs
are deterministic for fixed inputs, flags and seeds; batch output order always
matches input order, --jobs or not.  color writes each record as soon as it
and every earlier one are done; with --jobs, forked workers color chunks of
max(1, min(16, graphs // (4 * workers))) graphs, dealt round robin, and a
chunk's records are written once it and every earlier chunk are done.
Where os has no fork, --jobs runs serially.

The batch runner, ordered_map, serves color, oracle and experiment problem2.
The verdict records of oracle and problem2 are built here (decide_line, one
per graph6 line, and batch_decide's summary) and read here, so their keys
have one owner; oracle.py holds the exact search alone.  Every --seed
defaults to 0.

Exit codes for color: 0 all graphs colored, 2 parse error, 3 hypothesis
violation (non-cubic or clawed without --force), 4 stuck.  verify checks
(1,1,2,2), the one spec a certificate may name: 0 valid, 1 invalid,
mismatched or unreadable.  oracle: 0 once the command line parses
and the input reads.  A file that cannot be read or written otherwise ends
color, oracle, gen and experiment with one line on stderr and exit 2.  Any
command whose stdout reader closes early exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import sys
from collections.abc import Iterator
from contextlib import closing, nullcontext
from functools import partial

from .errors import (
    BadParameter,
    NotClawFree,
    NotCubic,
    PackfourError,
    Stuck,
    StuckOddCycle,
)
from .formats import (
    SPEC_1122,
    coloring_from_certificate,
    parse_edge_list,
    parse_graph6,
    read_certificate,
    write_dot,
    write_graph6,
)
from .graph import Graph, find_claw, is_cubic
from .oracle import DEFAULT_VERTEX_CAP, exists_spacking
from .packing import SSpec, parse_sspec, verify_spacking
from .pipeline import color_claw_free_cubic


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    # an undecodable byte becomes a lone surrogate, so a bad graph6 line gets
    # its parse record instead of stopping the batch
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return fh.read()


def _output(path: str | None):
    """A context giving the file at path, opened for writing and closed on
    exit, or stdout, left open, when no path is given."""
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _lines(text: str) -> list[str]:
    """The non-blank lines of text, stripped."""
    return [line.strip() for line in text.splitlines() if line.strip()]


def _graph_items(text: str):
    """(parse, items): parse_edge_list and the whole text as the one item
    when the first non-blank line holds whitespace or starts a comment, else
    parse_graph6 and the non-blank lines, stripped.  The test is exact on
    well-formed input: graph6 bytes are 63..126, which holds neither
    whitespace nor '#', and an edge list's first non-blank line is a comment
    or its "n m" header."""
    lines = _lines(text)
    first = lines[0] if lines else ""
    if first.startswith("#") or any(ch.isspace() for ch in first):
        return parse_edge_list, [text]
    return parse_graph6, lines


def ordered_map(fn, items: list, jobs: int) -> Iterator:
    """fn(x) for x in items, lazily and in input order, spread over
    min(jobs, len(items)) forked worker processes when that is 2 or more
    and os has fork; serially otherwise.

    The items are cut into chunks of max(1, min(16, len(items) // (4 *
    workers))), dealt round robin: worker k maps chunks k, k + workers, ...
    and writes each chunk's results to its own pipe as one frame (see
    _work), so fn's results must be marshal-able.  The parent reads the
    frames in chunk order, so a chunk's results arrive together, once it and
    every earlier chunk are done.  If fn raises in a worker, the results
    before it arrive and then the same exception is raised here, as in a
    serial run.  A consumer that stops early (or closes the iterator) kills
    the workers; every worker is reaped before this returns.  fork is
    unsafe in a process that runs threads; packfour starts none."""
    workers = min(jobs, len(items)) if hasattr(os, "fork") else 1
    if workers < 2:
        for x in items:
            yield fn(x)
        return
    # a chunk costs a frame through a pipe; four chunks per worker or more
    # keep the workers finishing close together, and 16 items at most keep
    # a result from waiting on many others
    chunk = max(1, min(16, len(items) // (4 * workers)))
    chunks = [items[i:i + chunk] for i in range(0, len(items), chunk)]
    pipes, pids, done = [], [], False
    try:
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, chunks[k::workers], w, pipes)
            finally:
                os.close(w)
            pids.append(pid)
        for i in range(len(chunks)):
            results, error = _read_frame(pipes[i % workers])
            yield from results
            if error is not None:
                import pickle

                raise pickle.loads(error)
        done = True
    finally:
        for pipe in pipes:
            pipe.close()
        if not done:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(fn, chunks: list, w: int, pipes: list) -> None:
    """A forked worker's whole life; it ends in os._exit, so it never
    returns or raises into the caller.  It closes the parent's read ends,
    then writes one frame per chunk to the pipe end w: an 8-byte
    little-endian length, then marshal.dumps((results, error)).  error is
    None, or the pickled exception fn raised after those results, in the
    worker's last frame."""
    code = 1
    try:
        for pipe in pipes:
            os.close(pipe.fileno())
        out = open(w, "wb")
        for part in chunks:
            results, error = [], None
            try:
                for x in part:
                    results.append(fn(x))
            except BaseException as e:
                import pickle

                error = pickle.dumps(e)
            frame = marshal.dumps((results, error))
            out.write(len(frame).to_bytes(8, "little"))
            out.write(frame)
            out.flush()
            if error is not None:
                break
        code = 0
    finally:
        os._exit(code)


def _read_frame(pipe) -> tuple[list, bytes | None]:
    """(results, error) from the next frame on a worker's pipe."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    body = pipe.read(size)
    if len(head) < 8 or len(body) < size:
        raise ChildProcessError("a worker process ended before sending its results")
    return marshal.loads(body)


def _color_one(item: str, parse, force: bool) -> tuple[str, str]:
    """(status, payload): ok/cert, or parse|hypothesis|stuck with a message."""
    try:
        g = parse(item)
    except PackfourError as e:
        return ("parse", str(e))
    try:
        _, cert = color_claw_free_cubic(g, force=force)
        return ("ok", cert)
    except (NotCubic, NotClawFree) as e:
        return ("hypothesis", str(e))
    except (Stuck, StuckOddCycle) as e:
        return ("stuck", str(e))


_EXIT_BY_STATUS = {"ok": 0, "parse": 2, "hypothesis": 3, "stuck": 4}


def cmd_color(args) -> int:
    parse, items = _graph_items(_read_text(args.input))
    results = ordered_map(partial(_color_one, parse=parse, force=args.force), items, args.jobs)
    exit_code = 0
    with _output(args.out) as out, closing(results):
        for i, (status, payload) in enumerate(results):
            # each record goes out as soon as it arrives, in input order
            if status == "ok":
                print(payload, file=out, flush=True)
                if args.dot:
                    _write_dot_file(args.dot, i, len(items), payload)
            else:
                print(json.dumps({"index": i, "error": status, "detail": payload},
                                 sort_keys=True), file=out, flush=True)
                print(f"graph {i}: {status}: {payload}", file=sys.stderr)
                if exit_code == 0:
                    exit_code = _EXIT_BY_STATUS[status]
    return exit_code


def _write_dot_file(base: str, index: int, total: int, cert_text: str) -> None:
    g, _, coloring = coloring_from_certificate(read_certificate(cert_text))
    path = base if total == 1 else f"{base}.{index}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_dot(g, coloring))


def cmd_verify(args) -> int:
    try:
        parse, items = _graph_items(_read_text(args.graph))
        graphs = [parse(item) for item in items]
    except (PackfourError, OSError) as e:
        print(f"graph input: {e}", file=sys.stderr)
        return 1
    if len(graphs) != 1:
        print(f"expected one graph to verify, got {len(graphs)}", file=sys.stderr)
        return 1
    g = graphs[0]
    try:
        cert = read_certificate(_read_text(args.certificate))
        # a claimed size other than the input's is a mismatch found before
        # coloring_from_certificate builds a graph of that size
        matches = type(cert["n"]) is not int or cert["n"] == g.n
        if matches:
            cg, _, coloring = coloring_from_certificate(cert)
            # adjacency tuples are sorted, so equal graphs compare equal
            matches = cg.adj == g.adj
    except (PackfourError, OSError) as e:
        print(f"certificate: {e}", file=sys.stderr)
        return 1
    if not matches:
        print("certificate does not match the given graph", file=sys.stderr)
        return 1
    violation = verify_spacking(g, SPEC_1122, coloring)
    if violation is not None:
        print(f"invalid: {violation}", file=sys.stderr)
        return 1
    print(f"ok: verified S=1,1,2,2 coloring of n={g.n} graph")
    return 0


# a claw-free cubic "no" under (1,1,2,3) is exactly what the open problem
# asks for; under (1,1,2,2) it would contradict the guarantee the pipeline
# implements, so it can only mean a bug: flag both, loudly
SPEC_1123 = SSpec((1, 1, 2, 3))
_FLAGS = {SPEC_1123: "candidate-counterexample", SPEC_1122: "theorem-violation"}


def decide_line(line: str, s: SSpec, vertex_cap: int) -> dict:
    """Verdict record for one graph6 line; parse failures become error records."""
    try:
        g = parse_graph6(line)
    except PackfourError as e:
        return {"n": None, "verdict": "error", "detail": str(e)}
    res = exists_spacking(g, s, vertex_cap)
    record = {"n": g.n, "verdict": res.status}
    if res.status == "yes":
        record["detail"] = ",".join(str(c) for c in res.coloring)
    else:
        record["detail"] = res.reason or "search exhausted"
    if res.status == "no" and s in _FLAGS and is_cubic(g) and find_claw(g) is None:
        record["flag"] = _FLAGS[s]
        record["echo"] = write_graph6(g)
    return record


def batch_decide(lines, s: SSpec, vertex_cap: int = DEFAULT_VERTEX_CAP,
                 jobs: int = 1) -> tuple[list[dict], dict]:
    """Decide every graph6 line; never aborts on a bad line.

    Returns (records, summary).  Records keep input order even with jobs > 1.
    """
    records = list(ordered_map(partial(decide_line, s=s, vertex_cap=vertex_cap),
                               list(lines), jobs))
    for i, rec in enumerate(records):
        rec["index"] = i
    summary = {
        "total": len(records),
        "yes": sum(1 for r in records if r["verdict"] == "yes"),
        "no": sum(1 for r in records if r["verdict"] == "no"),
        "unknown": sum(1 for r in records if r["verdict"] == "unknown"),
        "errors": sum(1 for r in records if r["verdict"] == "error"),
        "s_spec": list(s.values),
        "flagged": [{"index": r["index"], "flag": r["flag"], "graph6": r["echo"]}
                    for r in records if "flag" in r],
    }
    return records, summary


def _print_verdict_row(rec: dict) -> None:
    """One TSV row: index, n ('-' if unparsed), verdict, detail."""
    n = rec["n"] if rec["n"] is not None else "-"
    print(f"{rec['index']}\t{n}\t{rec['verdict']}\t{rec['detail']}")


def cmd_oracle(args) -> int:
    try:
        s = parse_sspec(args.s)
    except PackfourError as e:
        print(f"bad --s: {e}", file=sys.stderr)
        return 2
    records, summary = batch_decide(_lines(_read_text(args.input)), s, vertex_cap=args.cap,
                                    jobs=args.jobs)
    for rec in records:
        _print_verdict_row(rec)
        if "flag" in rec:
            print(f"flagged graph {rec['index']}: {rec['flag']}: {rec['echo']}",
                  file=sys.stderr)
    summary_text = json.dumps(summary, sort_keys=True)
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as fh:
            fh.write(summary_text + "\n")
    else:
        print(summary_text, file=sys.stderr)
    return 0


def _gen_graphs(args) -> list[Graph]:
    from .generators import diamond_necklace, inflate, named_graph, problem1_family, random_cubic

    if args.family == "named":
        return [named_graph(args.name)]
    if args.family == "inflate":
        base_arg = args.base
        if os.path.exists(base_arg):
            parse, items = _graph_items(_read_text(base_arg))
            graphs = [parse(item) for item in items]
            return [inflate(g) for g in graphs]
        return [inflate(named_graph(base_arg))]
    if args.family == "necklace":
        return [diamond_necklace(args.k)]
    if args.family == "random-cubic":
        return [random_cubic(args.n, args.seed + i, connected=args.connected)
                for i in range(args.count)]
    # problem1: argparse lets no other family through
    return [problem1_family(args.n, args.seed + i) for i in range(args.count)]


def cmd_gen(args) -> int:
    try:
        graphs = _gen_graphs(args)
    except PackfourError as e:
        print(f"gen: {e}", file=sys.stderr)
        return 2
    with _output(args.out) as out:
        for g in graphs:
            print(write_graph6(g), file=out)
    return 0


def cmd_problem2(args) -> int:
    if args.input:
        lines = _lines(_read_text(args.input))
    else:
        from .generators import diamond_necklace, inflate, k4, prism

        lines = [write_graph6(g) for g in (k4(), prism(), diamond_necklace(2),
                                           diamond_necklace(3), inflate(k4()))]
    records, summary = batch_decide(lines, SPEC_1123, vertex_cap=args.cap, jobs=args.jobs)
    for rec in records:
        _print_verdict_row(rec)
    for flagged in summary["flagged"]:
        print(f"CANDIDATE {flagged['flag']}: {flagged['graph6']}")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_problem1(args) -> int:
    """The constructive family: pipeline first (forced), oracle fallback."""
    from .generators import problem1_family

    try:
        sizes = [int(t) for t in args.sizes.split(",") if t.strip()]
    except ValueError:
        raise BadParameter(f"--sizes takes comma-separated integers, got {args.sizes!r}") from None
    results = []
    for size in sizes:
        try:
            g = problem1_family(size, args.seed)
        except PackfourError as e:
            results.append({"base_n": size, "verdict": "error", "detail": str(e)})
            continue
        rec = {"base_n": size, "n": g.n, "graph6": write_graph6(g)}
        try:
            coloring, _ = color_claw_free_cubic(g, force=True)
            rec["verdict"] = "yes"
            rec["method"] = "pipeline"
        except (Stuck, StuckOddCycle) as e:
            rec["pipeline"] = f"stuck: {e}"
            res = exists_spacking(g, SPEC_1122, vertex_cap=args.cap)
            rec["verdict"] = res.status
            rec["method"] = "oracle"
            if res.reason:
                rec["detail"] = res.reason
        results.append(rec)
    candidates = [r for r in results if r.get("verdict") == "no"]
    for rec in results:
        print(f"base_n={rec['base_n']}\tn={rec.get('n', '-')}"
              f"\tverdict={rec.get('verdict')}\tmethod={rec.get('method', '-')}")
    for rec in candidates:
        print(f"CANDIDATE not-(1,1,2,2)-colorable: {rec['graph6']}")
    print(json.dumps({"results": results, "candidates": [r["graph6"] for r in candidates]},
                     sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="packfour",
                                  description="(1,1,2,2)-packing colorings of claw-free "
                                              "cubic graphs, with certificates")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color graphs and emit certificates")
    p.add_argument("input", nargs="?", default=None, help="input file, or - for stdin")
    p.add_argument("--out", default=None, help="write certificates here instead of stdout")
    p.add_argument("--force", action="store_true",
                   help="attempt non-claw-free cubic graphs; stuck runs exit 4")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dot", default=None, help="also write DOT files for inspection")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive S-packing decisions for small graphs")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--s", required=True, help="packing spec, e.g. 1,1,2,2")
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--summary-out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit generated graphs as graph6")
    gen_sub = p.add_subparsers(dest="family", required=True)
    q = gen_sub.add_parser("named")
    q.add_argument("name")
    q = gen_sub.add_parser("inflate")
    q.add_argument("--base", required=True, help="graph name or file to inflate")
    q = gen_sub.add_parser("necklace")
    q.add_argument("k", type=int)
    q = gen_sub.add_parser("random-cubic")
    q.add_argument("n", type=int)
    q.add_argument("--count", type=int, default=1)
    q.add_argument("--connected", action="store_true")
    q.add_argument("--seed", type=int, default=0)
    q = gen_sub.add_parser("problem1")
    q.add_argument("n", type=int)
    q.add_argument("--count", type=int, default=1)
    q.add_argument("--seed", type=int, default=0)
    for q in gen_sub.choices.values():
        q.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("experiment", help="the two open-problem experiment harnesses")
    exp_sub = p.add_subparsers(dest="which", required=True)
    q = exp_sub.add_parser("problem1", help="the gadget family, pipeline then oracle")
    q.add_argument("--sizes", default="4", help="comma-separated base sizes")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_problem1)
    q = exp_sub.add_parser("problem2", help="(1,1,2,3) decisions over a graph6 corpus")
    q.add_argument("--input", default=None, help="graph6 corpus file")
    q.add_argument("--jobs", type=int, default=1)
    q.set_defaults(func=cmd_problem2)
    for q in exp_sub.choices.values():
        q.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so it must come first
        # the reader closed stdout early (`| head`); send what is still buffered
        # to devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PackfourError, OSError) as e:
        # a missing or unreadable input, or an output path that cannot be
        # opened, is one line on stderr, never a traceback
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
