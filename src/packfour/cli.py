"""Command-line front end.

Subcommands: color, verify, oracle, gen, experiment.  Graph input is graph6
(one graph per line) or an edge list ("n m" header); the format is sniffed
from the first line unless --format says otherwise.  All runs are
deterministic for fixed inputs, flags and seeds; batch output order always
matches input order, --jobs or not.

Exit codes for color: 0 all graphs colored, 2 parse error, 3 hypothesis
violation (non-cubic or clawed without --force), 4 stuck.  verify: 0 valid,
1 invalid or mismatched.  oracle: 0 once the command line itself parses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .errors import (
    BadParameter,
    NotClawFree,
    NotCubic,
    PackfourError,
    ParseError,
    Stuck,
    StuckOddCycle,
)
from .formats import (
    coloring_from_certificate,
    parse_edge_list,
    parse_graph6,
    read_certificate,
    write_dot,
    write_graph6,
)
from .generators import (
    diamond_necklace,
    inflate,
    k4,
    named_graph,
    prism,
    problem1_family,
    random_cubic,
)
from .graph import Graph
from .oracle import DEFAULT_VERTEX_CAP, batch_decide, exists_spacking, ordered_map
from .packing import SSpec, parse_sspec, verify_spacking
from .pipeline import color_claw_free_cubic


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _lines(text: str) -> list[str]:
    """The non-blank lines of text, stripped."""
    return [line.strip() for line in text.splitlines() if line.strip()]


def _sniff_format(text: str) -> str:
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            return "edgelist" if any(ch.isspace() for ch in line) else "graph6"
    return "graph6"


def _load_graphs(text: str, fmt: str) -> list[Graph]:
    """Parse input into graphs; ParseError and graph6 errors propagate."""
    if fmt == "auto":
        fmt = _sniff_format(text)
    if fmt == "edgelist":
        return [parse_edge_list(text)]
    return [parse_graph6(line) for line in _lines(text)]


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PACKFOUR_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise BadParameter(f"PACKFOUR_SEED is not an integer: {env!r}") from None


def _color_one(line_or_graph, force: bool) -> tuple[str, str]:
    """(status, payload): ok/cert, or parse|hypothesis|stuck with a message."""
    try:
        g = parse_graph6(line_or_graph) if isinstance(line_or_graph, str) else line_or_graph
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
    text = _read_text(args.input)
    fmt = args.format if args.format != "auto" else _sniff_format(text)
    if fmt == "edgelist":
        try:
            work: list = [parse_edge_list(text)]
        except PackfourError as e:
            print(f"graph 0: parse error: {e}", file=sys.stderr)
            return 2
    else:
        work = _lines(text)
    results = ordered_map(partial(_color_one, force=args.force), work, args.jobs)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    exit_code = 0
    try:
        for i, (status, payload) in enumerate(results):
            if status == "ok":
                print(payload, file=out)
                if args.dot:
                    _write_dot_file(args.dot, i, len(results), payload)
            else:
                print(json.dumps({"index": i, "error": status, "detail": payload},
                                 sort_keys=True), file=out)
                print(f"graph {i}: {status}: {payload}", file=sys.stderr)
                if exit_code == 0:
                    exit_code = _EXIT_BY_STATUS[status]
    finally:
        if out is not sys.stdout:
            out.close()
    return exit_code


def _write_dot_file(base: str, index: int, total: int, cert_text: str) -> None:
    g, _, coloring = coloring_from_certificate(read_certificate(cert_text))
    path = base if total == 1 else f"{base}.{index}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_dot(g, coloring))


def cmd_verify(args) -> int:
    try:
        graphs = _load_graphs(_read_text(args.graph), args.format)
    except PackfourError as e:
        print(f"graph input: {e}", file=sys.stderr)
        return 1
    if len(graphs) != 1:
        print(f"expected one graph to verify, got {len(graphs)}", file=sys.stderr)
        return 1
    g = graphs[0]
    try:
        cert = read_certificate(_read_text(args.certificate))
        cg, s, coloring = coloring_from_certificate(cert)
    except PackfourError as e:
        print(f"certificate: {e}", file=sys.stderr)
        return 1
    if cg.n != g.n or list(cg.edges()) != list(g.edges()):
        print("certificate does not match the given graph", file=sys.stderr)
        return 1
    try:
        violation = verify_spacking(g, s, coloring)
    except PackfourError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 1
    if violation is not None:
        print(f"invalid: {violation}", file=sys.stderr)
        return 1
    print(f"ok: verified S={','.join(str(v) for v in s.values)} coloring of n={g.n} graph")
    return 0


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
    seed = _default_seed(args.seed)
    if args.family == "named":
        return [named_graph(args.name)]
    if args.family == "inflate":
        base_arg = args.base
        if os.path.exists(base_arg):
            graphs = _load_graphs(_read_text(base_arg), "auto")
            return [inflate(g) for g in graphs]
        return [inflate(named_graph(base_arg))]
    if args.family == "necklace":
        return [diamond_necklace(args.k)]
    if args.family == "random-cubic":
        return [random_cubic(args.n, seed + i, connected=args.connected)
                for i in range(args.count)]
    if args.family == "problem1":
        return [problem1_family(args.n, seed + i) for i in range(args.count)]
    raise BadParameter(f"unknown family {args.family!r}")


def cmd_gen(args) -> int:
    try:
        graphs = _gen_graphs(args)
    except PackfourError as e:
        print(f"gen: {e}", file=sys.stderr)
        return 2
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for g in graphs:
            print(write_graph6(g), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _experiment_corpus(args) -> list[str]:
    if args.input:
        return _lines(_read_text(args.input))
    default = [k4(), prism(), diamond_necklace(2), diamond_necklace(3), inflate(k4())]
    return [write_graph6(g) for g in default]


def cmd_experiment(args) -> int:
    if args.which == "problem2":
        lines = _experiment_corpus(args)
        s = SSpec((1, 1, 2, 3))
        records, summary = batch_decide(lines, s, vertex_cap=args.cap, jobs=args.jobs)
        for rec in records:
            _print_verdict_row(rec)
        for flagged in summary["flagged"]:
            print(f"CANDIDATE {flagged['flag']}: {flagged['graph6']}")
        print(json.dumps(summary, sort_keys=True))
        return 0
    # problem1: constructive family, pipeline first (forced), oracle fallback
    seed = _default_seed(args.seed)
    sizes = [int(t) for t in args.sizes.split(",") if t.strip()]
    results = []
    for size in sizes:
        try:
            g = problem1_family(size, seed)
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
            res = exists_spacking(g, SSpec((1, 1, 2, 2)), vertex_cap=args.cap)
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
    p.add_argument("--format", choices=["auto", "graph6", "edgelist"], default="auto")
    p.add_argument("--out", default=None, help="write certificates here instead of stdout")
    p.add_argument("--force", action="store_true",
                   help="attempt non-claw-free cubic graphs; stuck runs exit 4")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dot", default=None, help="also write DOT files for inspection")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--format", choices=["auto", "graph6", "edgelist"], default="auto")
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
    q = gen_sub.add_parser("problem1")
    q.add_argument("n", type=int)
    q.add_argument("--count", type=int, default=1)
    for q in gen_sub.choices.values():
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("experiment", help="the two open-problem experiment harnesses")
    p.add_argument("which", choices=["problem1", "problem2"])
    p.add_argument("--input", default=None, help="graph6 corpus file (problem2)")
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sizes", default="4", help="comma-separated base sizes (problem1)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_experiment)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except PackfourError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
