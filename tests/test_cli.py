from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import packfour
from packfour import cli, errors, formats
from packfour.cli import main
from packfour.formats import parse_edge_list, parse_graph6, write_graph6
from packfour.generators import cycle, inflate, k4, petersen, prism, random_cubic
from packfour.packing import SSpec
from packfour.oracle import OracleResult, exists_spacking

import oracles
from test_formats import OTHER_SPECS, mutated_certificates, real_certificates


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_captured(*argv, stdin: str = ""):
    """(code, stdout, stderr) of main(argv) with stdin holding the given
    text; for hypothesis properties, which cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ color

def test_color_batch_graph6(tmp_path, capsys):
    inp = write(tmp_path, "in.g6", f"{write_graph6(k4())}\n{write_graph6(prism())}\n")
    code, out, err = run(capsys, "color", inp)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line, g in zip(lines, (k4(), prism())):
        cert = json.loads(line)
        assert cert["verified"] is True and cert["n"] == g.n


def test_color_edgelist(tmp_path, capsys):
    inp = write(tmp_path, "prism.txt",
                "6 9\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n0 3\n1 4\n2 5\n")
    code, out, err = run(capsys, "color", inp)
    assert code == 0
    assert json.loads(out)["classes"]["2b"] == [0]
    # no graph6 line holds '#', so a first line that starts a comment marks
    # an edge list, whitespace or not
    for head in ("#k4", "# k4"):
        inp = write(tmp_path, "k4.txt", f"\n{head}\n4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, err = run(capsys, "color", inp)
        assert (code, err, json.loads(out)["n"]) == (0, "", 4)


def test_color_parse_error_exit_2(tmp_path, capsys):
    inp = write(tmp_path, "bad.g6", "C~\nC" + chr(20) + "\n")
    code, out, err = run(capsys, "color", inp)
    assert code == 2
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["verified"] is True  # good graph still colored
    assert json.loads(lines[1]) == {
        "index": 1, "error": "parse",
        "detail": json.loads(lines[1])["detail"],
    }
    assert "graph 1: parse" in err


@pytest.mark.parametrize("text,detail", [
    ("3 1\n0 5\n", "vertex 5 out of range for n=3"),
    ("\n# k4?\n3 1\n0 5\n", "vertex 5 out of range for n=3"),
    ("-1 0\n", "line 1: negative count in header"),
], ids=["bad-edgelist", "commented-bad-edgelist", "negative-count"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_color_edgelist_parse_error_record(tmp_path, capsys, text, detail, to_file):
    # an edge list is graph 0 of a one-graph batch, so it fails like a bad graph6 line
    inp = write(tmp_path, "in.txt", text)
    out_path = tmp_path / "certs.jsonl"
    code, out, err = run(capsys, "color", inp,
                         *(["--out", str(out_path)] if to_file else []))
    assert code == 2
    if to_file:
        assert out == ""
        out = out_path.read_text()
    assert json.loads(out) == {"index": 0, "error": "parse", "detail": detail}
    assert err == f"graph 0: parse: {detail}\n"


def test_color_graph6_undecodable_byte_is_a_parse_record(tmp_path, capsys):
    # a byte that is not UTF-8 reads as it does on stdin: the line gets its
    # parse record and the good line before it is still colored
    path = tmp_path / "ff.g6"
    path.write_bytes(b"C~\nC\xff\n")
    code, out, err = run(capsys, "color", str(path))
    assert code == 2
    lines = out.splitlines()
    assert json.loads(lines[0])["verified"] is True
    assert json.loads(lines[1]) == {"index": 1, "error": "parse",
                                    "detail": "bad graph6 character at position 1"}
    code, out, _ = run(capsys, "oracle", str(path), "--s", "1,1,2,2")
    assert code == 0
    assert out.splitlines()[1] == "1\t-\terror\tbad graph6 character at position 1"


# graph6 lines: the body alphabet, one- and four-byte size headers, the
# unsupported "~~" header, lines that color and one with claws; edge lists:
# a header and edge lines of small integers, with comments and stray
# tokens; lone surrogates, which undecodable input bytes become
G6_CHARS = "".join(map(chr, range(63, 127)))
G6_LINES = st.one_of(
    st.sampled_from([write_graph6(g) for g in (k4(), prism(), inflate(k4()), petersen())]),
    st.tuples(st.sampled_from(["", "~", "~~"]), st.text(G6_CHARS, max_size=10)).map("".join),
)
EDGE_LIST_LINES = st.lists(st.integers(-1, 12).map(str) | st.sampled_from(["#", "x", "1.5"]),
                           min_size=1, max_size=3).map(" ".join)
SURROGATE_LINES = st.binary(max_size=6).map(lambda b: b.decode("utf-8", "surrogateescape"))
COLOR_INPUTS = st.lists(G6_LINES | EDGE_LIST_LINES | SURROGATE_LINES, max_size=4).map("\n".join)


@given(COLOR_INPUTS)
@settings(max_examples=150, deadline=None)
def test_color_arbitrary_text(text):
    # any text exits with a documented code, writes certificates that verify
    # against their input graph or error records, and never a traceback
    code, out, err = run_captured("color", "-", stdin=text)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    _, items = cli._graph_items(text)
    for i, line in enumerate(out.splitlines()):
        record = json.loads(line)
        if "error" in record:
            assert sorted(record) == ["detail", "error", "index"] and record["index"] == i
            continue
        with tempfile.TemporaryDirectory() as tmp:
            graph = write(Path(tmp), "graph.txt", items[i])
            cert = write(Path(tmp), "cert.json", line)
            assert run_captured("verify", graph, cert)[0] == 0


def edge_list_texts(g):
    """g as an edge list twice: a leading comment line with no whitespace,
    then newlines and spaces; and blank lines first, tabs, CRLF and a
    trailing comment."""
    edges = list(g.edges())
    commented = f"#cubic,n={g.n}\n{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    messy = ("\r\n \t\r\n" + f"{g.n}\t{g.m}\r\n"
             + "".join(f"{u}\t{v}\r\n" for u, v in edges) + "# comment\r\n")
    return [commented, messy]


@given(oracles.cubic_graphs())
@settings(max_examples=100, deadline=None)
def test_graph_items_sniff_is_exact(g):
    # no graph6 byte is whitespace or '#', and an edge list's first
    # non-blank line is a comment or its "n m" header, so the first line
    # names the parser the text was written for, and it gives g back
    texts = [(write_graph6(g) + "\n", parse_graph6)]
    texts += [(text, parse_edge_list) for text in edge_list_texts(g)]
    for text, parse in texts:
        got, items = cli._graph_items(text)
        assert got is parse and [got(item) for item in items] == [g]


@pytest.mark.parametrize("argv", [
    ["color", "in.g6", "--format", "graph6"],
    ["verify", "p.g6", "p.cert", "--format", "edgelist"],
    ["gen", "named", "prism", "--seed", "1"],
    ["experiment", "problem2", "--sizes", "4"],
    ["experiment", "problem1", "--input", "x.g6", "--jobs", "2"],
], ids=["color-format", "verify-format", "gen-named-seed", "problem2-sizes",
        "problem1-input-jobs"])
def test_removed_options_are_usage_errors(capsys, argv):
    # an option its command does not read is refused by argparse before any
    # file is opened: exit 2, one usage line and one error line
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert err.startswith("usage: ") and err.count("usage:") == 1
    assert err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv,digest", [
    (["experiment", "problem2"],
     "533423536ab1e90bda0a952d42a0e1184b86e63f02c3d68a39ebaf96955b1d4b"),
    (["experiment", "problem1", "--sizes", "4,6", "--seed", "0"],
     "0b519629d8c71e01bed9083ef54906ab77407132eb926909f3618a92bca61330"),
    (["gen", "random-cubic", "12", "--count", "3", "--seed", "5"],
     "650dabef80388cda33529c2f2d61005c39618099f18403ee3aa72aa34df00cb8"),
    (["gen", "problem1", "4", "--seed", "0"],
     "8da0c1ab35a544591229d48b841df066f52ebb9d7192c09b0851b9b32430c5fd"),
], ids=["problem2", "problem1", "gen-random-cubic", "gen-problem1"])
def test_kept_options_print_what_they_printed(capsys, argv, digest):
    # the SHA-256 of stdout, pinned from before each experiment and gen
    # family took only the options it reads
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,code,pin", [
    (["color", "{missing}"], 2, "No such file"),
    (["color", "{good}", "--out", "{missing}/certs.jsonl"], 2, "No such file"),
    (["verify", "{missing}", "{good}"], 1, "graph input: "),
    (["verify", "{good}", "{missing}"], 1, "certificate: "),
    (["oracle", "{missing}", "--s", "1,1,2,2"], 2, "No such file"),
    (["experiment", "problem2", "--input", "{missing}"], 2, "No such file"),
    (["gen", "inflate", "--base", "{dir}"], 2, "directory"),
    (["experiment", "problem1", "--sizes", "x"], 2, "--sizes"),
], ids=["color-input", "color-out", "verify-graph", "verify-certificate", "oracle-input",
        "problem2-input", "gen-inflate-dir", "problem1-sizes"])
def test_bad_cli_input_is_one_line(tmp_path, capsys, argv, code, pin):
    # a path that cannot be read or written, or a malformed option value,
    # ends the command with one line on stderr and its documented exit code
    paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path),
             "good": write(tmp_path, "k4.g6", "C~\n")}
    got, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert got == code and out == ""
    assert err.count("\n") == 1 and pin in err


def test_color_hypothesis_exit_3(tmp_path, capsys):
    inp = write(tmp_path, "pet.g6", write_graph6(petersen()) + "\n")
    code, out, err = run(capsys, "color", inp)
    assert code == 3
    assert json.loads(out)["error"] == "hypothesis"
    assert "claw" in err


def test_color_force_stuck_exit_4(tmp_path, capsys):
    inp = write(tmp_path, "pet.g6", write_graph6(petersen()) + "\n")
    code, out, err = run(capsys, "color", inp, "--force")
    assert code == 4
    assert json.loads(out)["error"] == "stuck"


def test_color_out_file_and_determinism(tmp_path, capsys):
    inp = write(tmp_path, "in.g6", f"{write_graph6(prism())}\n{write_graph6(k4())}\n")
    out1 = str(tmp_path / "a.jsonl")
    out2 = str(tmp_path / "b.jsonl")
    assert run(capsys, "color", inp, "--out", out1)[0] == 0
    assert run(capsys, "color", inp, "--out", out2)[0] == 0
    a = (tmp_path / "a.jsonl").read_bytes()
    assert a == (tmp_path / "b.jsonl").read_bytes()
    assert len(a.splitlines()) == 2


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_color_jobs_matches_serial(tmp_path, capsys):
    inp = write(tmp_path, "in.g6",
                "\n".join(write_graph6(g) for g in (k4(), prism(), k4(), prism())) + "\n")
    _, serial, _ = run(capsys, "color", inp)
    _, parallel, _ = run(capsys, "color", inp, "--jobs", "3")
    assert serial == parallel
    assert_no_worker_left()


@pytest.fixture
def pools(monkeypatch):
    # the real fork pool, watched: each batch's forked workers, the length
    # of each chunk as the parent decodes it, and each worker's wait status.
    # A batch forks all its workers before it decodes a chunk, so a fork
    # after a decoded chunk starts the next batch
    made = []
    fork, read_frame, waitpid = os.fork, cli._read_frame, os.waitpid

    def watched_fork():
        if not made or made[-1].chunks:
            made.append(SimpleNamespace(workers=0, chunks=[], statuses=[]))
        made[-1].workers += 1
        return fork()

    def watched_read_frame(pipe):
        results, error = read_frame(pipe)
        made[-1].chunks.append(len(results))
        return results, error

    def watched_waitpid(pid, options):
        got = waitpid(pid, options)
        if pid > 0:
            made[-1].statuses.append(got[1])
        return got

    monkeypatch.setattr(os, "fork", watched_fork)
    monkeypatch.setattr(cli, "_read_frame", watched_read_frame)
    monkeypatch.setattr(os, "waitpid", watched_waitpid)
    return made


def test_jobs_asks_for_no_more_workers_than_items(tmp_path, capsys, pools):
    # every worker is forked before the first chunk, so --jobs 64 on a
    # batch of two forks two
    two = write(tmp_path, "two.g6", f"{write_graph6(prism())}\n{write_graph6(k4())}\n")
    code, out, _ = run(capsys, "color", two, "--jobs", "64")
    assert code == 0 and len(out.splitlines()) == 2
    three = write(tmp_path, "three.g6", "\n".join(write_graph6(g) for g in (k4(), prism(), k4())))
    assert run(capsys, "oracle", three, "--s", "1,1,2,2", "--jobs", "64")[0] == 0
    assert run(capsys, "experiment", "problem2", "--jobs", "64")[0] == 0  # 5 graphs
    assert run(capsys, "color", two, "--jobs", "2")[0] == 0
    assert [p.workers for p in pools] == [2, 3, 5, 2]
    assert_no_worker_left()


def test_jobs_chunk_size_follows_items_and_workers(tmp_path, capsys, pools):
    # one rule for color, oracle and experiment problem2: at least four
    # chunks per worker and at most 16 items a chunk, at least one item;
    # the output is the serial run's, in input order
    graphs = [k4(), prism(), cycle(5), petersen()]
    for command, count, jobs, chunk in [("color", 160, 2, 16), ("color", 1570, 2, 16),
                                        ("color", 40, 2, 5), ("color", 60, 3, 5),
                                        ("oracle", 40, 2, 5), ("oracle", 7, 2, 1),
                                        ("experiment", 160, 2, 16)]:
        inp = write(tmp_path, "batch.g6",
                    "".join(write_graph6(graphs[i % 4]) + "\n" for i in range(count)))
        argv = {"color": ["color", inp], "oracle": ["oracle", inp, "--s", "1,1,2,2"],
                "experiment": ["experiment", "problem2", "--input", inp]}[command]
        serial = run(capsys, *argv)
        pools.clear()
        assert run(capsys, *argv, "--jobs", str(jobs)) == serial
        assert [(p.workers, p.chunks[0]) for p in pools] == [(jobs, chunk)], (command, count)
        # every chunk is full but the last, and every worker ends on its own
        (p,) = pools
        assert p.chunks[:-1] == [chunk] * (len(p.chunks) - 1) and sum(p.chunks) == count
        assert p.statuses == [0] * jobs
        assert_no_worker_left()


def test_jobs_early_close_cancels_the_rest(pools):
    # a consumer that closes the result iterator after the first chunk
    # kills the workers, each asleep on its first item after chunk 0 (12 in
    # chunk 1, 24 in chunk 2), so neither reaches its last chunk; every
    # worker is reaped before close returns
    def slow_after_first_chunk(x):
        if x in (12, 24):
            time.sleep(60)
        return str(x)

    start = time.monotonic()
    results = cli.ordered_map(slow_after_first_chunk, list(range(100)), 2)
    assert next(results) == "0"
    results.close()
    assert time.monotonic() - start < 30
    assert [(p.workers, p.chunks) for p in pools] == [(2, [12])]
    assert [os.WTERMSIG(s) for s in pools[0].statuses] == [signal.SIGKILL] * 2
    assert_no_worker_left()


def test_jobs_without_fork_runs_serially(tmp_path, capsys, monkeypatch):
    inp = write(tmp_path, "in.g6", "".join(write_graph6(g) + "\n" for g in [k4(), prism()] * 20))
    serial = run(capsys, "color", inp)
    monkeypatch.delattr(os, "fork")
    assert run(capsys, "color", inp, "--jobs", "2") == serial
    assert_no_worker_left()


def test_jobs_worker_error_ends_the_batch_as_serially(tmp_path, capsys, monkeypatch):
    # a package error that escapes a worker reaches main with its type and
    # message, after the records before it: the third graph of a chunk of
    # three refuses, so its chunk's frame carries two results and the error
    graphs = [k4(), prism(), inflate(k4())] + [k4(), prism()] * 11
    inp = write(tmp_path, "in.g6", "".join(write_graph6(g) + "\n" for g in graphs))
    color = cli.color_claw_free_cubic

    def refuse_the_inflated_k4(g, force=False):
        if g.n == 12:
            raise errors.RefusesUnverified("vertices 0 and 1 share class 1")
        return color(g, force=force)

    # patched before the fork, so the workers run it too
    monkeypatch.setattr(cli, "color_claw_free_cubic", refuse_the_inflated_k4)
    serial = run(capsys, "color", inp)
    assert serial[0] == 2 and len(serial[1].splitlines()) == 2
    assert serial[2] == "error: refusing to write certificate: vertices 0 and 1 share class 1\n"
    assert run(capsys, "color", inp, "--jobs", "2") == serial
    assert_no_worker_left()


def test_jobs_worker_ending_without_its_frame_is_an_error():
    # a result marshal cannot encode ends the worker before it writes its
    # frame; the parent reports that, where serially the object arrives
    results = cli.ordered_map(lambda x: object(), [1, 2, 3], 2)
    with pytest.raises(ChildProcessError, match="ended before sending its results"):
        next(results)
    assert_no_worker_left()


# one instance of every package error, the payload of each attribute set
ERROR_SAMPLES = [
    errors.PackfourError("base"), errors.SelfLoop(3), errors.DuplicateEdge(1, 2),
    errors.VertexOutOfRange(5, 4), errors.BadChar(2), errors.LengthMismatch(3, 2),
    errors.UnsupportedHeader(), errors.TooLarge(300000), errors.ParseError(2, "x y"),
    errors.RefusesUnverified("vertices 0 and 1 share class 1"), errors.EmptySpec(),
    errors.NotPositive("x"), errors.NotNonDecreasing((2, 1)), errors.ClassOutOfRange(0, 5, 4),
    errors.NotCubic(0, 2), errors.NotClawFree((0, (1, 2, 3))), errors.Stuck((0, 1), (1, 2, 3)),
    errors.StuckOddCycle(None, [0, 1, 2], (3, (4, 5, 6))), errors.UnknownName("x"),
    errors.BadParameter("x"), errors.RetryLimit(10, 5),
]


def test_package_errors_survive_pickling():
    # a --jobs worker sends its error to the parent pickled
    defined = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.PackfourError)}
    assert {type(e) for e in ERROR_SAMPLES} == defined
    for e in ERROR_SAMPLES:
        copy = pickle.loads(pickle.dumps(e))
        assert (type(copy), str(copy), vars(copy)) == (type(e), str(e), vars(e))


# for each ERROR_SAMPLES entry, then for a ParseError on its default detail and
# a StuckOddCycle on claw-free input: the arguments it was built with (the
# default filled in), the attributes they become, and its message as it read
# when each error formatted its message in its own constructor
ERROR_PAYLOADS = [
    (("base",), (), "base"),
    ((3,), ("u",), "self-loop at vertex 3"),
    ((1, 2), ("u", "v"), "duplicate edge (1, 2)"),
    ((5, 4), ("v", "n"), "vertex 5 out of range for n=4"),
    ((2,), ("position",), "bad graph6 character at position 2"),
    ((3, 2), ("expected", "got"), "graph6 body length mismatch: expected 3 bytes, got 2"),
    ((), (), "graph6 header form not supported (n > 258047)"),
    ((300000,), ("n",), "cannot encode graph with n=300000 > 258047 vertices"),
    ((2, "x y"), ("line", "detail"), "line 2: x y"),
    (("vertices 0 and 1 share class 1",), ("violation",),
     "refusing to write certificate: vertices 0 and 1 share class 1"),
    ((), (), "packing spec is empty"),
    (("x",), ("token",), "packing spec entry is not a positive integer: 'x'"),
    (((2, 1),), ("values",), "packing spec entries must be non-decreasing, got [2, 1]"),
    ((0, 5, 4), ("vertex", "class_index", "r"), "vertex 0 has class 5, outside 1..4"),
    ((0, 2), ("vertex", "degree"), "graph is not cubic: vertex 0 has degree 2"),
    (((0, (1, 2, 3)),), ("claw",), "graph has a claw centered at 0 with leaves [1, 2, 3]"),
    (((0, 1), (1, 2, 3)), ("pair", "triangle"),
     "no improving move for surviving triangle (1, 2, 3)"),
    ((None, [0, 1, 2], (3, (4, 5, 6))), ("state", "cycle", "claw"),
     "no addable vertex on odd cycle [0, 1, 2]; input has a claw (3, (4, 5, 6))"),
    (("x",), ("name",), "unknown graph name: 'x'"),
    (("x",), (), "x"),
    ((10, 5), ("n", "attempts"), "no simple cubic pairing found for n=10 after 5 attempts"),
    ((7, "malformed line"), ("line", "detail"), "line 7: malformed line"),
    ((None, [0, 1, 2], None), ("state", "cycle", "claw"),
     "no addable vertex on odd cycle [0, 1, 2]; input is claw-free"),
]


def test_package_errors_keep_their_payload_as_args():
    samples = ERROR_SAMPLES + [errors.ParseError(7), errors.StuckOddCycle(None, [0, 1, 2], None)]
    for e, (args, names, text) in zip(samples, ERROR_PAYLOADS, strict=True):
        assert (e.args, vars(e), str(e)) == (args, dict(zip(names, args)), text)
        copy = pickle.loads(pickle.dumps(e))
        assert (copy.args, vars(copy), str(copy)) == (e.args, vars(e), text)
    assert repr(errors.NotCubic(0, 2)) == "NotCubic(0, 2)"


@pytest.mark.parametrize("cls,args", [(errors.SelfLoop, ()), (errors.SelfLoop, (1, 2)),
                                      (errors.UnsupportedHeader, (1,))])
def test_package_error_with_wrong_argument_count_is_a_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args)


def test_color_dot_output(tmp_path, capsys):
    inp = write(tmp_path, "in.g6", f"{write_graph6(k4())}\n{write_graph6(prism())}\n")
    dot = str(tmp_path / "view.dot")
    code, out, _ = run(capsys, "color", inp, "--dot", dot)
    assert code == 0
    for i, cert_text in enumerate(out.strip().splitlines()):
        text = (tmp_path / f"view.dot.{i}").read_text()
        assert text.startswith("graph G {") and "--" in text
        cert = json.loads(cert_text)
        expected = {f"{v}:{name}" for name, members in cert["classes"].items()
                    for v in members}
        labels = set(re.findall(r'label="([^"]*)"', text))
        assert labels == expected and len(labels) == cert["n"]

    single = write(tmp_path, "one.g6", write_graph6(k4()) + "\n")
    run(capsys, "color", single, "--dot", dot)
    assert (tmp_path / "view.dot").exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_color_streams_each_certificate(tmp_path, capsys, monkeypatch, to_file):
    first, second = write_graph6(k4()), write_graph6(prism())
    inp = write(tmp_path, "in.g6", f"{first}\n{second}\n")
    out_path = tmp_path / "certs.jsonl"
    color_one = cli._color_one
    checked = []

    def color_after_first_is_out(line, **kw):
        if line == second:
            # the first certificate is already written when the second graph starts
            text = out_path.read_text() if to_file else capsys.readouterr().out
            assert json.loads(text)["n"] == 4
            checked.append(line)
        return color_one(line, **kw)

    monkeypatch.setattr(cli, "_color_one", color_after_first_is_out)
    assert main(["color", inp] + (["--out", str(out_path)] if to_file else [])) == 0
    assert checked == [second]


def test_color_reader_closing_early_exits_quietly(tmp_path):
    # far more certificates than a pipe buffer holds, so writing outlives the reader
    lines = [write_graph6(inflate(random_cubic(20, seed))) for seed in range(60)]
    inp = write(tmp_path, "many.g6", "\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(packfour.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "packfour.cli", "color", inp], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(proc.stdout.readline())["verified"] is True
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


# ----------------------------------------------------------------- verify

def color_to_file(tmp_path, capsys, g, name="cert.json"):
    inp = write(tmp_path, "graph.g6", write_graph6(g) + "\n")
    cert_path = str(tmp_path / name)
    assert run(capsys, "color", inp, "--out", cert_path)[0] == 0
    return inp, cert_path


def test_verify_ok(tmp_path, capsys):
    inp, cert = color_to_file(tmp_path, capsys, prism())
    code, out, err = run(capsys, "verify", inp, cert)
    assert code == 0
    assert out.strip() == "ok: verified S=1,1,2,2 coloring of n=6 graph"


def test_verify_expects_one_graph(tmp_path, capsys):
    _, cert_path = color_to_file(tmp_path, capsys, k4())
    two = write(tmp_path, "two.g6", "C~\nC~\n")
    assert run(capsys, "verify", two, cert_path) == (1, "", "expected one graph to verify, got 2\n")


def test_verify_rejects_corrupted_certificate(tmp_path, capsys):
    inp, cert_path = color_to_file(tmp_path, capsys, prism())
    cert = json.loads((tmp_path / "cert.json").read_text())
    # push vertex 0 next to its neighbour 1 inside class 1a
    cert["classes"]["1a"] = sorted(cert["classes"]["1a"] + [0])
    cert["classes"]["2b"] = []
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", inp, cert_path)
    assert code == 1
    assert "invalid" in err and "class 1" in err


def test_verify_graph_mismatch(tmp_path, capsys):
    _, cert = color_to_file(tmp_path, capsys, prism())
    other = write(tmp_path, "other.g6", write_graph6(k4()) + "\n")
    code, _, err = run(capsys, "verify", other, cert)
    assert code == 1
    assert "does not match" in err


def test_verify_rejects_claimed_size_before_building(tmp_path, capsys, monkeypatch):
    # a prism certificate edited to claim n = 10^9 is a mismatch, found
    # without building a graph of the claimed size
    inp, cert_path = color_to_file(tmp_path, capsys, prism())
    cert = json.loads((tmp_path / "cert.json").read_text())
    cert["n"] = 10 ** 9
    huge_path = write(tmp_path, "huge.json", json.dumps(cert))
    build = formats.build_graph
    built = []

    def bounded(n, edges):
        if n > 10 ** 6:
            raise AssertionError(f"building a graph on {n} vertices")
        built.append(n)
        return build(n, edges)

    monkeypatch.setattr(formats, "build_graph", bounded)
    # the wrapper sits on the rebuild: the unedited certificate goes through it
    assert run(capsys, "verify", inp, cert_path)[0] == 0
    assert built == [6]
    code, _, err = run(capsys, "verify", inp, huge_path)
    assert code == 1
    assert err == "certificate does not match the given graph\n"
    assert built == [6]


def test_verify_rejects_moved_edge(tmp_path, capsys):
    # same n and m as the input, one edge moved: only the edge sets differ
    inp, cert_path = color_to_file(tmp_path, capsys, prism())
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert [2, 5] in cert["edges"] and [2, 4] not in cert["edges"]
    cert["edges"] = [[2, 4] if e == [2, 5] else e for e in cert["edges"]]
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    code, _, err = run(capsys, "verify", inp, cert_path)
    assert code == 1
    assert "does not match" in err


def test_verify_unreadable_certificate(tmp_path, capsys):
    inp = write(tmp_path, "graph.g6", write_graph6(prism()) + "\n")
    bad = write(tmp_path, "cert.json", "{broken")
    code, _, err = run(capsys, "verify", inp, bad)
    assert code == 1 and "certificate" in err


@pytest.mark.parametrize("field,value", [
    ("classes", []),
    ("n", "6"),
    ("n", True),
    ("edges", [1, 2]),
    ("edges", [[0, 1, 2]]),
    ("s_spec", 5),
    ("classes", {"1a": [0.5]}),
    ("classes", {"1a": 5}),
    # every other s_spec: (1,1,2,2) is the only spec a certificate may name
    *[("s_spec", spec) for spec in OTHER_SPECS if spec != 5],
])
def test_verify_mistyped_certificate_field(tmp_path, capsys, field, value):
    inp, cert_path = color_to_file(tmp_path, capsys, prism())
    cert = json.loads((tmp_path / "cert.json").read_text())
    cert[field] = value
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    code, _, err = run(capsys, "verify", inp, cert_path)
    assert code == 1
    assert err.startswith("certificate: ") and err.count("\n") == 1


def test_verify_rejects_a_looser_spec_coloring(tmp_path, capsys):
    # the prism certificate with class 2a holding vertices 0 and 4, at
    # distance 2: a (1,1,1,1) coloring, not a (1,1,2,2) one, so claiming
    # [1, 1, 1, 1] is one certificate: line, and [1, 1, 2, 2] names the pair
    inp, cert_path = color_to_file(tmp_path, capsys, prism())
    cert = json.loads((tmp_path / "cert.json").read_text())
    cert["classes"] = {"1a": [1, 3], "1b": [2], "2a": [0, 4], "2b": [5]}
    for spec, err in (([1, 1, 1, 1], "certificate: line 1: certificate field 's_spec' is not "
                                     "[1, 1, 2, 2]\n"),
                      ([1, 1, 2, 2], "invalid: vertices 0 and 4 share class 3 at distance 2\n")):
        cert["s_spec"] = spec
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        assert run(capsys, "verify", inp, cert_path) == (1, "", err)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verify_accepts_only_1122_colorings(data):
    # verify exits 0 exactly when the certificate parses, names the input
    # graph and lists a (1,1,2,2) coloring of it, by Floyd-Warshall
    # distances; otherwise it exits 1 with one line on stderr
    text = data.draw(st.sampled_from(real_certificates()))
    cert = data.draw(mutated_certificates(text))
    original = json.loads(text)
    g = oracles.reference_build_graph(original["n"], original["edges"])
    try:
        cg, _, coloring = oracles.reference_coloring_from_certificate(cert)
        sound = cg == g and oracles.spacking_ok(g, (1, 1, 2, 2), coloring)
    except errors.PackfourError:
        sound = False
    with tempfile.TemporaryDirectory() as tmp:
        graph = write(Path(tmp), "graph.g6", write_graph6(g) + "\n")
        code, out, err = run_captured("verify", graph, "-", stdin=json.dumps(cert))
    if sound:
        assert (code, out, err) == (0, f"ok: verified S=1,1,2,2 coloring of n={g.n} graph\n", "")
    else:
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "Traceback" not in err


# ----------------------------------------------------------------- oracle

def oracle_answers_no(monkeypatch, n):
    """Make the CLI's oracle answer "no" on every graph with n vertices, as
    it would on a counterexample, and decide the others as before."""
    decide = cli.exists_spacking

    def no_on_n(g, s, vertex_cap):
        return OracleResult("no") if g.n == n else decide(g, s, vertex_cap)

    monkeypatch.setattr(cli, "exists_spacking", no_on_n)


def test_oracle_flags_a_theorem_violation(tmp_path, capsys, monkeypatch):
    # a claw-free cubic "no" under (1,1,2,2) would contradict the theorem
    oracle_answers_no(monkeypatch, 4)
    inp = write(tmp_path, "k4.g6", "C~\n")
    code, out, err = run(capsys, "oracle", inp, "--s", "1,1,2,2")
    assert (code, out) == (0, "0\t4\tno\tsearch exhausted\n")
    flag, summary = err.splitlines()
    assert flag == "flagged graph 0: theorem-violation: C~"
    assert json.loads(summary)["flagged"] == [
        {"flag": "theorem-violation", "graph6": "C~", "index": 0}]


def test_oracle_tsv_and_summary(tmp_path, capsys):
    inp = write(tmp_path, "in.g6",
                f"{write_graph6(k4())}\nC{chr(20)}\n{write_graph6(cycle(5))}\n")
    code, out, err = run(capsys, "oracle", inp, "--s", "1,1,2")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert [r[2] for r in rows] == ["no", "error", "yes"]
    assert rows[1][1] == "-"
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["total"] == 3 and summary["errors"] == 1


def test_oracle_summary_out_file(tmp_path, capsys):
    inp = write(tmp_path, "in.g6", write_graph6(k4()) + "\n")
    dest = str(tmp_path / "summary.json")
    code, out, err = run(capsys, "oracle", inp, "--s", "1,1,2,2", "--summary-out", dest)
    assert code == 0 and err == ""
    assert json.loads((tmp_path / "summary.json").read_text())["yes"] == 1


def test_oracle_bad_spec_exit_2(tmp_path, capsys):
    inp = write(tmp_path, "in.g6", write_graph6(k4()) + "\n")
    code, _, err = run(capsys, "oracle", inp, "--s", "2,1")
    assert code == 2 and "bad --s" in err


def test_oracle_cap(tmp_path, capsys):
    inp = write(tmp_path, "in.g6", write_graph6(petersen()) + "\n")
    code, out, _ = run(capsys, "oracle", inp, "--s", "1,1,2,2", "--cap", "6")
    assert code == 0
    assert out.split("\t")[2] == "unknown"


# -------------------------------------------------------------------- gen

def test_gen_named(capsys):
    code, out, _ = run(capsys, "gen", "named", "k4")
    assert code == 0 and out.strip() == "C~"


def test_gen_necklace(capsys):
    code, out, _ = run(capsys, "gen", "necklace", "3")
    assert parse_graph6(out.strip()).n == 12
    code, _, err = run(capsys, "gen", "necklace", "1")
    assert code == 2 and "gen" in err


def test_gen_random_cubic(tmp_path, capsys):
    code, out1, _ = run(capsys, "gen", "random-cubic", "10", "--count", "3", "--seed", "5")
    assert code == 0 and len(out1.strip().splitlines()) == 3
    _, out2, _ = run(capsys, "gen", "random-cubic", "10", "--count", "3", "--seed", "5")
    assert out1 == out2
    for line in out1.strip().splitlines():
        g = parse_graph6(line)
        assert g.n == 10 and all(len(g.adj[v]) == 3 for v in range(10))
    code, _, err = run(capsys, "gen", "random-cubic", "9")
    assert code == 2


def test_gen_seed_env(tmp_path, capsys, monkeypatch):
    # no --seed is --seed 0, and the environment plays no part
    monkeypatch.delenv("PACKFOUR_SEED", raising=False)
    _, seed_0, _ = run(capsys, "gen", "random-cubic", "12", "--seed", "0")
    _, seed_41, _ = run(capsys, "gen", "random-cubic", "12", "--seed", "41")
    assert seed_0 != seed_41
    for env in (None, "41", "not-a-number"):
        if env is not None:
            monkeypatch.setenv("PACKFOUR_SEED", env)
        assert run(capsys, "gen", "random-cubic", "12") == (0, seed_0, "")


def test_gen_inflate_from_name_and_file(tmp_path, capsys):
    _, from_name, _ = run(capsys, "gen", "inflate", "--base", "k4")
    assert parse_graph6(from_name.strip()).n == 12
    base = write(tmp_path, "base.g6", write_graph6(k4()) + "\n")
    _, from_file, _ = run(capsys, "gen", "inflate", "--base", base)
    assert from_file == from_name


def test_gen_problem1_and_out(tmp_path, capsys):
    dest = str(tmp_path / "fam.g6")
    code, out, _ = run(capsys, "gen", "problem1", "4", "--seed", "0", "--out", dest)
    assert code == 0 and out == ""
    g = parse_graph6((tmp_path / "fam.g6").read_text().strip())
    assert g.n == 16


# ------------------------------------------------------------- experiment

def test_experiment_problem2_default_corpus(capsys):
    code, out, err = run(capsys, "experiment", "problem2")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["total"] == 5
    assert summary["yes"] == 5 and summary["flagged"] == []
    assert not any(line.startswith("CANDIDATE") for line in lines)


def test_experiment_problem2_prints_a_candidate(capsys, monkeypatch):
    oracle_answers_no(monkeypatch, 4)
    code, out, _ = run(capsys, "experiment", "problem2")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "0\t4\tno\tsearch exhausted"
    assert [line for line in lines if line.startswith("CANDIDATE")] == [
        "CANDIDATE candidate-counterexample: C~"]
    summary = json.loads(lines[-1])
    assert (summary["no"], summary["yes"]) == (1, 4)


def test_experiment_problem2_custom_corpus(tmp_path, capsys):
    inp = write(tmp_path, "in.g6", write_graph6(petersen()) + "\n")
    code, out, _ = run(capsys, "experiment", "problem2", "--input", inp)
    assert code == 0
    verdict = out.strip().splitlines()[0].split("\t")[2]
    # dual route: the experiment's verdict must match a direct oracle call
    assert verdict == exists_spacking(petersen(), SSpec((1, 1, 2, 3))).status


def test_experiment_problem1(capsys):
    code, out, _ = run(capsys, "experiment", "problem1", "--sizes", "4", "--seed", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "base_n=4\tn=16\tverdict=yes\tmethod=pipeline"
    payload = json.loads(lines[-1])
    assert payload["candidates"] == []
    assert payload["results"][0]["verdict"] == "yes"


def test_experiment_problem1_error_record(capsys):
    # a size problem1_family rejects gets an error record; the next size still runs
    code, out, _ = run(capsys, "experiment", "problem1", "--sizes", "3,4")
    lines = out.strip().splitlines()
    assert code == 0 and lines[:2] == ["base_n=3\tn=-\tverdict=error\tmethod=-",
                                       "base_n=4\tn=16\tverdict=yes\tmethod=pipeline"]
    assert json.loads(lines[-1])["results"][0] == {
        "base_n": 3, "detail": "random cubic graph needs even n >= 4, got 3", "verdict": "error"}


def pipeline_stuck(monkeypatch):
    def stuck(g, force):
        raise errors.StuckOddCycle(None, [0, 1, 2], None)

    monkeypatch.setattr(cli, "color_claw_free_cubic", stuck)


@pytest.mark.parametrize("cap,verdict,detail", [
    ((), "yes", None),
    (("--cap", "10"), "unknown", "vertex cap exceeded (n=16 > 10)"),
], ids=["default-cap", "cap-10"])
def test_experiment_problem1_falls_back_to_the_oracle(capsys, monkeypatch, cap, verdict, detail):
    pipeline_stuck(monkeypatch)
    code, out, _ = run(capsys, "experiment", "problem1", "--sizes", "4", *cap)
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == f"base_n=4\tn=16\tverdict={verdict}\tmethod=oracle"
    rec = json.loads(lines[-1])["results"][0]
    assert rec["pipeline"] == "stuck: no addable vertex on odd cycle [0, 1, 2]; input is claw-free"
    assert (rec["method"], rec["verdict"], rec.get("detail")) == ("oracle", verdict, detail)


def test_experiment_problem1_prints_a_candidate(capsys, monkeypatch):
    pipeline_stuck(monkeypatch)
    oracle_answers_no(monkeypatch, 16)
    code, out, _ = run(capsys, "experiment", "problem1", "--sizes", "4")
    lines = out.strip().splitlines()
    g6 = "O{??wx?AG@c?@??A??w?M"
    assert code == 0 and lines[:2] == ["base_n=4\tn=16\tverdict=no\tmethod=oracle",
                                       f"CANDIDATE not-(1,1,2,2)-colorable: {g6}"]
    assert json.loads(lines[-1])["candidates"] == [g6]


# ----------------------------------------------------------------- import

# standard-library and package modules that color and verify never need
NOT_LOADED_BY_IMPORT = ("dataclasses", "inspect", "typing", "packfour.generators", "random")


def run_bare(code: str) -> str:
    """Run code in a fresh `python -S`, no site packages, with packfour's
    sources first on sys.path; return its stdout."""
    src = str(Path(packfour.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", f"import sys\nsys.path.insert(0, {src!r})\n"
                           + code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# what the --jobs pool's workers never needed the parent to load
NOT_LOADED_BY_JOBS = ("concurrent.futures", "multiprocessing", "pickle", "threading")


def test_import_loads_only_what_color_and_verify_need(tmp_path):
    out = run_bare("import packfour.cli\n"
                   f"print([m for m in {NOT_LOADED_BY_IMPORT!r} if m in sys.modules])")
    assert out == "[]\n"
    # a --jobs batch forks its workers and reads their frames with marshal
    inp = write(tmp_path, "in.g6", "".join(write_graph6(g) + "\n" for g in [k4(), prism()] * 4))
    out = run_bare("from packfour.cli import main\n"
                   f"code = main(['color', {inp!r}, '--jobs', '2', '--out', {os.devnull!r}])\n"
                   f"print(code, [m for m in {NOT_LOADED_BY_IMPORT + NOT_LOADED_BY_JOBS!r}"
                   " if m in sys.modules])")
    assert out == "0 []\n"


def test_generators_load_on_first_use():
    out = run_bare("import packfour\n"
                   "print('packfour.generators' in sys.modules, packfour.generators.k4().n)\n"
                   "from packfour import generators\n"
                   "print(generators is packfour.generators)")
    assert out == "False 4\nTrue\n"
    assert run_bare("from packfour import generators\nprint(generators.prism().n)") == "6\n"
    assert run_bare("from packfour import *\nprint(generators.k4().n)") == "4\n"
