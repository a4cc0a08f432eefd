from __future__ import annotations

import json
import re

import pytest

from packfour.cli import main
from packfour.formats import parse_graph6, write_graph6
from packfour.generators import cycle, k4, petersen, prism
from packfour.packing import SSpec, verify_spacking
from packfour.oracle import exists_spacking


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


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


def test_color_jobs_matches_serial(tmp_path, capsys):
    inp = write(tmp_path, "in.g6",
                "\n".join(write_graph6(g) for g in (k4(), prism(), k4(), prism())) + "\n")
    _, serial, _ = run(capsys, "color", inp)
    _, parallel, _ = run(capsys, "color", inp, "--jobs", "3")
    assert serial == parallel


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
])
def test_verify_mistyped_certificate_field(tmp_path, capsys, field, value):
    inp, cert_path = color_to_file(tmp_path, capsys, prism())
    cert = json.loads((tmp_path / "cert.json").read_text())
    cert[field] = value
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    code, _, err = run(capsys, "verify", inp, cert_path)
    assert code == 1
    assert err.startswith("certificate: ")


# ----------------------------------------------------------------- oracle

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
        assert g.n == 10 and all(g.degree(v) == 3 for v in range(10))
    code, _, err = run(capsys, "gen", "random-cubic", "9")
    assert code == 2


def test_gen_seed_env(tmp_path, capsys, monkeypatch):
    _, explicit, _ = run(capsys, "gen", "random-cubic", "12", "--seed", "41")
    monkeypatch.setenv("PACKFOUR_SEED", "41")
    _, from_env, _ = run(capsys, "gen", "random-cubic", "12")
    assert from_env == explicit
    monkeypatch.setenv("PACKFOUR_SEED", "not-a-number")
    code, _, err = run(capsys, "gen", "random-cubic", "12")
    assert code == 2 and "PACKFOUR_SEED" in err


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
