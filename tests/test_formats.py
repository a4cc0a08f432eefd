from __future__ import annotations

import itertools
import json
from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packfour.errors import (
    BadChar,
    LengthMismatch,
    ParseError,
    RefusesUnverified,
    SelfLoop,
    TooLarge,
    UnsupportedHeader,
)
from packfour.formats import (
    MAX_GRAPH6_N,
    coloring_from_certificate,
    parse_edge_list,
    parse_graph6,
    read_certificate,
    write_certificate,
    write_dot,
    write_graph6,
)
from packfour.generators import (cycle, inflate, k4, petersen, prism, problem1_family,
                                 random_cubic)
from packfour.graph import Graph, build_graph
from packfour.odd_cycle import Addition, reduce_odd_cycles
from packfour.packing import verify_spacking
from packfour.pipeline import color_claw_free_cubic
from packfour.triangle_break import AppliedMove, Move, break_triangles

import oracles
from oracles import graphs
from test_acceptance import build_corpus


# ---------------------------------------------------------------- graph6

def test_k4_is_c_tilde():
    g = parse_graph6("C~")
    assert g.n == 4
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert write_graph6(k4()) == "C~"
    # header: chr(4+63) = 'C'; six upper-triangle bits all set -> 0b111111
    # -> chr(63+63) = '~'
    assert ord("C") - 63 == 4
    assert ord("~") - 63 == 0b111111


def test_c5_and_empty_frozen():
    assert write_graph6(cycle(5)) == "Dhc"
    assert sorted(parse_graph6("Dhc").edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert write_graph6(build_graph(5, [])) == "D??"
    assert parse_graph6("D??").m == 0
    assert parse_graph6("?").n == 0
    assert write_graph6(build_graph(0, [])) == "?"


def test_bad_char_position():
    with pytest.raises(BadChar) as e:
        parse_graph6("C" + chr(20))
    assert e.value.position == 1
    with pytest.raises(BadChar) as e:
        parse_graph6(chr(200) + "C~")
    assert e.value.position == 0
    # non-ASCII must not slip through as '?'
    with pytest.raises(BadChar):
        parse_graph6("Cé")
    # a long line with the four-byte header; positions as the bit-by-bit
    # decoder reported them
    enc = write_graph6(oracles.random_graph(100, 0.1, seed=3))
    assert enc.startswith("~?@c") and len(enc) == 829
    for line, position in ((enc[:-1] + ">", 828), (enc + " ", 829),
                           (enc[:400] + "é" + enc[401:], 400),
                           (enc[:10] + chr(127) + enc[11:], 10), (enc + chr(127), 829)):
        with pytest.raises(BadChar) as e:
            parse_graph6(line)
        assert e.value.position == position


def _g6_outcome(line):
    """The BadChar position parse_graph6 reports for line, or "not BadChar"."""
    try:
        parse_graph6(line)
    except BadChar as e:
        return e.position
    except (LengthMismatch, UnsupportedHeader):
        pass
    return "not BadChar"


@pytest.mark.parametrize("code", [62, 63, 126, 127])
def test_graph6_byte_range_edges(code):
    # 63 and 126 bound the valid bytes: 62 and 127 are bad wherever they
    # stand, 63 and 126 never are (at the header they may still give a bad
    # size or length); both header forms, first, middle and last positions
    for enc in (write_graph6(petersen()), write_graph6(oracles.random_graph(100, 0.1, seed=3))):
        for position in (0, len(enc) // 2, len(enc) - 1):
            line = enc[:position] + chr(code) + enc[position + 1:]
            want = position if code in (62, 127) else "not BadChar"
            assert _g6_outcome(line) == want


@pytest.mark.parametrize("ch", ["é", "€", "\U0001f600", "\x80"])
def test_graph6_non_ascii(ch):
    enc = write_graph6(petersen())
    for position in (0, len(enc) // 2, len(enc) - 1):
        assert _g6_outcome(enc[:position] + ch + enc[position + 1:]) == position
    # the first bad character is named, ASCII or not
    assert _g6_outcome(enc[:2] + ch + enc[3:5] + chr(127) + enc[6:]) == 2
    assert _g6_outcome(enc[:2] + chr(62) + enc[3:5] + ch + enc[6:]) == 2


def test_length_mismatch():
    with pytest.raises(LengthMismatch) as e:
        parse_graph6("C")
    assert (e.value.expected, e.value.got) == (1, 0)
    with pytest.raises(LengthMismatch) as e:
        parse_graph6("C~~")
    assert (e.value.expected, e.value.got) == (1, 2)
    with pytest.raises(LengthMismatch):
        parse_graph6("")
    enc = write_graph6(oracles.random_graph(100, 0.1, seed=3))  # four-byte header
    for line, got in ((enc[:-1], 824), (enc + "?", 826)):
        with pytest.raises(LengthMismatch) as e:
            parse_graph6(line)
        assert (e.value.expected, e.value.got) == (825, got)


def test_extended_header():
    with pytest.raises(UnsupportedHeader):
        parse_graph6("~~?????")
    with pytest.raises(LengthMismatch) as e:
        parse_graph6("~?@")
    assert e.value.expected == 4
    g = oracles.random_graph(63, 0.2, seed=7)
    enc = write_graph6(g)
    assert enc.startswith("~??~")  # 63 = 0,0,63 in three 6-bit fields
    back = parse_graph6(enc)
    assert back.n == 63 and sorted(back.edges()) == sorted(g.edges())


def test_too_large():
    # write_graph6 checks n before it reads an adjacency tuple
    g = Graph(MAX_GRAPH6_N + 1, ())
    with pytest.raises(TooLarge):
        write_graph6(g)


@given(graphs(max_n=12))
@settings(max_examples=100)
def test_graph6_round_trip(g):
    enc = write_graph6(g)
    back = parse_graph6(enc)
    assert back.n == g.n
    assert sorted(back.edges()) == sorted(g.edges())
    # canonical padding: re-encode is byte identical
    assert write_graph6(back) == enc
    assert enc == oracles.g6_encode_reference(g)


@given(graphs(max_n=10))
@settings(max_examples=50)
def test_graph6_matches_networkx(g):
    enc = write_graph6(g)
    nxg = nx.from_graph6_bytes(enc.encode())
    assert sorted(map(tuple, map(sorted, nxg.edges()))) == sorted(g.edges())
    nxg2 = nx.Graph()
    nxg2.add_nodes_from(range(g.n))  # node order defines the encoding
    nxg2.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(nxg2)
    # networkx prepends ">>graph6<<" and appends a newline
    assert theirs.decode().removeprefix(">>graph6<<").strip() == enc


def test_large_round_trip():
    g = oracles.random_graph(100, 0.1, seed=3)
    assert sorted(parse_graph6(write_graph6(g)).edges()) == sorted(g.edges())


def test_graph6_matches_bitwise_references_for_every_n():
    # n 0..140 crosses the 62/63 header switch and every residue of the
    # padding (nbits % 6) and of the base64 grouping (nchars % 4); n 0 and 1
    # have an empty body
    for n in range(141):
        for g in (oracles.random_graph(n, 0.3, seed=n), build_graph(n, []),
                  oracles.random_graph(n, 1.0, seed=0)):
            enc = write_graph6(g)
            ref = oracles.g6_encode_reference(g)
            assert enc == ref
            assert parse_graph6(ref) == g
            assert oracles.g6_decode_reference(enc) == g


@pytest.mark.parametrize("n", [63, 100, 129])
def test_graph6_matches_networkx_beyond_one_byte_header(n):
    g = oracles.random_graph(n, 0.2, seed=n)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))  # node order defines the encoding
    nxg.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert write_graph6(g) == theirs
    assert parse_graph6(theirs) == g
    back = nx.from_graph6_bytes(theirs.encode())
    assert sorted(map(tuple, map(sorted, back.edges()))) == sorted(g.edges())


def test_nonzero_padding_bits_are_ignored():
    # n 5: 10 bits, two of padding; n 70: 2415 bits, three of padding
    assert parse_graph6("Dhf") == parse_graph6("Dhc") == cycle(5)
    g = oracles.random_graph(70, 0.2, seed=1)
    enc = write_graph6(g)
    assert enc[-1] == "?"
    assert parse_graph6(enc[:-1] + chr(63 + 0b000111)) == g


def test_graph6_round_trip_at_ten_thousand_vertices():
    g = oracles.diamond_strings(1600, 1, 0.3, 7)
    assert g.n == 10720
    enc = write_graph6(g)
    assert len(enc) == 4 + -(-g.n * (g.n - 1) // 12)
    assert parse_graph6(enc) == g


# ------------------------------------------------------------- edge lists

def test_edge_list_parses_with_comments():
    text = """
    # the triangular prism
    6 9
    0 1
    0 2\t# tab before comment
    1 2
    3 4
    3 5
    4 5
    0 3
    1 4
    2 5
    """
    g = parse_edge_list(text)
    assert sorted(g.edges()) == sorted(prism().edges())


def test_edge_list_errors():
    with pytest.raises(ParseError) as e:
        parse_edge_list("6 x\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_edge_list("3 1\n0 1 2\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_edge_list("")  # no header
    with pytest.raises(ParseError):
        parse_edge_list("3\n")  # header needs two fields
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n")  # promised one edge, gave none
    with pytest.raises(ParseError) as e:
        parse_edge_list("3 1\n0 1\n1 2\n")
    assert e.value.line == 3
    with pytest.raises(SelfLoop):
        parse_edge_list("3 1\n2 2\n")


# ------------------------------------------------------------ certificates

PRISM_COLORING = [3, 1, 2, 2, 4, 1]  # classes: 1a={1,5} 1b={2,3} 2a={0} 2b={4}


def test_certificate_round_trip():
    g = prism()
    cert_text = write_certificate(g, PRISM_COLORING, (), ())
    cert = read_certificate(cert_text)
    assert cert["verified"] is True
    assert cert["s_spec"] == [1, 1, 2, 2]
    assert cert["classes"] == {"1a": [1, 5], "1b": [2, 3], "2a": [0], "2b": [4]}
    g2, s, coloring = coloring_from_certificate(cert)
    assert sorted(g2.edges()) == sorted(g.edges())
    assert coloring == PRISM_COLORING
    assert verify_spacking(g2, s, coloring) is None
    # canonical JSON: sorted keys, no whitespace, byte-stable
    assert cert_text == json.dumps(json.loads(cert_text), sort_keys=True, separators=(",", ":"))
    assert write_certificate(g, PRISM_COLORING, (), ()) == cert_text


def test_certificate_refuses_bad_coloring():
    g = prism()
    bad = [1, 1, 2, 2, 3, 4]  # 0 and 1 adjacent, both class 1
    with pytest.raises(RefusesUnverified) as e:
        write_certificate(g, bad, (), ())
    assert e.value.violation.u == 0 and e.value.violation.v == 1


def test_certificate_carries_traces():
    lemma = [AppliedMove(Move(add_a=(3,), add_b=(0,), remove_a=0), 1, 2, 0)]
    reducer = [Addition(7, "B", 5)]
    cert = json.loads(write_certificate(prism(), PRISM_COLORING, lemma, reducer))
    assert cert["lemma_trace"] == [{"addA": [3], "addB": [0], "gamma_after": 0, "removeA": 0,
                                    "removeB": None, "w_after": 2, "w_before": 1}]
    assert cert["reducer_trace"] == [{"cycle_length": 5, "side": "B", "vertex": 7}]
    empty = json.loads(write_certificate(prism(), PRISM_COLORING, (), ()))
    assert empty["lemma_trace"] == empty["reducer_trace"] == []


def hand_made_steps() -> tuple[list[AppliedMove], list[Addition]]:
    """Breaker steps with every mix of None and integer removals and zero to
    two additions per side, and reducer records on both sides."""
    adds = [(), (3,), (3, 17)]
    lemma = [AppliedMove(Move(add_a, add_b, remove_a, remove_b), w, w + 2, 10 - w)
             for w, (add_a, add_b, remove_a, remove_b)
             in enumerate(itertools.product(adds, adds, (None, 0), (None, 12)))]
    reducer = [Addition(7, "A", 5), Addition(0, "B", 11), Addition(12, "A", 3)]
    return lemma, reducer


def certificate_cases():
    """(graph, force) for the trace cross-check: the acceptance corpus, the
    clawed problem1 gadgets colored with force, diamond strings, and a
    diamond chain, claw-free input whose reducer absorbs."""
    for g in build_corpus():
        yield g, False
    for n in (10, 20, 40):
        for seed in range(4):
            yield problem1_family(n, seed), True
    for base_n, seed in ((40, 1), (60, 2), (100, 3)):
        yield oracles.diamond_strings(base_n, 1, 0.3, seed), False
    yield oracles.diamond_chain(10), False


def test_trace_text_matches_json_dumps():
    # the hand encoding of the trace records writes what json.dumps writes
    # on the reference records, and the whole certificate is canonical JSON
    def canonical(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    def check(certificate, lemma, reducer):
        lemma_text, rest = certificate.split(',"lemma_trace":', 1)[1].split(',"n":', 1)
        reducer_text = rest.split('"reducer_trace":', 1)[1].split(',"s_spec":', 1)[0]
        assert lemma_text == canonical(oracles.reference_lemma_records(lemma))
        assert reducer_text == canonical(oracles.reference_reducer_records(reducer))
        assert canonical(json.loads(certificate)) == certificate

    absorbing = 0
    for g, force in certificate_cases():
        coloring, certificate = color_claw_free_cubic(g, force=force)
        pair, lemma = break_triangles(g)
        _, reducer = reduce_odd_cycles(g, pair)
        assert write_certificate(g, coloring, lemma, reducer) == certificate
        check(certificate, lemma, reducer)
        absorbing += bool(reducer)
    assert absorbing == 12
    lemma, reducer = hand_made_steps()
    check(write_certificate(prism(), PRISM_COLORING, lemma, reducer), lemma, reducer)


def test_read_certificate_errors():
    with pytest.raises(ParseError):
        read_certificate("{not json")
    with pytest.raises(ParseError):
        read_certificate("[1,2]")
    with pytest.raises(ParseError):
        read_certificate('{"n": 3}')


def test_coloring_from_certificate_errors():
    base = json.loads(write_certificate(prism(), PRISM_COLORING, (), ()))
    dup = json.loads(json.dumps(base))
    dup["classes"]["1b"] = [1, 2, 3]  # vertex 1 already in 1a
    with pytest.raises(ParseError):
        coloring_from_certificate(dup)
    missing = json.loads(json.dumps(base))
    missing["classes"]["2b"] = []
    with pytest.raises(ParseError):
        coloring_from_certificate(missing)
    alien = json.loads(json.dumps(base))
    alien["classes"]["9z"] = []
    with pytest.raises(ParseError):
        coloring_from_certificate(alien)
    oob = json.loads(json.dumps(base))
    oob["classes"]["2b"] = [17]
    with pytest.raises(ParseError):
        coloring_from_certificate(oob)


@lru_cache(maxsize=1)
def real_certificates() -> tuple[str, ...]:
    """Certificates of acceptance-corpus graphs and of two clawed
    problem1_family graphs colored with force, whose reducer absorbs."""
    corpus = [k4(), prism(), inflate(petersen())]
    corpus += [inflate(random_cubic(n, seed=1000 * n + s)) for n in (8, 14) for s in range(2)]
    forced = [problem1_family(20, seed) for seed in (0, 1)]
    return (tuple(color_claw_free_cubic(g)[1] for g in corpus)
            + tuple(color_claw_free_cubic(g, force=True)[1] for g in forced))


# s_spec values a certificate may not claim: a looser spec, the right one
# with an entry appended, none, entries that compare equal to 1 but are not
# ints, and no list at all
OTHER_SPECS = ([1, 1, 1, 1], [1, 1, 2, 2, 9], [], [True, 1, 2, 2], [1.0, 1, 2, 2], 5)


def loosened(cert: dict) -> list[tuple[int, str]]:
    """(vertex, class) moves that put a vertex into a class of radius 2
    where a looser spec, one that gives the class radius 1, still holds it:
    no member of the class is adjacent to the vertex, and one lies at
    distance 2.  Read off the certificate's own edges and classes."""
    nbrs: dict[int, set[int]] = {}
    for u, v in cert["edges"]:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    out = []
    for name in ("2a", "2b"):
        members = set(cert["classes"].get(name, ()))
        for v in sorted(nbrs):
            near = nbrs[v]
            if v not in members and not near & members and any(nbrs[w] & members for w in near):
                out.append((v, name))
    return out


@st.composite
def mutated_certificates(draw, text: str | None = None) -> dict:
    """A real certificate (text, or one drawn from real_certificates()) with
    up to two changes: a member of -1 or n, a vertex in two classes, a
    vertex dropped, a member replaced by another vertex (one listed twice,
    one dropped, n members in all), an unknown class name, an edge repeated
    or reversed, the edges shuffled, n off by one, an s_spec from
    OTHER_SPECS, a vertex moved into a class that only a looser spec
    allows."""
    cert = json.loads(text or draw(st.sampled_from(real_certificates())))
    classes, edges = cert["classes"], cert["edges"]
    for kind in draw(st.lists(st.sampled_from(["range", "twice", "drop", "replace", "name",
                                               "repeat", "reverse", "shuffle", "n", "spec",
                                               "loose"]),
                              max_size=2)):
        name = draw(st.sampled_from(sorted(classes)))
        members = classes[name]
        at = draw(st.integers(0, max(len(members) - 1, 0)))
        e = draw(st.integers(0, len(edges) - 1))
        if kind == "range" and members:
            members[at] = draw(st.sampled_from([-1, cert["n"]]))
        elif kind == "twice" and members:
            other = draw(st.sampled_from(sorted(classes)))
            classes[other].insert(draw(st.integers(0, len(classes[other]))), members[at])
        elif kind == "drop" and members:
            del members[at]
        elif kind == "replace" and members:
            members[at] = draw(st.integers(0, cert["n"] - 1))
        elif kind == "name":
            classes[draw(st.sampled_from(["9z", "1A", ""]))] = classes.pop(name)
        elif kind == "repeat":
            edges.insert(e + 1, list(edges[e]))
        elif kind == "reverse":
            edges[e] = edges[e][::-1]
        elif kind == "shuffle":
            cert["edges"] = edges = draw(st.permutations(edges))
        elif kind == "n":
            cert["n"] += draw(st.sampled_from([-1, 1]))
        elif kind == "spec":
            cert["s_spec"] = draw(st.sampled_from(OTHER_SPECS))
        elif kind == "loose" and (moves := loosened(cert)):
            v, name = draw(st.sampled_from(moves))
            for members in classes.values():
                while v in members:
                    members.remove(v)
            classes[name] = sorted(classes[name] + [v])
    return cert


@given(mutated_certificates())
@settings(max_examples=300, deadline=None)
def test_coloring_from_certificate_matches_reference(cert):
    # the C-speed class fill and its re-walk give the reference's graph,
    # spec and coloring, or its exception with the same message
    want = oracles.outcome(oracles.reference_coloring_from_certificate, cert)
    assert oracles.outcome(coloring_from_certificate, json.loads(json.dumps(cert))) == want


def test_write_dot():
    out = write_dot(prism(), PRISM_COLORING)
    assert "0 -- 1;" in out and "2 -- 5;" in out
    assert '"0:2a"' in out
    assert write_dot(petersen(), [1 + v % 4 for v in range(10)]).count("--") == 15
