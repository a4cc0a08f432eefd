"""graph6 codec, edge-list parsing, and certificate JSON.

graph6 per the public format description: printable bytes 63..126, a size
header (one byte for n <= 62, '~' plus three bytes for 63 <= n <= 258047),
then the upper triangle of the adjacency matrix in column-major order packed
six bits per byte, zero-padded.  K4 is "C~"; the empty graph on 0 vertices
is "?".

The encoder sets each edge's bit in a bytearray of 6-bit values, one per
body byte, and one bytes.translate adds 63 to them all; its only Python loop
runs per edge.  The decoder works at C speed: body bytes 63..126 stand for
0..63 in the same order as the base64 alphabet, so one bytes.translate maps
a body onto base64, and base64 and a base-2 int then give the bit string.
Decoding walks the set bits with str.find, so its only Python loop runs per
edge too; bits past n(n-1)/2 are padding and ignored, whatever their value.
The adjacency lists are built straight from those bits, without
build_graph: graph6 cannot express a self-loop, a duplicate edge or an
endpoint outside 0..n-1, and the column-major bit order appends every
neighbour in increasing order.

Certificates are written here and nowhere else.  write_certificate takes the
step tuples the triangle breaker and the odd-cycle reducer return and writes
the text json.dumps(cert, sort_keys=True, separators=(",", ":")) would give,
by hand: one format string for the top level and one per trace record kind,
each with its keys in sorted order and None written as null, and the classes
and edges through one compact JSONEncoder.  No dict is built per step.  The
tests and scripts/certificate_digest.py check the text against json.dumps.
"""

from __future__ import annotations

import base64
import json
import re
from collections import deque
from itertools import chain, repeat

from .errors import (
    BadChar,
    LengthMismatch,
    ParseError,
    RefusesUnverified,
    TooLarge,
    UnsupportedHeader,
)
from .graph import Graph, build_graph
from .packing import Coloring, SSpec, verify_spacking

MAX_GRAPH6_N = 258047

# class indices for the fixed spec (1,1,2,2), in SPEC_1122 entry order, and
# their certificate names
CLASS_1A, CLASS_1B, CLASS_2A, CLASS_2B = 1, 2, 3, 4
CLASS_NAMES = {CLASS_1A: "1a", CLASS_1B: "1b", CLASS_2A: "2a", CLASS_2B: "2b"}
_CLASS_INDEX = {name: idx for idx, name in CLASS_NAMES.items()}
SPEC_1122 = SSpec((1, 1, 2, 2))

_G6_CHARS = bytes(range(63, 127))
_BAD_G6 = re.compile("[^?-~]")
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_B64 = bytes.maketrans(_G6_CHARS, _B64_ALPHABET)
_ADD_63 = bytes.maketrans(bytes(range(64)), _G6_CHARS)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (no trailing newline, no ">>graph6<<" header)."""
    if len(line) == 0:
        raise LengthMismatch(1, 0)
    # deleting every valid byte leaves nothing on a good line; the regex
    # runs only on a bad one, to name its first bad character
    if not line.isascii() or (data := line.encode("ascii")).translate(None, _G6_CHARS):
        raise BadChar(_BAD_G6.search(line).start())
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise UnsupportedHeader()
        if len(data) < 4:
            raise LengthMismatch(4, len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        offset = 4
    else:
        n = data[0] - 63
        offset = 1
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    body = data[offset:]
    if len(body) != expected:
        raise LengthMismatch(expected, len(body))
    b64 = body.translate(_G6_TO_B64)
    raw = base64.b64decode(b64 + b"A" * (-len(b64) % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    adj: list[list[int]] = [[] for _ in range(n)]
    # bit k is edge (u, v) with u = k - v(v-1)/2; the set bits come in
    # ascending order, so column v only ever moves forward
    v, start, end = 1, 0, 1  # column v holds the bits start .. end - 1
    k = bits.find("1")
    while 0 <= k < nbits:
        while k >= end:
            v += 1
            start = end
            end += v
        u = k - start
        adj[u].append(v)
        adj[v].append(u)
        k = bits.find("1", k + 1)
    return Graph(n, tuple(map(tuple, adj)))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding (padding bits zero)."""
    n = g.n
    if n > MAX_GRAPH6_N:
        raise TooLarge(n)
    if n <= 62:
        header = bytes([n + 63])
    else:
        header = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    body = bytearray((n * (n - 1) // 2 + 5) // 6)  # six bits a byte, high bit first
    adj = g.adj
    for v in range(1, n):
        col = v * (v - 1) // 2
        for u in adj[v]:
            if u >= v:
                break
            k = col + u
            body[k // 6] |= 32 >> k % 6
    return (header + body.translate(_ADD_63)).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" then m lines "u v"; '#' starts a comment, whitespace is free.

    Raises ParseError with a 1-based line number on malformed structure;
    build_graph errors (self-loop, duplicate, out of range) pass through.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_line = lineno
        fields = line.split()
        try:
            nums = [int(f) for f in fields]
        except ValueError:
            raise ParseError(lineno, f"expected integers, got {line!r}") from None
        if header is None:
            if len(nums) != 2:
                raise ParseError(lineno, "expected header 'n m'")
            header = (nums[0], nums[1])
            if header[0] < 0 or header[1] < 0:
                raise ParseError(lineno, "negative count in header")
            continue
        if len(nums) != 2:
            raise ParseError(lineno, "expected edge 'u v'")
        if len(edges) >= header[1]:
            raise ParseError(lineno, f"more than {header[1]} edge lines")
        edges.append((nums[0], nums[1]))
    if header is None:
        raise ParseError(max(last_line, 1), "missing header 'n m'")
    if len(edges) != header[1]:
        raise ParseError(max(last_line, 1),
                         f"expected {header[1]} edges, got {len(edges)}")
    return build_graph(header[0], edges)


_ENCODE = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_LEMMA_RECORD = ('{"addA":[%s],"addB":[%s],"gamma_after":%d,"removeA":%s,"removeB":%s,'
                 '"w_after":%d,"w_before":%d}')
_REDUCER_RECORD = '{"cycle_length":%d,"side":"%s","vertex":%d}'
_CERTIFICATE = ('{"classes":%s,"edges":%s,"lemma_trace":[%s],"n":%d,"reducer_trace":[%s],'
                '"s_spec":%s,"verified":true}')


def write_certificate(g: Graph, coloring: Coloring, lemma, reducer) -> str:
    """Serialize a verified (1,1,2,2) coloring to canonical JSON.

    lemma and reducer are the step tuples break_triangles and
    reduce_odd_cycles return, AppliedMove and Addition; they become
    lemma_trace and reducer_trace, one record per step.  Re-runs the
    verifier and refuses anything it rejects, so a certificate on disk
    always certifies.  Byte-identical output for identical inputs.

    The classes are filled in vertex order, so each lists its members
    ascending, and the edges are g.edges(), read straight off g's sorted
    adjacency tuples, (u, v) with u < v in lexicographic order.  The
    encoder's check for circular references is off: it only sees fresh
    lists and tuples of integers.
    """
    violation = verify_spacking(g, SPEC_1122, coloring)
    if violation is not None:
        raise RefusesUnverified(violation)
    classes = {name: [] for name in CLASS_NAMES.values()}  # keys in sorted order
    for v, cls in enumerate(coloring):
        classes[CLASS_NAMES[cls]].append(v)
    lemma_trace = ",".join([
        _LEMMA_RECORD % (",".join(map(str, add_a)), ",".join(map(str, add_b)), gamma_after,
                         "null" if remove_a is None else remove_a,
                         "null" if remove_b is None else remove_b, w_after, w_before)
        for (add_a, add_b, remove_a, remove_b), w_before, w_after, gamma_after in lemma])
    reducer_trace = ",".join([_REDUCER_RECORD % (cycle_length, side, vertex)
                              for vertex, side, cycle_length in reducer])
    return _CERTIFICATE % (_ENCODE(classes), _ENCODE(g.edges()), lemma_trace, g.n, reducer_trace,
                           _ENCODE(SPEC_1122.values))


def read_certificate(text: str) -> dict:
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, f"bad certificate JSON: {e.msg}") from None
    if not isinstance(cert, dict):
        raise ParseError(1, "certificate is not a JSON object")
    for key in ("n", "edges", "s_spec", "classes"):
        if key not in cert:
            raise ParseError(1, f"certificate missing field {key!r}")
    return cert


def _ints(values) -> bool:
    # JSON true/false decode to bool, a subclass of int: rejected too
    return type(values) is list and {*map(type, values)} <= {int}


def coloring_from_certificate(cert: dict) -> tuple[Graph, SSpec, Coloring]:
    """Rebuild the graph and coloring a certificate claims to certify, with
    SPEC_1122, the one spec a certificate may name.

    Every field is checked first: a mistyped one, or an s_spec other than
    [1, 1, 2, 2] with int entries, is a ParseError.  The
    edges go through build_graph, which takes a canonical list, the one
    write_certificate emits, in one append pass.  The classes are filled at
    C speed after a range check per class; n members in all and no vertex
    left without a class prove each vertex listed once.  Anything else,
    an unknown class name included, is walked again member by member, which
    names the first problem.
    """
    if type(cert["n"]) is not int:
        raise ParseError(1, "certificate field 'n' is not an integer")
    edges = cert["edges"]
    if not (type(edges) is list and {*map(type, edges)} <= {list}
            and {*map(len, edges)} <= {2} and {*map(type, chain.from_iterable(edges))} <= {int}):
        raise ParseError(1, "certificate field 'edges' is not a list of integer pairs")
    if not (_ints(cert["s_spec"]) and cert["s_spec"] == [1, 1, 2, 2]):
        raise ParseError(1, "certificate field 's_spec' is not [1, 1, 2, 2]")
    if type(cert["classes"]) is not dict or not all(map(_ints, cert["classes"].values())):
        raise ParseError(1, "certificate field 'classes' is not an object of integer lists")
    g = build_graph(cert["n"], edges)
    n = g.n
    coloring: list[int | None] = [None] * n
    listed = 0
    for name, members in cert["classes"].items():
        idx = _CLASS_INDEX.get(name)
        if idx is None or members and not (0 <= min(members) and max(members) < n):
            break
        deque(map(coloring.__setitem__, members, repeat(idx)), maxlen=0)
        listed += len(members)
    else:
        if listed == n and None not in coloring:
            return g, SPEC_1122, coloring  # type: ignore[return-value]
    # member by member, raising at the first problem
    coloring = [None] * n
    for name, members in cert["classes"].items():
        if name not in _CLASS_INDEX:
            raise ParseError(1, f"unknown class name {name!r}")
        for v in members:
            if not 0 <= v < n:
                raise ParseError(1, f"class {name} lists vertex {v} outside 0..{n - 1}")
            if coloring[v] is not None:
                raise ParseError(1, f"vertex {v} appears in two classes")
            coloring[v] = _CLASS_INDEX[name]
    for v, cls in enumerate(coloring):
        if cls is None:
            raise ParseError(1, f"vertex {v} has no class")
    return g, SPEC_1122, coloring  # type: ignore[return-value]


def write_dot(g: Graph, coloring: Coloring) -> str:
    """DOT output for eyeballing, each vertex labelled "v:class" (1a, 1b,
    2a or 2b); not part of any certified path."""
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f'  {v} [label="{v}:{CLASS_NAMES[coloring[v]]}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
