"""graph6 codec, edge-list parsing, and certificate JSON.

graph6 per the public format description: printable bytes 63..126, a size
header (one byte for n <= 62, '~' plus three bytes for 63 <= n <= 258047),
then the upper triangle of the adjacency matrix in column-major order packed
six bits per byte, zero-padded.  K4 is "C~"; the empty graph on 0 vertices
is "?".
"""

from __future__ import annotations

import json
from itertools import chain

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

# certificate class names for the fixed spec (1,1,2,2), keyed by class index
CLASS_NAMES = {1: "1a", 2: "1b", 3: "2a", 4: "2b"}
SPEC_1122 = SSpec((1, 1, 2, 2))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (no trailing newline, no ">>graph6<<" header)."""
    if len(line) == 0:
        raise LengthMismatch(1, 0)
    for pos, ch in enumerate(line):
        if not 63 <= ord(ch) <= 126:
            raise BadChar(pos)
    data = line.encode("ascii")
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
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            byte = body[k // 6] - 63
            if (byte >> (5 - k % 6)) & 1:
                edges.append((u, v))
            k += 1
    return build_graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding (padding bits zero)."""
    if g.n > MAX_GRAPH6_N:
        raise TooLarge(g.n)
    if g.n <= 62:
        header = [g.n + 63]
    else:
        header = [126, ((g.n >> 12) & 63) + 63, ((g.n >> 6) & 63) + 63, (g.n & 63) + 63]
    bits = []
    for v in range(1, g.n):
        row = g.adj[v]
        for u in range(v):
            bits.append(1 if u in row else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i:i + 6]:
            group = (group << 1) | b
        body.append(group + 63)
    return bytes(header + body).decode("ascii")


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


def _empty_trace() -> dict:
    return {"lemma": [], "reducer": []}


def write_certificate(g: Graph, coloring: Coloring, trace: dict | None = None) -> str:
    """Serialize a verified (1,1,2,2) coloring to canonical JSON.

    Re-runs the verifier and refuses anything it rejects, so a certificate on
    disk always certifies.  Keys are sorted and set-like arrays ascending;
    byte-identical output for identical inputs.
    """
    violation = verify_spacking(g, SPEC_1122, coloring)
    if violation is not None:
        raise RefusesUnverified(violation)
    trace = trace if trace is not None else _empty_trace()
    classes = {name: [] for name in CLASS_NAMES.values()}
    for v, cls in enumerate(coloring):
        classes[CLASS_NAMES[cls]].append(v)
    cert = {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
        "s_spec": list(SPEC_1122.values),
        "classes": {name: sorted(vs) for name, vs in classes.items()},
        "lemma_trace": trace.get("lemma", []),
        "reducer_trace": trace.get("reducer", []),
        "verified": True,
    }
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


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
    """Rebuild the graph, spec and coloring a certificate claims to certify.

    Every field is type-checked first: a mistyped one is a ParseError.
    """
    if type(cert["n"]) is not int:
        raise ParseError(1, "certificate field 'n' is not an integer")
    edges = cert["edges"]
    if not (type(edges) is list and {*map(type, edges)} <= {list}
            and {*map(len, edges)} <= {2} and {*map(type, chain.from_iterable(edges))} <= {int}):
        raise ParseError(1, "certificate field 'edges' is not a list of integer pairs")
    if not _ints(cert["s_spec"]):
        raise ParseError(1, "certificate field 's_spec' is not a list of integers")
    if type(cert["classes"]) is not dict or not all(map(_ints, cert["classes"].values())):
        raise ParseError(1, "certificate field 'classes' is not an object of integer lists")
    g = build_graph(cert["n"], [tuple(e) for e in edges])
    s = SSpec(tuple(cert["s_spec"]))
    name_to_index = {name: idx for idx, name in CLASS_NAMES.items()}
    coloring: list[int | None] = [None] * g.n
    for name, members in cert["classes"].items():
        if name not in name_to_index:
            raise ParseError(1, f"unknown class name {name!r}")
        for v in members:
            if not 0 <= v < g.n:
                raise ParseError(1, f"class {name} lists vertex {v} outside 0..{g.n - 1}")
            if coloring[v] is not None:
                raise ParseError(1, f"vertex {v} appears in two classes")
            coloring[v] = name_to_index[name]
    for v, cls in enumerate(coloring):
        if cls is None:
            raise ParseError(1, f"vertex {v} has no class")
    return g, s, coloring  # type: ignore[return-value]


def write_dot(g: Graph, coloring: Coloring | None = None) -> str:
    """DOT output for eyeballing; not part of any certified path."""
    lines = ["graph G {"]
    for v in range(g.n):
        if coloring is not None:
            lines.append(f'  {v} [label="{v}:{CLASS_NAMES.get(coloring[v], coloring[v])}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
