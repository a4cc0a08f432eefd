"""Check that the pipeline still writes byte-identical certificates.

Colors two fixed, seeded sets of graphs from packfour.generators and compares
the SHA-256 over each set's per-certificate SHA-256 digests, in the order
below, with the value pinned here for that set.  Imports nothing but the
standard library and the package under ../src, so it runs on any CPython
the package supports, without the test dependencies:

    python scripts/certificate_digest.py

Each certificate must also be canonical JSON, the text json.dumps gives on
its own decoding with sorted keys and no whitespace: the writer encodes the
certificate by hand, and this checks that encoding on every CPython the
script runs on.

Prints each digest and its number of certificates; exits 0 when both
digests match their pins and every certificate is canonical, and 1
otherwise.  A change to the certificates that is meant (a different move
order, witness or certificate field) has to re-pin PINNED or
PINNED_RELABELLED and say why.

The first set: the named claw-free graphs, diamond necklaces, triangle
inflations of seeded random cubic graphs, and clawed problem1 gadgets
colored with force, the only inputs here on which the odd-cycle reducer
absorbs vertices.  The last gadget, problem1_family(1000, 1) on 4,000
vertices, absorbs 81 vertices from one giant remainder component, on long
odd cycles.

The second set: diamond_necklace(3) relabelled by two seeded permutations.
In their natural numbering the graphs above never reach the breaker's one
step that removes more than its additions force (an affordable chosen
vertex on the free side that sorts before the one forced removal); these
two do, once taking that extra removal and once, with the extra sorting
after, not taking it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from packfour.generators import (  # noqa: E402
    diamond_necklace, inflate, k4, k33, petersen, prism, problem1_family, random_cubic)
from packfour.graph import build_graph  # noqa: E402
from packfour.pipeline import color_claw_free_cubic  # noqa: E402

PINNED = "b10df5dc88772a65195c55051a4f5942a71d32d4c9dc067d763a4caf8b1aae3a"
PINNED_RELABELLED = "8dbdc8b9b59fafcf79aa426a6ccb2c3f1e4a207901e2aa063cfbd13b1aa2cd2e"


def cases():
    """(graph, force) in digest order."""
    for g in (k4(), prism(), inflate(k4()), inflate(k33()), inflate(prism()), inflate(petersen())):
        yield g, False
    for k in range(2, 13):
        yield diamond_necklace(k), False
    for n in range(4, 61, 2):
        for seed in range(5):
            yield inflate(random_cubic(n, seed=seed)), False
    for n in (200, 1000):
        yield inflate(random_cubic(n, seed=0)), False
    for n in (10, 20, 40, 60, 100, 200):
        for seed in range(4):
            yield problem1_family(n, seed), True
    yield problem1_family(1000, 1), True


def relabelled_cases():
    """(graph, force) in digest order: diamond_necklace(3) with vertex v
    renamed perm[v], perm a seeded shuffle of 0..11."""
    g = diamond_necklace(3)
    for seed in (172, 63):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        yield build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), False


def digest(cases) -> tuple[str, int, int, int]:
    """The digest over cases, the number of certificates, how many of them
    record a reducer absorption, and how many are not canonical JSON."""
    total = hashlib.sha256()
    count = absorbing = noncanonical = 0
    for g, force in cases:
        _, certificate = color_claw_free_cubic(g, force=force)
        total.update(hashlib.sha256(certificate.encode("utf-8")).digest())
        count += 1
        absorbing += '"reducer_trace":[]' not in certificate
        noncanonical += (json.dumps(json.loads(certificate), sort_keys=True,
                                    separators=(",", ":")) != certificate)
    return total.hexdigest(), count, absorbing, noncanonical


def main() -> int:
    failed = False
    for name, cases_of, pinned in (("PINNED", cases, PINNED),
                                   ("PINNED_RELABELLED", relabelled_cases, PINNED_RELABELLED)):
        value, count, absorbing, noncanonical = digest(cases_of())
        print(f"{value} over {count} certificates, {absorbing} with reducer absorptions "
              f"(Python {sys.version.split()[0]})")
        if value != pinned:
            print(f"certificate digest differs from {name}, {pinned}", file=sys.stderr)
        if noncanonical:
            print(f"{noncanonical} certificates are not canonical JSON", file=sys.stderr)
        failed |= value != pinned or noncanonical > 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
