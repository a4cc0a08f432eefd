"""Check that the pipeline still writes byte-identical certificates.

Colors a fixed, seeded set of graphs from packfour.generators and compares
the SHA-256 over the per-certificate SHA-256 digests, in the order below,
with the value pinned here.  Imports nothing but the standard library and
the package under ../src, so it runs on any CPython the package supports,
without the test dependencies:

    python scripts/certificate_digest.py

Each certificate must also be canonical JSON, the text json.dumps gives on
its own decoding with sorted keys and no whitespace: the writer encodes the
certificate by hand, and this checks that encoding on every CPython the
script runs on.

Prints the digest and the number of certificates; exits 0 when the digest
matches the pinned one and every certificate is canonical, and 1 otherwise.
A change to the certificates that is meant (a different move order, witness
or certificate field) has to re-pin PINNED and say why.

The set: the named claw-free graphs, diamond necklaces, triangle inflations
of seeded random cubic graphs, and clawed problem1 gadgets colored with
force, the only inputs here on which the odd-cycle reducer absorbs vertices.
The last gadget, problem1_family(1000, 1) on 4,000 vertices, absorbs 81
vertices from one giant remainder component, on long odd cycles.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from packfour.generators import (  # noqa: E402
    diamond_necklace, inflate, k4, k33, petersen, prism, problem1_family, random_cubic)
from packfour.pipeline import color_claw_free_cubic  # noqa: E402

PINNED = "b10df5dc88772a65195c55051a4f5942a71d32d4c9dc067d763a4caf8b1aae3a"


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


def digest() -> tuple[str, int, int, int]:
    """The digest, the number of certificates, how many of them record a
    reducer absorption, and how many are not canonical JSON."""
    total = hashlib.sha256()
    count = absorbing = noncanonical = 0
    for g, force in cases():
        _, certificate = color_claw_free_cubic(g, force=force)
        total.update(hashlib.sha256(certificate.encode("utf-8")).digest())
        count += 1
        absorbing += '"reducer_trace":[]' not in certificate
        noncanonical += (json.dumps(json.loads(certificate), sort_keys=True,
                                    separators=(",", ":")) != certificate)
    return total.hexdigest(), count, absorbing, noncanonical


def main() -> int:
    value, count, absorbing, noncanonical = digest()
    print(f"{value} over {count} certificates, {absorbing} with reducer absorptions "
          f"(Python {sys.version.split()[0]})")
    if value != PINNED:
        print(f"certificate digest differs from the pinned {PINNED}", file=sys.stderr)
    if noncanonical:
        print(f"{noncanonical} certificates are not canonical JSON", file=sys.stderr)
    return int(value != PINNED or noncanonical > 0)


if __name__ == "__main__":
    sys.exit(main())
