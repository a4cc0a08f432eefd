"""Run the mutant catalogue: every mutant must be killed by the tests named for it.

A mutant is a literal patch on one file under src/packfour: the old text,
which must occur exactly once, the new text that replaces it, and the tests
that should fail under it.  For each mutant the script copies src/ into a
temporary directory, applies the patch there, and runs those tests in one
`python -m pytest -x` subprocess with the copy first on PYTHONPATH, under the
mutant's own time bound.  The mutant is killed when a test fails, or when the
bound runs out; a mutant that makes the code loop forever counts as killed
only that way, so its bound is short.  One pytest process runs at a time.

Before the mutants, every named test runs on an unpatched copy, which must
be the package the tests import.  The tests run grouped by their mutants'
bound, each group under half that bound, and must pass: otherwise a failure
under a mutant would say nothing about the patch, and a run past the bound
would not show that the patch made the code loop.

    python scripts/mutants.py

Prints one line per mutant.  Exits 0 when every mutant is killed, and 1 when
one survives, when its old text does not occur exactly once, when pytest
cannot run its tests, or when the unpatched run fails or outlives half a
bound.  Needs the test
dependencies (pytest, hypothesis, networkx), like the test suite.

A change that adds a correctness check adds the mutants that check must kill
here, with the tests that kill them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# path is relative to src/packfour; tests are pytest node ids relative to the
# repository root; bound_s is the time bound of the one pytest run
Mutant = namedtuple("Mutant", "name path old new tests bound_s")

MISTYPED_S_SPEC = tuple(
    f"tests/test_cli.py::test_verify_mistyped_certificate_field[s_spec-{case}]"
    for case in ("5", "value8", "value9", "value10", "value11", "value12"))

CATALOGUE = [
    # a certificate may name (1,1,2,2) alone
    Mutant("s-spec-check-removed", "formats.py",
           '    if not (_ints(cert["s_spec"]) and cert["s_spec"] == [1, 1, 2, 2]):\n',
           "    if False:\n",
           MISTYPED_S_SPEC, 120),
    # JSON true decodes to bool, and [true, 1, 2, 2] == [1, 1, 2, 2]
    Mutant("ints-accept-bool", "formats.py",
           "{*map(type, values)} <= {int}",
           "{*map(type, values)} <= {int, bool}",
           MISTYPED_S_SPEC, 120),
    # a claimed size other than the input's is a mismatch before any build
    Mutant("verify-skips-size-check", "cli.py",
           'matches = type(cert["n"]) is not int or cert["n"] == g.n',
           "matches = True",
           ("tests/test_cli.py::test_verify_rejects_claimed_size_before_building",), 120),
    # a zero-gain move: the breaker's weight stops rising and it never ends
    Mutant("breaker-zero-gain-pair", "triangle_break.py",
           "                if slack > 0:\n",
           "                if slack >= 0:\n",
           ("tests/test_pipeline.py::test_pipeline_verifies_on_fixtures",), 15),
    Mutant("breaker-zero-gain-single", "triangle_break.py",
           "            if spare > 0:\n",
           "            if spare >= 0:\n",
           ("tests/test_pipeline.py::test_pipeline_verifies_on_fixtures",), 15),
    # an error's payload is its attributes as well as its args
    Mutant("error-sets-no-attributes", "errors.py",
           "            setattr(self, name, value)\n",
           "            pass\n",
           ("tests/test_cli.py::test_package_errors_keep_their_payload_as_args",
            "tests/test_cli.py::test_package_errors_survive_pickling"), 120),
    # a wrong argument count is a TypeError when the error is built
    Mutant("error-arity-unchecked", "errors.py",
           "        if self.fields is not None and len(args) != len(self.fields):\n",
           "        if False:\n",
           ("tests/test_cli.py::test_package_error_with_wrong_argument_count_is_a_type_error",),
           120),
]


def copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def python(src: Path, *args, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter from the repository root with src first on the path."""
    paths = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, **kwargs)


def run_pytest(src: Path, tests, bound_s: float) -> int | None:
    """pytest's exit code on the tests, or None when the run outlives its
    bound (subprocess.run kills it then)."""
    try:
        return python(src, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests,
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                      timeout=bound_s).returncode
    except subprocess.TimeoutExpired:
        return None


def check_unpatched(mutants) -> str | None:
    """None when the unpatched package is the one the tests import and the
    tests of the mutants with each bound pass on it within half that bound;
    otherwise what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        imported = python(src, "-c", "import packfour; print(packfour.__file__)",
                          capture_output=True, text=True).stdout.strip()
        if not imported.startswith(str(src)):
            return f"the tests would import packfour from {imported or 'nowhere'}, not the copy"
        for bound_s in sorted({m.bound_s for m in mutants}):
            tests = list(dict.fromkeys(
                t for m in mutants if m.bound_s == bound_s for t in m.tests))
            code = run_pytest(src, tests, bound_s / 2)
            if code is None:
                return f"the tests of the {bound_s} s mutants ran past {bound_s / 2} s"
            if code != 0:
                return f"pytest exit code {code} on the tests of the {bound_s} s mutants"
    return None


def run_mutant(m: Mutant) -> tuple[bool, str]:
    """(killed, how) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        path = src / "packfour" / m.path
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return False, f"old text occurs {text.count(m.old)} times in {m.path}, not once"
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        start = time.monotonic()
        code = run_pytest(src, m.tests, m.bound_s)
        took = time.monotonic() - start
    if code is None:
        return True, f"ran past its {m.bound_s} s bound"
    if code in (1, 2):  # tests failed, or the mutated package failed to import
        return True, f"tests failed in {took:.1f} s"
    if code == 0:
        return False, f"SURVIVED: its tests passed in {took:.1f} s"
    return False, f"pytest exit code {code}: could not run the tests"


def main() -> int:
    problem = check_unpatched(CATALOGUE)
    if problem is not None:
        print(f"unpatched run: {problem}", file=sys.stderr)
        return 1
    survivors = 0
    for m in CATALOGUE:
        killed, how = run_mutant(m)
        survivors += not killed
        print(f"{'killed' if killed else 'FAILED'}\t{m.name}\t{how}", flush=True)
    print(f"{len(CATALOGUE) - survivors} of {len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
