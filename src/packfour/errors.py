"""Exception types shared across the package.

Every error raised on purpose derives from PackfourError so callers (and the
CLI exit-code mapping) can catch one base class.  Each exception keeps its
payload as attributes for programmatic inspection.
"""

from __future__ import annotations


class PackfourError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # a subclass's __init__ takes the payload, not the formatted message
        # args holds, so a pickled copy (a --jobs worker's error) is rebuilt
        # without it: type and args first, then the attributes
        return _rebuild, (type(self), self.args), vars(self)


def _rebuild(cls, args):
    return Exception.__new__(cls, *args)


# ---------------------------------------------------------------- graph build


class SelfLoop(PackfourError):
    def __init__(self, u: int):
        super().__init__(f"self-loop at vertex {u}")
        self.u = u


class DuplicateEdge(PackfourError):
    def __init__(self, u: int, v: int):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.u = u
        self.v = v


class VertexOutOfRange(PackfourError):
    def __init__(self, v: int, n: int):
        super().__init__(f"vertex {v} out of range for n={n}")
        self.v = v
        self.n = n


# ----------------------------------------------------------------- formats


class BadChar(PackfourError):
    """graph6 byte outside the printable range 63..126."""

    def __init__(self, position: int):
        super().__init__(f"bad graph6 character at position {position}")
        self.position = position


class LengthMismatch(PackfourError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"graph6 body length mismatch: expected {expected} bytes, got {got}")
        self.expected = expected
        self.got = got


class UnsupportedHeader(PackfourError):
    def __init__(self):
        super().__init__("graph6 header form not supported (n > 258047)")


class TooLarge(PackfourError):
    def __init__(self, n: int):
        super().__init__(f"cannot encode graph with n={n} > 258047 vertices")
        self.n = n


class ParseError(PackfourError):
    def __init__(self, line: int, detail: str = "malformed line"):
        super().__init__(f"line {line}: {detail}")
        self.line = line
        self.detail = detail


class RefusesUnverified(PackfourError):
    """Certificate writer refused a coloring the verifier does not accept."""

    def __init__(self, violation):
        super().__init__(f"refusing to write certificate: {violation}")
        self.violation = violation


# ------------------------------------------------------------ packing specs


class EmptySpec(PackfourError):
    def __init__(self):
        super().__init__("packing spec is empty")


class NotPositive(PackfourError):
    def __init__(self, token: str):
        super().__init__(f"packing spec entry is not a positive integer: {token!r}")
        self.token = token


class NotNonDecreasing(PackfourError):
    def __init__(self, values: tuple):
        super().__init__(f"packing spec entries must be non-decreasing, got {list(values)}")
        self.values = values


class ClassOutOfRange(PackfourError):
    def __init__(self, vertex: int, class_index: int, r: int):
        super().__init__(f"vertex {vertex} has class {class_index}, outside 1..{r}")
        self.vertex = vertex
        self.class_index = class_index
        self.r = r


# ----------------------------------------------------------- algorithm stages


class NotCubic(PackfourError):
    def __init__(self, vertex: int, degree: int):
        super().__init__(f"graph is not cubic: vertex {vertex} has degree {degree}")
        self.vertex = vertex
        self.degree = degree


class NotClawFree(PackfourError):
    def __init__(self, claw):
        center, leaves = claw
        super().__init__(f"graph has a claw centered at {center} with leaves {list(leaves)}")
        self.claw = claw


class Stuck(PackfourError):
    """Triangle search found no improving move while triangles survive.

    The breaker's exchange argument makes this unreachable for cubic inputs,
    so any occurrence signals a bug or a violated precondition.  Never
    swallowed.
    """

    def __init__(self, pair, triangle):
        super().__init__(f"no improving move for surviving triangle {triangle}")
        self.pair = pair
        self.triangle = triangle


class StuckOddCycle(PackfourError):
    """Odd-cycle reduction found a cycle with no addable vertex.

    Carries the reduction state, the offending cycle, and the result of a claw
    search on the input graph (non-claw-free inputs are the expected cause).
    """

    def __init__(self, state, cycle, claw):
        hint = f"; input has a claw {claw}" if claw is not None else "; input is claw-free"
        super().__init__(f"no addable vertex on odd cycle {cycle}{hint}")
        self.state = state
        self.cycle = cycle
        self.claw = claw


# ---------------------------------------------------------------- generators


class UnknownName(PackfourError):
    def __init__(self, name: str):
        super().__init__(f"unknown graph name: {name!r}")
        self.name = name


class BadParameter(PackfourError):
    def __init__(self, detail: str):
        super().__init__(detail)


class RetryLimit(PackfourError):
    def __init__(self, n: int, attempts: int):
        super().__init__(f"no simple cubic pairing found for n={n} after {attempts} attempts")
        self.n = n
        self.attempts = attempts
