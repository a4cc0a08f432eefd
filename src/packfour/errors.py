"""Exception types shared across the package.

Every error raised on purpose derives from PackfourError so callers (and the
CLI exit-code mapping) can catch one base class.

An error's args are its payload, in constructor order, and each payload
value is also an attribute named in the class's ``fields``.  ``str()``
builds the message from them only when asked.  So an error pickles by the
default protocol (a --jobs worker's error reaches the parent that way), and
a wrong argument count is a TypeError when the error is built.
"""

from __future__ import annotations


class PackfourError(Exception):
    """Base class for all errors raised by this package.

    A subclass names its payload's attributes in ``fields`` and gives either
    ``message``, a str.format template over those names, or its own
    __str__.  With no fields, as here and on BadParameter, an error takes any
    arguments, the first being the message.
    """

    fields = None

    def __init__(self, *args):
        if self.fields is not None and len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__}() takes {len(self.fields)} arguments "
                            f"({len(args)} given)")
        super().__init__(*args)
        for name, value in zip(self.fields or (), args):
            setattr(self, name, value)

    def __str__(self):
        if self.fields is None:
            return super().__str__()
        return self.message.format_map(vars(self))


# ---------------------------------------------------------------- graph build


class SelfLoop(PackfourError):
    fields = ("u",)
    message = "self-loop at vertex {u}"


class DuplicateEdge(PackfourError):
    fields = ("u", "v")
    message = "duplicate edge ({u}, {v})"


class VertexOutOfRange(PackfourError):
    fields = ("v", "n")
    message = "vertex {v} out of range for n={n}"


# ----------------------------------------------------------------- formats


class BadChar(PackfourError):
    """graph6 byte outside the printable range 63..126."""

    fields = ("position",)
    message = "bad graph6 character at position {position}"


class LengthMismatch(PackfourError):
    fields = ("expected", "got")
    message = "graph6 body length mismatch: expected {expected} bytes, got {got}"


class UnsupportedHeader(PackfourError):
    fields = ()
    message = "graph6 header form not supported (n > 258047)"


class TooLarge(PackfourError):
    fields = ("n",)
    message = "cannot encode graph with n={n} > 258047 vertices"


class ParseError(PackfourError):
    fields = ("line", "detail")
    message = "line {line}: {detail}"

    def __init__(self, line: int, detail: str = "malformed line"):
        super().__init__(line, detail)


class RefusesUnverified(PackfourError):
    """Certificate writer refused a coloring the verifier does not accept."""

    fields = ("violation",)
    message = "refusing to write certificate: {violation}"


# ------------------------------------------------------------ packing specs


class EmptySpec(PackfourError):
    fields = ()
    message = "packing spec is empty"


class NotPositive(PackfourError):
    fields = ("token",)
    message = "packing spec entry is not a positive integer: {token!r}"


class NotNonDecreasing(PackfourError):
    fields = ("values",)

    def __str__(self):
        return f"packing spec entries must be non-decreasing, got {list(self.values)}"


class ClassOutOfRange(PackfourError):
    fields = ("vertex", "class_index", "r")
    message = "vertex {vertex} has class {class_index}, outside 1..{r}"


# ----------------------------------------------------------- algorithm stages


class NotCubic(PackfourError):
    fields = ("vertex", "degree")
    message = "graph is not cubic: vertex {vertex} has degree {degree}"


class NotClawFree(PackfourError):
    fields = ("claw",)

    def __str__(self):
        center, leaves = self.claw
        return f"graph has a claw centered at {center} with leaves {list(leaves)}"


class Stuck(PackfourError):
    """Triangle search found no improving move while triangles survive.

    The breaker's exchange argument makes this unreachable for cubic inputs,
    so any occurrence signals a bug or a violated precondition.  Never
    swallowed.
    """

    fields = ("pair", "triangle")
    message = "no improving move for surviving triangle {triangle}"


class StuckOddCycle(PackfourError):
    """Odd-cycle reduction found a cycle with no addable vertex.

    Carries the reduction state, the offending cycle, and the result of a claw
    search on the input graph (non-claw-free inputs are the expected cause).
    """

    fields = ("state", "cycle", "claw")

    def __str__(self):
        hint = "; input is claw-free" if self.claw is None else f"; input has a claw {self.claw}"
        return f"no addable vertex on odd cycle {self.cycle}{hint}"


# ---------------------------------------------------------------- generators


class UnknownName(PackfourError):
    fields = ("name",)
    message = "unknown graph name: {name!r}"


class BadParameter(PackfourError):
    pass


class RetryLimit(PackfourError):
    fields = ("n", "attempts")
    message = "no simple cubic pairing found for n={n} after {attempts} attempts"
