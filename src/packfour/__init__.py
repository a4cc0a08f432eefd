"""packfour: certified (1,1,2,2)-packing colorings of claw-free cubic graphs."""

from .graph import build_graph
from .formats import parse_graph6
from .packing import SSpec, verify_spacking
from .triangle_break import break_triangles
from .odd_cycle import reduce_odd_cycles
from .oracle import exists_spacking
from .pipeline import color_claw_free_cubic
from . import errors

__all__ = [
    "build_graph", "parse_graph6", "SSpec", "verify_spacking", "break_triangles",
    "reduce_odd_cycles", "exists_spacking", "color_claw_free_cubic", "errors", "generators",
]


def __getattr__(name: str):
    # generators, with random behind it, loads on first use: coloring and
    # verifying never need it.  `from . import generators` would call this
    # hook again, to test for the attribute, so importlib loads it.
    if name == "generators":
        import importlib

        return importlib.import_module(".generators", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
