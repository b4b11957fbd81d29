"""depsketch: dependency and import recommendation for Java-style snippets.

The pipeline is wrap -> parse -> infer -> sketch -> candidate lookup ->
minimal-model solve -> bindings.  See the README for the file formats and
the command line.
"""

from .kb import KnowledgeBase
from .model import Coordinate, DepsketchError, EntryKind, KbEntry, Sketch, Span, matches
from .resolver import Binding, Resolution, emit_patch, resolve
from .solver import (
    CoveringProblem,
    Model,
    brute_force_min,
    check,
    dump_problem,
    preprocess,
    solve_min,
)

__version__ = "0.1.0"

__all__ = [
    "Binding",
    "Coordinate",
    "CoveringProblem",
    "DepsketchError",
    "EntryKind",
    "KbEntry",
    "KnowledgeBase",
    "Model",
    "Resolution",
    "Sketch",
    "Span",
    "brute_force_min",
    "check",
    "dump_problem",
    "emit_patch",
    "matches",
    "preprocess",
    "resolve",
    "solve_min",
    "__version__",
]
