"""Shared exception types."""

from __future__ import annotations


class FeatmcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FeatmcError):
    """Syntax error in a feature expression, property or model file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}, column {column}"
        elif column is not None:
            where = f" at column {column}"
        super().__init__(message + where)


class UnboundFeatureError(FeatmcError):
    """A feature expression referenced a name the product does not assign."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound feature: {name!r}")


class EnumerationLimitError(FeatmcError):
    """Signature too wide for exhaustive product enumeration."""


class DiagramMismatchError(FeatmcError):
    """Profiles over different feature diagrams were combined."""


class InvalidProductError(FeatmcError):
    """A product is not valid for the diagram it was used with."""


class ModelError(FeatmcError):
    """Structural problem in a model (axiom violation, bad composition...)."""


class NondeterminismError(ModelError):
    """A deterministic featured transition system enables two targets."""


class UnsupportedPropertyError(FeatmcError):
    """The engine cannot handle this property shape."""


class PropertyBindingError(FeatmcError):
    """A property mentions an atomic proposition the model does not declare."""


class ConvergenceError(FeatmcError):
    """An iteration hit its ceiling before reaching the precision.

    The bounded engine reports its widest undecided interval.
    """

    def __init__(self, message: str, worst_undecided=None):
        self.worst_undecided = worst_undecided
        super().__init__(message)
