"""Shared exception types, and the token stream every parser reads."""

from __future__ import annotations

from .rational import rational

#: number token of the model and property languages: decimal, exponent or
#: integer fraction; :meth:`TokenStream.number` rejects the malformed ones
NUMBER = r"\d+(?:\.\d+)?(?:[eE]-?\d+)?(?:/\d+)?"


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


class TokenStream:
    """The tokens of ``text``, lexed by ``pattern``: one regex of named
    groups, whose group name is the token kind; ``ws`` matches are skipped.

    Each token carries its line and column, and :meth:`error` raises a
    :class:`ParseError` at the next token, or at the end of the input once
    the tokens run out.  Model files report ``line L, column C`` and end at
    their last token.  A stream made with ``lines=False`` reads a one-line
    string: it reports ``column C`` counted over the whole text, and its
    end lies just past the text.
    """

    def __init__(self, text: str, pattern, lines: bool = True):
        self.lines = lines
        tokens = []
        line, line_start, pos = 1, 0, 0
        while pos < len(text):
            match = pattern.match(text, pos)
            if match is None:
                raise ParseError(
                    f"unexpected character {text[pos]!r}",
                    line if lines else None,
                    pos - line_start + 1,
                )
            kind = match.lastgroup
            chunk = match.group()
            if kind != "ws":
                tokens.append((kind, chunk, line, pos - line_start + 1))
            if lines and "\n" in chunk:
                line += chunk.count("\n")
                line_start = pos + chunk.rindex("\n") + 1
            pos = match.end()
        if not lines:
            end = (1, len(text) + 1)
        elif tokens:
            end = tokens[-1][2:]
        else:
            end = (1, 1)
        tokens.append((None, None) + end)
        self.tokens = tokens
        self.index = 0

    def peek(self) -> str | None:
        """Text of the next token; None at the end."""
        return self.tokens[self.index][1]

    def kind(self) -> str | None:
        """Kind of the next token; None at the end."""
        return self.tokens[self.index][0]

    @property
    def done(self) -> bool:
        return self.index == len(self.tokens) - 1

    def take(self) -> str:
        text = self.tokens[self.index][1]
        if text is None:
            self.error("unexpected end of file")
        self.index += 1
        return text

    def accept(self, text: str) -> bool:
        if self.tokens[self.index][1] == text:
            self.index += 1
            return True
        return False

    def expect(self, text: str) -> str:
        if self.tokens[self.index][1] != text:
            self.error(f"expected {text!r}")
        self.index += 1
        return text

    def number(self):
        """The next token as an exact rational; it must be a ``num``."""
        kind, text = self.tokens[self.index][:2]
        if kind != "num":
            self.error("expected a number")
        try:
            value = rational(text)
        except (ValueError, ZeroDivisionError):
            self.error(f"malformed number {text!r}")
        self.index += 1
        return value

    def error(self, message: str):
        _, _, line, column = self.tokens[self.index]
        raise ParseError(message, line if self.lines else None, column)


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
    """Structural problem in a model (axiom violation, bad composition...).
    A solve over lanes, one per product, that fails in a lane sets ``lane``
    to its position."""

    def __init__(self, message: str, lane: int | None = None):
        self.lane = lane
        super().__init__(message)


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
