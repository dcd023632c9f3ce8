"""Property language: PCTL state/path formulae and reward queries.

Concrete syntax::

    P[<0.1](F failure)          threshold on a path formula
    P[>=0.5](a U b)             closed lower bound
    P[0.2,0.7](X a)             closed interval
    P=?(a U<=4 b)               quantitative query (outermost only)
    R=?[F end]                  expected accumulated reward to a target

State operands support ``!``, ``&``, ``|`` and parentheses; disjunction is
desugared through De Morgan so the core AST has only negation and
conjunction.  ``F x`` is sugar for ``true U x``.
"""

from __future__ import annotations

import math
import re
from itertools import repeat
from operator import and_, ge, gt, le, lt, mul
from typing import Union

from .errors import NUMBER, ParseError, PropertyBindingError, TokenStream
from .rational import ONE, ZERO, rat_str
from .records import record
from .result import SAT, UNKNOWN, VIOLATED


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class StateFormula:
    __slots__ = ()

    def __str__(self):
        return print_state(self)

    def __repr__(self):
        return f"<{print_state(self)}>"


class PathFormula:
    __slots__ = ()

    def __str__(self):
        return print_path(self)

    def __repr__(self):
        return f"<{print_path(self)}>"


@record(frozen=True, repr=False)
class PTrue(StateFormula):
    __slots__ = ()


@record(frozen=True, repr=False)
class Atom(StateFormula):
    name: str


@record(frozen=True, repr=False)
class PNot(StateFormula):
    operand: StateFormula


@record(frozen=True, repr=False)
class PAnd(StateFormula):
    left: StateFormula
    right: StateFormula


@record(frozen=True)
class Interval:
    """Probability bound ``J``; a sub-interval of [0, 1]."""

    lower: object
    upper: object
    lower_strict: bool = False
    upper_strict: bool = False

    def __post_init__(self):
        if not (0 <= self.lower <= 1 and 0 <= self.upper <= 1):
            raise ParseError("probability bound outside [0, 1]")
        if self.lower > self.upper or (
            self.lower == self.upper and (self.lower_strict or self.upper_strict)
        ):
            raise ParseError("empty probability interval")

    def contains(self, value) -> bool:
        if self.lower_strict:
            if not value > self.lower:
                return False
        elif not value >= self.lower:
            return False
        if self.upper_strict:
            return value < self.upper
        return value <= self.upper

    def decide(self, lo, hi) -> str:
        """Three-valued threshold of a value known to lie in [lo, hi]: SAT
        when all of [lo, hi] lies in J, VIOLATED when none of it does,
        UNKNOWN otherwise.  An exact value (``lo == hi``) is tested once."""
        if lo is hi or lo == hi:
            return SAT if self.contains(lo) else VIOLATED
        if self.contains(lo) and self.contains(hi):
            return SAT
        above = lo >= self.upper if self.upper_strict else lo > self.upper
        below = hi <= self.lower if self.lower_strict else hi < self.lower
        return VIOLATED if above or below else UNKNOWN

    def admits(self, low, high, den) -> tuple[bytes, bytes]:
        """:meth:`decide` lane by lane on integers: per lane k, a value known
        to lie in ``[low[k]/den[k], high[k]/den[k]]`` (``den[k] > 0``, and
        ``low`` is ``high`` for exact values).  Returns flag bytes (1 or 0
        each) of the lanes it calls SAT and of those it does not call
        VIOLATED.  Lanes that share one denominator are compared with the
        integer bounds of :meth:`scaled`; otherwise a numerator times a
        bound's denominator is compared with the bound's numerator times the
        lane's denominator."""
        d = den[0] if len(den) else 1
        if den.count(d) == len(den):
            at = self.scaled(d)

            def above(nums):  # at or above the lower bound, strict or not
                return map(ge, nums, repeat(at.lower))

            def below(nums):
                return map(le, nums, repeat(at.upper))

        else:
            ln, ld = self.lower.numerator, self.lower.denominator
            un, ud = self.upper.numerator, self.upper.denominator
            over = gt if self.lower_strict else ge
            under = lt if self.upper_strict else le

            def above(nums):
                return map(over, map(mul, nums, repeat(ld)), map(mul, den, repeat(ln)))

            def below(nums):
                return map(under, map(mul, nums, repeat(ud)), map(mul, den, repeat(un)))

        if low is high:
            sat = bytes(map(and_, above(low), below(low)))
            return sat, sat
        return (
            bytes(map(and_, above(low), below(high))),
            bytes(map(and_, below(low), above(high))),
        )

    def scaled(self, d: int) -> "Interval":
        """The integers n with n/d in this interval, as a closed interval of
        integer bounds: deciding integer numerators over ``d`` on it
        decides their values on this one.  It is built unchecked, since its
        bounds lie outside [0, 1] and may cross."""
        lower, upper = self.lower * d, self.upper * d
        out = object.__new__(Interval)
        out.__dict__.update(
            lower=math.floor(lower) + 1 if self.lower_strict else math.ceil(lower),
            upper=math.ceil(upper) - 1 if self.upper_strict else math.floor(upper),
            lower_strict=False,
            upper_strict=False,
        )
        return out

    def __str__(self):
        if self.lower == 0 and not self.lower_strict:
            return ("<" if self.upper_strict else "<=") + rat_str(self.upper)
        if self.upper == 1 and not self.upper_strict:
            return (">" if self.lower_strict else ">=") + rat_str(self.lower)
        if not self.lower_strict and not self.upper_strict:
            return f"{rat_str(self.lower)},{rat_str(self.upper)}"
        lo = "(" if self.lower_strict else "["
        hi = ")" if self.upper_strict else "]"
        return f"{lo}{rat_str(self.lower)},{rat_str(self.upper)}{hi}"


@record(frozen=True, repr=False)
class Prob(StateFormula):
    """Probability operator; ``interval=None`` marks a quantitative query."""

    interval: Interval | None
    path: "PathFormula"


@record(frozen=True, repr=False)
class Next(PathFormula):
    operand: StateFormula


@record(frozen=True, repr=False)
class Until(PathFormula):
    """``left U right`` with an optional step bound (None = unbounded)."""

    left: StateFormula
    right: StateFormula
    bound: int | None = None


@record(frozen=True)
class RewardQuery:
    """Expected accumulated state reward until first reaching the target."""

    target: StateFormula

    def __str__(self):
        return f"R=?[F {print_state(self.target)}]"


Property = Union[StateFormula, RewardQuery]

TRUE_F = PTrue()
FALSE_F = PNot(TRUE_F)


def disjunction(left: StateFormula, right: StateFormula) -> StateFormula:
    return PNot(PAnd(PNot(left), PNot(right)))


def parse_tree(formula: StateFormula) -> list[StateFormula]:
    """State subformulae in bottom-up order: children before parents.

    Operands of path formulae count as children of the enclosing
    probability operator.  Structurally equal subformulae appear once.
    """
    order: list[StateFormula] = []
    _visit(formula, order, set())
    return order


def _visit(node: StateFormula, order: list, seen: set):
    """Append ``node``'s unseen subformulae to ``order``, children first."""
    if node in seen:
        return
    if isinstance(node, PNot):
        _visit(node.operand, order, seen)
    elif isinstance(node, PAnd):
        _visit(node.left, order, seen)
        _visit(node.right, order, seen)
    elif isinstance(node, Prob):
        path = node.path
        if isinstance(path, Next):
            _visit(path.operand, order, seen)
        else:
            _visit(path.left, order, seen)
            _visit(path.right, order, seen)
    seen.add(node)
    order.append(node)


def bind_check(prop: Property | str, declared: frozenset[str]) -> Property:
    """``prop``, parsed if it is text, once every atomic proposition in it
    is verified to exist in the checked model."""
    if isinstance(prop, str):
        prop = parse_property(prop)
    target = prop.target if isinstance(prop, RewardQuery) else prop
    for sub in parse_tree(target):
        if isinstance(sub, Atom) and sub.name not in declared:
            raise PropertyBindingError(
                f"proposition {sub.name!r} is not declared by the model"
            )
    return prop


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_state(formula: StateFormula) -> str:
    if isinstance(formula, PTrue):
        return "true"
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, PNot):
        inner = print_state(formula.operand)
        if isinstance(formula.operand, (PAnd,)):
            return f"!({inner})"
        return f"!{inner}"
    if isinstance(formula, PAnd):
        parts = []
        for side in (formula.left, formula.right):
            text = print_state(side)
            if isinstance(side, PAnd):
                text = f"({text})"
            parts.append(text)
        return " & ".join(parts)
    if isinstance(formula, Prob):
        bound = "=?" if formula.interval is None else f"[{formula.interval}]"
        return f"P{bound}({print_path(formula.path)})"
    raise TypeError(f"unknown state formula {formula!r}")


def print_path(path: PathFormula) -> str:
    if isinstance(path, Next):
        return f"X {print_state(path.operand)}"
    if isinstance(path, Until):
        bound = "" if path.bound is None else f"<={path.bound}"
        if isinstance(path.left, PTrue):
            return f"F{bound} {print_state(path.right)}"
        return f"{print_state(path.left)} U{bound} {print_state(path.right)}"
    raise TypeError(f"unknown path formula {path!r}")


def print_property(prop: Property) -> str:
    if isinstance(prop, RewardQuery):
        return str(prop)
    return print_state(prop)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_PROP_TOKEN = re.compile(
    rf"(?P<ws>\s+)|(?P<punct><=|>=|=\?|[!&|()\[\],<>])|(?P<num>{NUMBER})"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
)


def _parse_bound(tokens: TokenStream) -> Interval:
    tok = tokens.peek()
    if tok in ("<", "<=", ">", ">="):
        tokens.take()
        value = tokens.number()
        if tok == "<":
            return Interval(ZERO, value, upper_strict=True)
        if tok == "<=":
            return Interval(ZERO, value)
        if tok == ">":
            return Interval(value, ONE, lower_strict=True)
        return Interval(value, ONE)
    lower = tokens.number()
    tokens.expect(",")
    upper = tokens.number()
    return Interval(lower, upper)


def _parse_step_bound(tokens: TokenStream) -> int | None:
    if tokens.accept("<="):
        tok = tokens.peek()
        if tok is None or not tok.isdigit():
            tokens.error("expected an integer step bound")
        return int(tokens.take())
    return None


def _parse_path(tokens: TokenStream) -> PathFormula:
    if tokens.accept("X"):
        return Next(_parse_state_or(tokens, nested=True))
    if tokens.accept("F"):
        bound = _parse_step_bound(tokens)
        return Until(TRUE_F, _parse_state_or(tokens, nested=True), bound)
    left = _parse_state_or(tokens, nested=True)
    if not tokens.accept("U"):
        tokens.error("expected 'U' in path formula")
    bound = _parse_step_bound(tokens)
    right = _parse_state_or(tokens, nested=True)
    return Until(left, right, bound)


def _parse_state_atom(tokens: TokenStream, nested: bool) -> StateFormula:
    tok = tokens.peek()
    if tok == "(":
        tokens.take()
        inner = _parse_state_or(tokens, nested)
        tokens.expect(")")
        return inner
    if tok == "!":
        tokens.take()
        return PNot(_parse_state_atom(tokens, nested))
    if tok == "true":
        tokens.take()
        return TRUE_F
    if tok == "false":
        tokens.take()
        return FALSE_F
    if tok == "P":
        tokens.take()
        if tokens.peek() == "=?":
            if nested:
                tokens.error("only the outermost operator may be quantitative")
            tokens.take()
            interval = None
        else:
            tokens.expect("[")
            interval = _parse_bound(tokens)
            tokens.expect("]")
        tokens.expect("(")
        path = _parse_path(tokens)
        tokens.expect(")")
        return Prob(interval, path)
    if tokens.kind() == "name":
        tokens.take()
        return Atom(tok)
    if tok is None:
        tokens.error("unexpected end of property")
    tokens.error(f"unexpected token {tok!r}")


def _parse_state_and(tokens: TokenStream, nested: bool) -> StateFormula:
    left = _parse_state_atom(tokens, nested)
    if tokens.accept("&"):
        return PAnd(left, _parse_state_and(tokens, nested))
    return left


def _parse_state_or(tokens: TokenStream, nested: bool) -> StateFormula:
    left = _parse_state_and(tokens, nested)
    if tokens.accept("|"):
        return disjunction(left, _parse_state_or(tokens, nested))
    return left


def parse_property(text: str) -> Property:
    """Parse a property string into a state formula or reward query."""
    tokens = TokenStream(text, _PROP_TOKEN, lines=False)
    if tokens.accept("R"):
        tokens.expect("=?")
        tokens.expect("[")
        if not tokens.accept("F"):
            tokens.error("reward queries have the form R=?[F target]")
        target = _parse_state_or(tokens, nested=True)
        tokens.expect("]")
        if not tokens.done:
            tokens.error("trailing input after reward query")
        return RewardQuery(target)
    formula = _parse_state_or(tokens, nested=False)
    if not tokens.done:
        tokens.error("trailing input after property")
    return formula
