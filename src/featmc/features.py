"""Feature diagrams, products and Boolean feature expressions.

A feature diagram is kept abstract: an ordered signature of Boolean feature
names plus one constraint expression.  Its semantics is the set of valid
products, enumerated exhaustively in a fixed canonical order so that every
engine reports results in the same product order.
Sets of valid products are bitsets: bit i of an int stands for the i-th
canonical product (Classen et al., ICSE 2010), and a guard is evaluated on
every product at once (:meth:`FeatureDiagram.bits`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EnumerationLimitError, TokenStream, UnboundFeatureError

# ---------------------------------------------------------------------------
# Feature expressions
# ---------------------------------------------------------------------------


class FeatureExpression:
    """Base class of the Boolean guard AST."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    def __str__(self) -> str:
        return print_expression(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({print_expression(self)!r})"


@dataclass(frozen=True, repr=False)
class FTrue(FeatureExpression):
    __slots__ = ()

    def evaluate(self, assignment):
        return True

    def variables(self):
        return frozenset()


@dataclass(frozen=True, repr=False)
class FFalse(FeatureExpression):
    __slots__ = ()

    def evaluate(self, assignment):
        return False

    def variables(self):
        return frozenset()


@dataclass(frozen=True, repr=False)
class FVar(FeatureExpression):
    name: str

    def evaluate(self, assignment):
        try:
            return bool(assignment[self.name])
        except KeyError:
            raise UnboundFeatureError(self.name) from None

    def variables(self):
        return frozenset((self.name,))


@dataclass(frozen=True, repr=False)
class FNot(FeatureExpression):
    operand: FeatureExpression

    def evaluate(self, assignment):
        return not self.operand.evaluate(assignment)

    def variables(self):
        return self.operand.variables()


class _Binary(FeatureExpression):
    __slots__ = ()

    def variables(self):
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True, repr=False)
class FAnd(_Binary):
    left: FeatureExpression
    right: FeatureExpression

    def evaluate(self, assignment):
        return self.left.evaluate(assignment) and self.right.evaluate(assignment)


@dataclass(frozen=True, repr=False)
class FOr(_Binary):
    left: FeatureExpression
    right: FeatureExpression

    def evaluate(self, assignment):
        return self.left.evaluate(assignment) or self.right.evaluate(assignment)


@dataclass(frozen=True, repr=False)
class FImplies(_Binary):
    left: FeatureExpression
    right: FeatureExpression

    def evaluate(self, assignment):
        return (not self.left.evaluate(assignment)) or self.right.evaluate(assignment)


@dataclass(frozen=True, repr=False)
class FXor(_Binary):
    left: FeatureExpression
    right: FeatureExpression

    def evaluate(self, assignment):
        return self.left.evaluate(assignment) != self.right.evaluate(assignment)


TRUE = FTrue()
FALSE = FFalse()

#: the binary operators from loosest to tightest (all associate to the
#: right), each with its symbol and its operation on bitsets below ``full``
_OPERATORS = (
    (FImplies, "->", lambda a, b, full: (full & ~a) | b),
    (FOr, "|", lambda a, b, full: a | b),
    (FXor, "^", lambda a, b, full: a ^ b),
    (FAnd, "&", lambda a, b, full: a & b),
)
#: per operator node, its printing precedence, symbol and bitset operation
_BINARY = {node: (level + 1, symbol, bits) for level, (node, symbol, bits) in enumerate(_OPERATORS)}


def conj(*exprs: FeatureExpression) -> FeatureExpression:
    """Right-folded conjunction; empty conjunction is true."""
    terms = [e for e in exprs if not isinstance(e, FTrue)]
    if any(isinstance(e, FFalse) for e in terms):
        return FALSE
    if not terms:
        return TRUE
    out = terms[-1]
    for e in reversed(terms[:-1]):
        out = FAnd(e, out)
    return out


def negate(expr: FeatureExpression) -> FeatureExpression:
    if isinstance(expr, FTrue):
        return FALSE
    if isinstance(expr, FFalse):
        return TRUE
    if isinstance(expr, FNot):
        return expr.operand
    return FNot(expr)


def substitute(expr: FeatureExpression, binding: Mapping[str, bool]) -> FeatureExpression:
    """Partially evaluate: bound variables become constants, the rest stay.

    The result is simplified on the fly, so an expression whose outcome is
    forced by the binding collapses to TRUE or FALSE.
    """
    if isinstance(expr, (FTrue, FFalse)):
        return expr
    if isinstance(expr, FVar):
        if expr.name in binding:
            return TRUE if binding[expr.name] else FALSE
        return expr
    if isinstance(expr, FNot):
        inner = substitute(expr.operand, binding)
        return negate(inner)
    left = substitute(expr.left, binding)
    right = substitute(expr.right, binding)
    bits = _BINARY[type(expr)][2]
    # a constant operand folds: the operation at both truth values of the
    # other side gives FALSE, TRUE, the other side or its negation
    if isinstance(left, (FTrue, FFalse)):
        c = int(isinstance(left, FTrue))
        return _folded(bits(c, 0, 1), bits(c, 1, 1), right)
    if isinstance(right, (FTrue, FFalse)):
        c = int(isinstance(right, FTrue))
        return _folded(bits(0, c, 1), bits(1, c, 1), left)
    return type(expr)(left, right)


def _folded(if_false: int, if_true: int, other: FeatureExpression) -> FeatureExpression:
    """The guard that is ``if_false`` where ``other`` is false and
    ``if_true`` where it is true."""
    if if_false == if_true:
        return TRUE if if_true else FALSE
    return other if if_true else negate(other)


def print_expression(expr: FeatureExpression) -> str:
    """The guard with minimal parentheses."""

    def render(e, parent_prec):
        if isinstance(e, (FTrue, FFalse, FVar)):
            return "true" if isinstance(e, FTrue) else "false" if isinstance(e, FFalse) else e.name
        if isinstance(e, FNot):
            prec = len(_OPERATORS) + 1  # tighter than every binary operator
            text = "!" + render(e.operand, prec)
        else:
            prec, symbol, _ = _BINARY[type(e)]
            # binary operators associate to the right
            text = f"{render(e.left, prec + 1)} {symbol} {render(e.right, prec)}"
        if prec < parent_prec:
            return f"({text})"
        return text

    return render(expr, 0)


_GUARD_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<punct>->|[!&|^()])|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
)


def feature_expression(stream: TokenStream) -> FeatureExpression:
    """Read one guard from ``stream`` and leave the stream at the first
    token that cannot continue it (a model file's ``]``, ``)->`` or ``;``).

    Precedence from tightest to loosest: ``!``, ``&``, ``^``, ``|``, ``->``;
    binary operators associate to the right.  ``true`` and ``false`` are
    keywords, any other name is a feature.
    """
    return _guard(stream, 0)


def _guard(stream: TokenStream, level: int) -> FeatureExpression:
    """The operator of ``_OPERATORS[level]`` and tighter; past them, an operand."""
    if level < len(_OPERATORS):
        node, symbol, _ = _OPERATORS[level]
        left = _guard(stream, level + 1)
        if stream.accept(symbol):
            return node(left, _guard(stream, level))
        return left
    tok = stream.peek()
    if tok == "(":
        stream.take()
        inner = _guard(stream, 0)
        stream.expect(")")
        return inner
    if tok == "!":
        stream.take()
        return FNot(_guard(stream, level))
    if stream.kind() == "name":
        stream.take()
        return TRUE if tok == "true" else FALSE if tok == "false" else FVar(tok)
    if tok is None:
        stream.error("unexpected end of expression")
    stream.error(f"unexpected token {tok!r}")


def parse_feature_expression(text: str) -> FeatureExpression:
    """Parse a guard string: ``!``, ``&``, ``^``, ``|``, ``->``, parens."""
    stream = TokenStream(text, _GUARD_TOKEN, lines=False)
    expr = feature_expression(stream)
    if not stream.done:
        stream.error(f"trailing input {stream.peek()!r}")
    return expr


# ---------------------------------------------------------------------------
# Products and diagrams
# ---------------------------------------------------------------------------

#: bytes.translate tables between 0/1 flag bytes and ASCII binary digits
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def bitset(flags: bytes) -> int:
    """Bitset of the positions whose byte in ``flags`` (0 or 1 each) is 1."""
    return int(flags[::-1].translate(_TO_DIGITS) or b"0", 2)


def flag_bytes(bits: int, n: int) -> bytes:
    """The first ``n`` bits of ``bits`` as 0/1 bytes, bit 0 first."""
    return bin(bits)[:1:-1].ljust(n, "0")[:n].encode().translate(_FROM_DIGITS)


def _expression_bits(e: FeatureExpression, features: dict[str, int], full: int) -> int:
    """:meth:`FeatureDiagram.bits` of ``e``, given the bitset of every
    feature and of every product."""
    if isinstance(e, FVar):
        if e.name not in features:
            raise UnboundFeatureError(e.name)
        return features[e.name]
    if isinstance(e, (FTrue, FFalse)):
        return full if isinstance(e, FTrue) else 0
    if isinstance(e, FNot):
        return full & ~_expression_bits(e.operand, features, full)
    left = _expression_bits(e.left, features, full)
    right = _expression_bits(e.right, features, full)
    return _BINARY[type(e)][2](left, right, full)


class Product:
    """A total Boolean assignment over a signature.

    Hashable and immutable; the signature order is preserved so two products
    over the same diagram compare canonically.
    """

    __slots__ = ("_names", "_values", "_map")

    def __init__(self, names: Sequence[str], values: Sequence[bool]):
        if len(names) != len(values):
            raise ValueError("names and values must have the same length")
        self._names = tuple(names)
        self._values = tuple(bool(v) for v in values)
        self._map = dict(zip(self._names, self._values))

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def values(self) -> tuple[bool, ...]:
        return self._values

    def __getitem__(self, name: str) -> bool:
        try:
            return self._map[name]
        except KeyError:
            raise UnboundFeatureError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def as_dict(self) -> dict[str, bool]:
        return dict(self._map)

    def restrict(self, sub: Iterable[str]) -> "Product":
        """Keep only the listed features; order follows ``sub``."""
        sub = tuple(sub)
        for name in sub:
            if name not in self._map:
                raise UnboundFeatureError(name)
        return Product(sub, tuple(self._map[n] for n in sub))

    def enabled(self) -> frozenset[str]:
        return frozenset(n for n, v in self._map.items() if v)

    def __eq__(self, other):
        return (
            isinstance(other, Product)
            and self._names == other._names
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self._names, self._values))

    def __str__(self):
        on = [n for n in self._names if self._map[n]]
        return "{" + ",".join(on) + "}" if on else "{}"

    def __repr__(self):
        body = ", ".join(f"{n}={int(v)}" for n, v in zip(self._names, self._values))
        return f"Product({body})"


def evaluate_expr(expr: FeatureExpression, product: Product | Mapping[str, bool]) -> bool:
    if isinstance(product, Product):
        product = product.as_dict()
    return expr.evaluate(product)


#: Widest signature enumerated exhaustively by default (2^24 candidates).
DEFAULT_ENUMERATION_LIMIT = 24


class FeatureDiagram:
    """Signature plus constraint; the product line is derived, then cached."""

    __slots__ = ("signature", "constraint", "_products", "_index", "_features")

    def __init__(self, signature: Sequence[str], constraint: FeatureExpression = TRUE):
        signature = tuple(signature)
        if len(set(signature)) != len(signature):
            raise ValueError("duplicate feature names in signature")
        unknown = constraint.variables() - set(signature)
        if unknown:
            raise UnboundFeatureError(sorted(unknown)[0])
        self.signature = signature
        self.constraint = constraint
        self._products: tuple[Product, ...] | None = None
        self._index: dict[Product, int] | None = None
        self._features: dict[str, int] | None = None

    def valid_products(self, limit: int = DEFAULT_ENUMERATION_LIMIT) -> tuple[Product, ...]:
        """All satisfying assignments in canonical order.

        Canonical order is lexicographic over the signature with false
        before true, i.e. plain binary counting with the first feature as
        the most significant bit.
        """
        if self._products is None:
            if len(self.signature) > limit:
                raise EnumerationLimitError(
                    f"signature has {len(self.signature)} features, enumeration "
                    f"limit is {limit}; raise the limit to proceed"
                )
            products = []
            for values in itertools.product((False, True), repeat=len(self.signature)):
                candidate = Product(self.signature, values)
                if self.constraint.evaluate(candidate._map):
                    products.append(candidate)
            self._products = tuple(products)
            self._index = {p: i for i, p in enumerate(products)}
        return self._products

    @property
    def full(self) -> int:
        """The bitset of every valid product."""
        return (1 << len(self.valid_products())) - 1

    def bits(self, expr: FeatureExpression) -> int:
        """The bitset of the valid products satisfying ``expr``: a feature
        is the bitset of the products enabling it, an operator an int
        operation on both operands (so every feature must be bound)."""
        if self._features is None:
            products = self.valid_products()
            self._features = {n: bitset(bytes(p[n] for p in products)) for n in self.signature}
        return _expression_bits(expr, self._features, self.full)

    def normalize(self, product: Product) -> Product:
        """Reorder (and project, if wider) a product onto this signature."""
        if product.names == self.signature:
            return product
        return product.restrict(self.signature)

    def product_index(self, product: Product) -> int:
        self.valid_products()
        try:
            return self._index[self.normalize(product)]
        except KeyError:
            from .errors import InvalidProductError

            raise InvalidProductError(f"{product} is not a valid product") from None

    def is_valid(self, product: Product) -> bool:
        self.valid_products()
        try:
            return self.normalize(product) in self._index
        except UnboundFeatureError:
            return False

    def __eq__(self, other):
        return (
            isinstance(other, FeatureDiagram)
            and self.signature == other.signature
            and self.constraint == other.constraint
        )

    def __hash__(self):
        return hash((self.signature, self.constraint))

    def __repr__(self):
        return f"FeatureDiagram({self.signature!r}, {self.constraint})"


def conjoin(d1: FeatureDiagram, d2: FeatureDiagram) -> FeatureDiagram:
    """Combine two diagrams: union of signatures, conjunction of constraints.

    Shared names are identified.  The combined product line restricted to
    either signature gives back exactly the component's product line.
    """
    signature = d1.signature + tuple(n for n in d2.signature if n not in d1.signature)
    return FeatureDiagram(signature, conj(d1.constraint, d2.constraint))
