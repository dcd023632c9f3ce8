"""Profiles: total functions from valid products to rational values.

Transition probabilities, state rewards and satisfaction indicators are all
profiles.  Two representations exist:

* :class:`GuardedProfile` is the authoring form: an ordered list of
  ``(guard, value)`` cases with first-match semantics plus a default value.
  Authored profiles (model files, constants, indicators) are guarded.
* :class:`DenseProfile` is the evaluation form: one value per valid
  product, indexed by the diagram's canonical product order.  Every
  computed profile is dense: arithmetic reads both operands' dense values
  and combines them product by product, whatever their representation.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Sequence

from .errors import DiagramMismatchError, InvalidProductError
from .features import (
    FeatureDiagram,
    FeatureExpression,
    FFalse,
    FNot,
    FVar,
    Product,
    conj,
)
from .rational import ONE, ZERO, rational


class Profile:
    """Common interface of both profile representations."""

    __slots__ = ("diagram",)

    def __init__(self, diagram: FeatureDiagram):
        self.diagram = diagram

    def evaluate(self, product: Product):
        raise NotImplementedError

    def dense_values(self) -> tuple:
        """Values in canonical product order."""
        raise NotImplementedError

    # pointwise arithmetic -------------------------------------------------

    def __mul__(self, other) -> "DenseProfile":
        return _binary(self, other, operator.mul)

    def __add__(self, other) -> "DenseProfile":
        return _binary(self, other, operator.add)

    def __sub__(self, other) -> "DenseProfile":
        return _binary(self, other, operator.sub)

    def lift(self, diagram: FeatureDiagram) -> "Profile":
        """Reinterpret over a wider diagram containing this one's signature."""
        raise NotImplementedError

    def equals_pointwise(self, other) -> bool:
        other = _coerce(other, self.diagram)
        _check_same_diagram(self, other)
        return self.dense_values() == other.dense_values()

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.dense_values())

    def any_positive(self) -> bool:
        return any(v > 0 for v in self.dense_values())


class GuardedProfile(Profile):
    """First-match case list over feature expressions, with a default.

    Overlapping guards are allowed; the first matching case wins, so an
    authored profile is unambiguous regardless of guard exclusivity.
    """

    __slots__ = ("cases", "default")

    def __init__(
        self,
        diagram: FeatureDiagram,
        cases: Iterable[tuple[FeatureExpression, object]] = (),
        default=ZERO,
    ):
        super().__init__(diagram)
        self.cases = tuple((g, rational(v) if not isinstance(v, float) else v) for g, v in cases)
        self.default = rational(default) if not isinstance(default, float) else default

    def evaluate(self, product: Product):
        product = self.diagram.normalize(product)
        if not self.diagram.is_valid(product):
            raise InvalidProductError(f"{product} is not valid for this profile's diagram")
        assignment = product.as_dict()
        for guard, value in self.cases:
            if guard.evaluate(assignment):
                return value
        return self.default

    def dense_values(self):
        values = []
        for product in self.diagram.valid_products():
            assignment = product.as_dict()
            for guard, value in self.cases:
                if guard.evaluate(assignment):
                    values.append(value)
                    break
            else:
                values.append(self.default)
        return tuple(values)

    def lift(self, diagram: FeatureDiagram) -> "GuardedProfile":
        if diagram == self.diagram:
            return self
        return GuardedProfile(diagram, self.cases, self.default)

    def __repr__(self):
        parts = [f"[{g}] {v}" for g, v in self.cases]
        parts.append(str(self.default))
        return "GuardedProfile(" + ", ".join(parts) + ")"


class DenseProfile(Profile):
    """One value per valid product, in canonical order."""

    __slots__ = ("values",)

    def __init__(self, diagram: FeatureDiagram, values: Sequence):
        super().__init__(diagram)
        values = tuple(values)
        if len(values) != len(diagram.valid_products()):
            raise ValueError(
                f"expected {len(diagram.valid_products())} values, got {len(values)}"
            )
        self.values = values

    def evaluate(self, product: Product):
        return self.values[self.diagram.product_index(product)]

    def dense_values(self):
        return self.values

    def lift(self, diagram: FeatureDiagram) -> "DenseProfile":
        if diagram == self.diagram:
            return self
        return DenseProfile(diagram, [self.evaluate(p) for p in diagram.valid_products()])

    def __repr__(self):
        return f"DenseProfile({list(self.values)!r})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def constant(value, diagram: FeatureDiagram) -> GuardedProfile:
    return GuardedProfile(diagram, (), value)


def indicator(expr: FeatureExpression, diagram: FeatureDiagram) -> GuardedProfile:
    """1 on products satisfying ``expr``, 0 elsewhere."""
    if isinstance(expr, FFalse):
        return constant(ZERO, diagram)
    return GuardedProfile(diagram, ((expr, ONE),), ZERO)


def from_dense(values: Sequence, diagram: FeatureDiagram) -> GuardedProfile:
    """Build a guard-per-product profile from a dense vector.

    Each product contributes one case whose guard is the exact conjunction
    of its literals, so the result evaluates to ``values[i]`` on the i-th
    canonical product.
    """
    products = diagram.valid_products()
    values = tuple(values)
    if len(values) != len(products):
        raise ValueError(f"expected {len(products)} values, got {len(values)}")
    cases = []
    for product, value in zip(products, values):
        literals = [
            FVar(n) if v else FNot(FVar(n))
            for n, v in zip(product.names, product.values)
        ]
        cases.append((conj(*literals), value))
    return GuardedProfile(diagram, cases, ZERO)


def to_dense(profile: Profile, diagram: FeatureDiagram | None = None) -> DenseProfile:
    if diagram is not None and diagram != profile.diagram:
        raise DiagramMismatchError("profile belongs to a different diagram")
    if isinstance(profile, DenseProfile):
        return profile
    return DenseProfile(profile.diagram, profile.dense_values())


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------


def _check_same_diagram(p1: Profile, p2: Profile):
    if p1.diagram != p2.diagram:
        raise DiagramMismatchError(
            "profiles belong to different feature diagrams; lift them first"
        )


def _coerce(value, diagram: FeatureDiagram) -> Profile:
    if isinstance(value, Profile):
        return value
    return constant(value, diagram)


def interned(diagram: FeatureDiagram, values: Iterable) -> DenseProfile:
    """Dense profile of ``values`` holding one object per distinct value.

    Equal rationals are told apart by their (numerator, denominator), which
    costs less than a Fraction's own hash; passes that group products by
    value object then see each value once.
    """
    pool: dict = {}
    return DenseProfile(
        diagram,
        [
            pool.setdefault(v if isinstance(v, float) else (v.numerator, v.denominator), v)
            for v in values
        ],
    )


def _binary(p1: Profile, other, op: Callable) -> DenseProfile:
    p2 = _coerce(other, p1.diagram)
    _check_same_diagram(p1, p2)
    return interned(p1.diagram, map(op, p1.dense_values(), p2.dense_values()))


def eval_profile(profile: Profile, product: Product):
    return profile.evaluate(product)


mul = Profile.__mul__
add = Profile.__add__
sub = Profile.__sub__


def complement(profile: Profile) -> Profile:
    """Pointwise ``1 - value``; flips 0/1 indicator profiles."""
    return sub(constant(ONE, profile.diagram), profile)


def pointwise_max(p1: Profile, p2) -> Profile:
    return _binary(p1, p2, lambda a, b: a if a >= b else b)


def exceeds(p1: Profile, p2, tolerance=ZERO) -> bool:
    """True iff ``p1(p) > p2(p) + tolerance`` for at least one valid product."""
    p2 = _coerce(p2, p1.diagram)
    _check_same_diagram(p1, p2)
    return any(
        a > b + tolerance for a, b in zip(p1.dense_values(), p2.dense_values())
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def probability_range_findings(profile: Profile) -> list[str]:
    """Case values or defaults outside [0, 1], as human-readable findings."""
    findings = []
    if isinstance(profile, GuardedProfile):
        for guard, value in profile.cases:
            if not (0 <= value <= 1):
                findings.append(f"case [{guard}] has value {value} outside [0, 1]")
        if not (0 <= profile.default <= 1):
            findings.append(f"default value {profile.default} outside [0, 1]")
    else:
        for product, value in zip(profile.diagram.valid_products(), profile.dense_values()):
            if not (0 <= value <= 1):
                findings.append(f"value {value} at product {product} outside [0, 1]")
    return findings


def reward_range_findings(profile: Profile) -> list[str]:
    findings = []
    if isinstance(profile, GuardedProfile):
        for guard, value in profile.cases:
            if value < 0:
                findings.append(f"case [{guard}] has negative reward {value}")
        if profile.default < 0:
            findings.append(f"default reward {profile.default} is negative")
    else:
        for product, value in zip(profile.diagram.valid_products(), profile.dense_values()):
            if value < 0:
                findings.append(f"negative reward {value} at product {product}")
    return findings
