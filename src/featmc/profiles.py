"""Profiles: total functions from valid products to rational values.

Transition probabilities, state rewards and satisfaction indicators are all
profiles.  Two representations exist:

* :class:`GuardedProfile` is the authoring form: an ordered list of
  ``(guard, value)`` cases with first-match semantics plus a default value.
  Authored profiles (model files, constants, indicators) are guarded.
* :class:`DenseProfile` is the evaluation form: one value per valid
  product in canonical order.  Every computed profile is dense, its
  values expanded from its groups as it is made.

Both answer :meth:`Profile.groups`: the distinct values, each with the
bitset of the valid products carrying it (bit i: the i-th canonical
product).  Guards become bitsets, first match winning by masking, and
arithmetic runs once per pair of operand groups that share products (once
per product where there are more pairs than products), so a computed
profile holds one object per distinct value.  Row totals,
validation, pruning and the engines' masks read the groups.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Callable, Iterable, Sequence

from .errors import DiagramMismatchError
from .features import (
    FeatureDiagram,
    FeatureExpression,
    FFalse,
    Product,
    flag_bytes,
)
from .rational import ONE, ZERO, rational


class Profile:
    """Common interface of both profiles; groups and values are built once."""

    __slots__ = ("diagram", "_groups", "_values")

    def __init__(self, diagram: FeatureDiagram):
        self.diagram = diagram
        self._groups: tuple | None = None
        self._values: tuple | None = None

    def evaluate(self, product: Product):
        return self.dense_values()[self.diagram.product_index(product)]

    def groups(self) -> tuple[tuple[object, int], ...]:
        """The distinct values, each with the bitset of the valid products
        that carry it: disjoint bitsets that cover every valid product."""
        if self._groups is None:
            self._groups = self._make_groups()
        return self._groups

    def dense_values(self) -> tuple:
        """Values in canonical product order, expanded from the groups."""
        if self._values is None:
            n = len(self.diagram.valid_products())
            groups = self.groups()
            values = [groups[-1][0]] * n if groups else []
            for value, bits in groups[:-1]:
                for i in compress(range(n), flag_bytes(bits, n)):
                    values[i] = value
            self._values = tuple(values)
        return self._values

    def where(self, test: Callable) -> int:
        """The bitset of the products whose value passes ``test``."""
        return sum(bits for value, bits in self.groups() if test(value))  # disjoint sets

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

    def _make_groups(self):
        """First match by masking: a case takes the products of its guard
        no earlier case took, the default the rest; every guard is read."""
        rest, taken = self.diagram.full, []
        for guard, value in self.cases:
            bits = self.diagram.bits(guard) & rest
            taken.append((value, bits))
            rest &= ~bits
        return _merged([*taken, (self.default, rest)])

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

    __slots__ = ()

    def __init__(self, diagram: FeatureDiagram, values: Sequence):
        super().__init__(diagram)
        values = tuple(values)
        if len(values) != len(diagram.valid_products()):
            raise ValueError(
                f"expected {len(diagram.valid_products())} values, got {len(values)}"
            )
        self._values = values

    @classmethod
    def of_groups(cls, diagram: FeatureDiagram, groups: tuple) -> "DenseProfile":
        """The profile with these :meth:`groups`, its values expanded now."""
        profile = cls.__new__(cls)
        Profile.__init__(profile, diagram)
        profile._groups = groups
        profile.dense_values()
        return profile

    @property
    def values(self) -> tuple:
        return self.dense_values()

    def _make_groups(self):
        return _merged((value, 1 << i) for i, value in enumerate(self._values))

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


def to_dense(profile: Profile, diagram: FeatureDiagram | None = None) -> DenseProfile:
    if diagram is not None and diagram != profile.diagram:
        raise DiagramMismatchError("profile belongs to a different diagram")
    if isinstance(profile, DenseProfile):
        return profile
    return DenseProfile.of_groups(profile.diagram, profile.groups())


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------


def _merged(pairs: Iterable[tuple[object, int]]) -> tuple:
    """``(value, bitset)`` pairs as groups: equal values merged, empty sets dropped."""
    groups: dict = {}
    for value, bits in pairs:
        if bits:
            groups[value] = groups.get(value, 0) | bits
    return tuple(groups.items())


def _binary(p1: Profile, other, op: Callable) -> DenseProfile:
    """``op`` applied once per pair of operand values that share products,
    or once per product when there are more pairs than products; equal
    results share one group."""
    p2 = other if isinstance(other, Profile) else constant(other, p1.diagram)
    if p1.diagram != p2.diagram:
        raise DiagramMismatchError(
            "profiles belong to different feature diagrams; lift them first"
        )
    left, right = p1.groups(), p2.groups()
    if len(left) * len(right) > len(p1.diagram.valid_products()):
        shared: dict = {}  # one object per distinct result
        results = map(op, p1.dense_values(), p2.dense_values())
        return DenseProfile(p1.diagram, [shared.setdefault(v, v) for v in results])
    pairs = (
        (op(a, b), bits & other_bits)
        for a, bits in left
        for b, other_bits in right
        if bits & other_bits
    )
    return DenseProfile.of_groups(p1.diagram, _merged(pairs))


mul = Profile.__mul__
add = Profile.__add__
sub = Profile.__sub__


def complement(profile: Profile) -> Profile:
    """Pointwise ``1 - value``; flips 0/1 indicator profiles."""
    return sub(constant(ONE, profile.diagram), profile)


def products_where(profile: Profile, test: Callable) -> list[tuple[Product, object]]:
    """The valid products whose value passes ``test``, each with its value,
    in canonical product order."""
    if not profile.where(test):
        return []
    pairs = zip(profile.diagram.valid_products(), profile.dense_values())
    return [(product, value) for product, value in pairs if test(value)]


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
        for product, value in products_where(profile, lambda v: not 0 <= v <= 1):
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
        for product, value in products_where(profile, lambda v: v < 0):
            findings.append(f"negative reward {value} at product {product}")
    return findings
