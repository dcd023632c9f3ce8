"""Family-level checking results shared by all engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .features import Product
from .rational import INFINITY, rat_str

#: Three-valued decision per product; None marks quantitative queries where
#: no threshold was asked.
SAT = "satisfied"
VIOLATED = "violated"
UNKNOWN = "unknown"


@dataclass
class ProductOutcome:
    product: Product
    value: object = None
    decision: str | None = None
    error_bound: object = None
    fallback: bool = False

    def value_str(self) -> str:
        if self.value is None:
            return "-"
        if self.value == INFINITY:
            return "inf"
        return rat_str(self.value)


@dataclass
class FamilyResult:
    """Per-product verdicts of one engine for one property."""

    engine: str
    property_text: str
    outcomes: dict[Product, ProductOutcome] = field(default_factory=dict)
    elapsed: float = 0.0
    warnings: list[str] = field(default_factory=list)
    #: closed-form rational function, set by the parametric engine only
    function: object = None

    def ordered(self, products: Iterable[Product]) -> list[ProductOutcome]:
        return [self.outcomes[p] for p in products]

    @property
    def unknown_products(self) -> list[Product]:
        return [p for p, o in self.outcomes.items() if o.decision == UNKNOWN]
