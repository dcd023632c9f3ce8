"""Family-level checking results shared by all engines."""

from __future__ import annotations

from functools import cached_property
from typing import Callable

from .features import Product
from .rational import rat_str
from .records import field, record

#: Three-valued decision per product; None marks quantitative queries where
#: no threshold was asked.
SAT = "satisfied"
VIOLATED = "violated"
UNKNOWN = "unknown"


@record
class ProductOutcome:
    product: Product
    value: object = None
    decision: str | None = None
    error_bound: object = None
    #: no engine sets it (the parametric engine never falls back); the
    #: benchmark's tracer still reads it
    fallback: bool = False

    def value_str(self) -> str:
        return "-" if self.value is None else rat_str(self.value)


@record
class FamilyResult:
    """Per-product verdicts of one engine for one property."""

    engine: str
    property_text: str
    outcomes: dict[Product, ProductOutcome] = field(default_factory=dict)
    elapsed: float = 0.0
    warnings: list[str] = field(default_factory=list)
    #: builds the closed form from the outcomes; set by the parametric
    #: engine only, and not for a plain state formula or an infinite value
    closed_form: Callable[[], object] | None = field(default=None, repr=False)

    @cached_property
    def function(self):
        """The closed-form rational function, built on the first read and
        kept; None where the engine gives none."""
        return None if self.closed_form is None else self.closed_form()

    @property
    def unknown_products(self) -> list[Product]:
        return [p for p, o in self.outcomes.items() if o.decision == UNKNOWN]
