"""Parametric engine: one symbolic exploration, one evaluation per product.

Profiles become multilinear polynomials over Boolean feature variables
(idempotent reduction keeps every variable at power one, which is exact at
0/1 points).  Reachability and reward queries are turned into a closed-form
rational function by state elimination; bounded queries unroll over
polynomial vectors and need no division at all.  The function is finally
evaluated once per valid product with exact arithmetic.

No GCD cancellation is attempted: functions are compared by evaluation,
never syntactically, and idempotent reduction already bounds growth.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from ..errors import FeatmcError, ModelError, UnsupportedPropertyError
from ..features import (
    FAnd,
    FeatureDiagram,
    FeatureExpression,
    FFalse,
    FImplies,
    FNot,
    FOr,
    FTrue,
    FVar,
    FXor,
    Product,
)
from ..models import FDTMC, State
from ..profiles import GuardedProfile, Profile
from ..properties import (
    Atom,
    Next,
    PAnd,
    PNot,
    Prob,
    Property,
    PTrue,
    RewardQuery,
    StateFormula,
    print_property,
)
from ..rational import INFINITY, ONE, ZERO, rational
from ..result import SAT, VIOLATED, FamilyResult, ProductOutcome
from .elimination import EliminationGraph

ENGINE_NAME = "parametric"

Monomial = frozenset


class ZeroDenominatorError(FeatmcError):
    """Evaluation hit a vanishing denominator for this product."""

    def __init__(self, product: Product):
        self.product = product
        super().__init__(f"denominator vanishes at product {product}")


# ---------------------------------------------------------------------------
# Multilinear polynomials
# ---------------------------------------------------------------------------


class MultilinearPolynomial:
    """Mapping from monomials (sets of feature names) to rational coefficients.

    Canonical form: no zero coefficients stored, no repeated variable inside
    a monomial (f*f collapses to f on every multiplication).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        self.terms: dict[Monomial, object] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[frozenset(mono)] = coeff

    @classmethod
    def const(cls, value) -> "MultilinearPolynomial":
        value = rational(value) if not isinstance(value, float) else value
        return cls({frozenset(): value} if value != 0 else {})

    @classmethod
    def variable(cls, name: str) -> "MultilinearPolynomial":
        return cls({frozenset((name,)): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not mono for mono in self.terms)

    def constant_value(self):
        return self.terms.get(frozenset(), ZERO)

    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, ZERO) + coeff
            if new == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = new
        out = MultilinearPolynomial.__new__(MultilinearPolynomial)
        out.terms = terms
        return out

    def __neg__(self) -> "MultilinearPolynomial":
        out = MultilinearPolynomial.__new__(MultilinearPolynomial)
        out.terms = {mono: -coeff for mono, coeff in self.terms.items()}
        return out

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        return self + (-other)

    def __mul__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        terms: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 | m2  # idempotent reduction: f*f -> f
                new = terms.get(mono, ZERO) + c1 * c2
                if new == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = new
        out = MultilinearPolynomial.__new__(MultilinearPolynomial)
        out.terms = terms
        return out

    def scale(self, factor) -> "MultilinearPolynomial":
        if factor == 0:
            return MultilinearPolynomial()
        out = MultilinearPolynomial.__new__(MultilinearPolynomial)
        out.terms = {mono: coeff * factor for mono, coeff in self.terms.items()}
        return out

    def evaluate(self, product: Product):
        """Substitute 1 for enabled features and 0 for the rest."""
        enabled = product.enabled()
        total = ZERO
        for mono, coeff in self.terms.items():
            if mono <= enabled:
                total += coeff
        return total

    def __eq__(self, other):
        return isinstance(other, MultilinearPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({poly_to_text(self)})"


POLY_ZERO = MultilinearPolynomial()
POLY_ONE = MultilinearPolynomial.const(ONE)


def _monomial_key(mono: Monomial):
    return (len(mono), tuple(sorted(mono)))


def poly_to_text(poly: MultilinearPolynomial) -> str:
    if poly.is_zero():
        return "0"
    parts = []
    for mono in sorted(poly.terms, key=_monomial_key, reverse=True):
        coeff = poly.terms[mono]
        body = "*".join(sorted(mono))
        magnitude = coeff if coeff > 0 else -coeff
        if body and magnitude == 1:
            text = body
        elif body:
            text = f"{magnitude}*{body}"
        else:
            text = str(magnitude)
        parts.append(("- " if coeff < 0 else "+ ") + text)
    head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
    return head + ("" if len(parts) == 1 else " " + " ".join(parts[1:]))


def indicator_polynomial(expr: FeatureExpression) -> MultilinearPolynomial:
    """Multilinear polynomial matching the guard's truth value at 0/1 points."""
    if isinstance(expr, FTrue):
        return POLY_ONE
    if isinstance(expr, FFalse):
        return POLY_ZERO
    if isinstance(expr, FVar):
        return MultilinearPolynomial.variable(expr.name)
    if isinstance(expr, FNot):
        return POLY_ONE - indicator_polynomial(expr.operand)
    left = indicator_polynomial(expr.left)
    right = indicator_polynomial(expr.right)
    if isinstance(expr, FAnd):
        return left * right
    if isinstance(expr, FOr):
        return left + right - left * right
    if isinstance(expr, FXor):
        return left + right - (left * right).scale(rational(2))
    if isinstance(expr, FImplies):
        return POLY_ONE - left + left * right
    raise TypeError(f"unknown feature expression {expr!r}")


def profile_to_polynomial(profile: Profile, diagram: FeatureDiagram) -> MultilinearPolynomial:
    """Encode a profile as a polynomial agreeing with it on every valid product.

    Guard-list profiles use per-guard indicator polynomials over the
    exclusive rewrite of their cases; dense profiles are interpolated.
    """
    if isinstance(profile, GuardedProfile):
        poly = POLY_ZERO
        for guard, value in profile.exclusive_cases():
            if value != 0:
                poly = poly + indicator_polynomial(guard).scale(value)
        return poly
    return interpolate_family(profile.dense_values(), diagram)


def interpolate_family(values: Sequence, diagram: FeatureDiagram) -> MultilinearPolynomial:
    """The unique multilinear interpolant of per-product values.

    ``values`` follows the diagram's canonical product order; invalid
    products count as 0.  The coefficient of monomial S is the Möbius
    inverse sum over T ⊆ S of (-1)^|S-T| value(T), computed for all S at
    once by the fast subset transform in O(n·2^n) operations.
    """
    names = diagram.signature
    n = len(names)
    cube = [ZERO] * (1 << n)
    for product, value in zip(diagram.valid_products(), values):
        index = 0
        for bit in product.values:
            index = (index << 1) | bit
        cube[index] = value
    for i in range(n):
        step = 1 << i
        for mask in range(1 << n):
            if mask & step:
                cube[mask] -= cube[mask ^ step]
    # bit i of a mask, counted from the top, is feature names[i]
    return MultilinearPolynomial(
        {
            frozenset(names[i] for i in range(n) if mask >> (n - 1 - i) & 1): coeff
            for mask, coeff in enumerate(cube)
            if coeff != 0
        }
    )


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient of two multilinear polynomials, kept unreduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultilinearPolynomial, den: MultilinearPolynomial = POLY_ONE):
        if den.is_zero():
            raise ZeroDivisionError("denominator polynomial is identically zero")
        self.num = num
        self.den = den

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        num = self.num * other.num
        if self.den == POLY_ONE:
            den = other.den
        elif other.den == POLY_ONE:
            den = self.den
        else:
            den = self.den * other.den
        return RationalFunction(num, den)

    def evaluate(self, product: Product):
        den = self.den.evaluate(product)
        if den == 0:
            raise ZeroDenominatorError(product)
        return self.num.evaluate(product) / den

    def __repr__(self):
        return f"RF(({poly_to_text(self.num)}) / ({poly_to_text(self.den)}))"


RF_ZERO = RationalFunction(POLY_ZERO)
RF_ONE = RationalFunction(POLY_ONE)


def rf_to_text(rf: RationalFunction) -> str:
    """Emission format: integer-scaled numerator, then a denominator line.

    Both polynomials are scaled by the least common multiple of their
    coefficient denominators so every printed coefficient is an integer.
    """

    def _lcm(a: int, b: int) -> int:
        from math import gcd

        return a * b // gcd(a, b)

    scale = 1
    for poly in (rf.num, rf.den):
        for coeff in poly.terms.values():
            scale = _lcm(scale, int(coeff.denominator))
    num = rf.num.scale(rational(scale))
    den = rf.den.scale(rational(scale))
    den_text = (
        str(den.constant_value()) if den.is_constant() else f"({poly_to_text(den)})"
    )
    return f"({poly_to_text(num)})\n/ {den_text}\n"


# ---------------------------------------------------------------------------
# State elimination
# ---------------------------------------------------------------------------

_VIRTUAL_INIT = ("__init__",)
#: Sink valued 1: reward edges carry r_s into it, so x = P·x + r becomes
#: a reachability-shaped system over the same probability edges.
_REWARD_SINK = ("__reward__",)


def _loop_closure(loop: RationalFunction) -> RationalFunction | None:
    """1 / (1 - loop); None for a self-loop that is identically 1, which
    leaves no mass for the other outgoing edges on any valid product."""
    comp_num = loop.den - loop.num
    if comp_num.is_zero():
        return None
    return RationalFunction(loop.den, comp_num)


def _transition_polynomials(model: FDTMC) -> dict[tuple[State, State], MultilinearPolynomial]:
    return {
        key: profile_to_polynomial(profile, model.diagram)
        for key, profile in model.transitions.items()
    }


def _build_graph(model: FDTMC, targets: set, constrained: set | None) -> EliminationGraph:
    graph = EliminationGraph(_loop_closure)
    for (s, t), profile in model.transitions.items():
        if s in targets:
            continue  # targets absorb
        if constrained is not None and s not in constrained:
            continue  # states violating the constraint absorb with value 0
        graph.add(s, t, RationalFunction(profile_to_polynomial(profile, model.diagram)))
    for s, weight in model.init.items():
        graph.add(_VIRTUAL_INIT, s, RationalFunction(MultilinearPolynomial.const(weight)))
    return graph


def eliminate_reachability(
    model: FDTMC, targets: Iterable[State], constrained: Iterable[State] | None = None
) -> RationalFunction:
    """Closed form of the probability of reaching ``targets`` from the
    initial distribution, optionally through ``constrained`` states only."""
    targets = set(targets)
    if not targets:
        raise ModelError("empty target set")
    graph = _build_graph(
        model, targets, set(constrained) if constrained is not None else None
    )
    # every target stays a node of its own: merging them into one sink
    # changes the min-degree order, which can blow up the elimination
    for _ in graph.run(model.states, targets):
        pass  # only the edges left into the targets are needed
    total = RF_ZERO
    for t in targets:
        total = total + graph.f.get((_VIRTUAL_INIT, t), RF_ZERO)
    return total


def _reward_function(model: FDTMC, targets: set) -> RationalFunction:
    """Solution of x = P·x + r with x = 0 on the targets, at the initial
    distribution.

    Only meaningful on products that reach the target almost surely.
    """
    if not targets:
        raise ModelError("empty target set")
    if model.rewards is None:
        raise ModelError("model has no rewards")
    graph = _build_graph(model, targets, None)
    for t in targets:
        for s in list(graph.pred.get(t, ())):
            graph.remove_edge(s, t)  # targets are valued 0
    for s in model.states:
        if s not in targets:
            reward = profile_to_polynomial(model.reward_profile(s), model.diagram)
            graph.add(s, _REWARD_SINK, RationalFunction(reward))
    for _ in graph.run(model.states, targets):
        pass
    return graph.f.get((_VIRTUAL_INIT, _REWARD_SINK), RF_ZERO)


def eliminate_expected_reward(model: FDTMC, targets: Iterable[State]) -> RationalFunction:
    """Closed form of the expected accumulated reward until the target set.

    Requires the target to be reached almost surely in every product;
    products violating that are listed in the raised error.
    """
    targets = set(targets)
    reach = eliminate_reachability(model, targets)
    missing = []
    for product in model.diagram.valid_products():
        try:
            value = reach.evaluate(product)
        except ZeroDenominatorError:
            missing.append(product)
            continue
        if value != 1:
            missing.append(product)
    if missing:
        raise ModelError(
            "expected reward undefined: target missed with positive probability "
            "for products " + ", ".join(str(p) for p in missing)
        )
    return _reward_function(model, targets)


def evaluate(rf: RationalFunction, product: Product):
    """Exact value at a product; raises ZeroDenominatorError when undefined."""
    return rf.evaluate(product)


# ---------------------------------------------------------------------------
# Family checking
# ---------------------------------------------------------------------------


def _propositional_sat(model: FDTMC, formula: StateFormula) -> set:
    if isinstance(formula, PTrue):
        return set(model.states)
    if isinstance(formula, Atom):
        return model.states_with(formula.name)
    if isinstance(formula, PNot):
        return set(model.states) - _propositional_sat(model, formula.operand)
    if isinstance(formula, PAnd):
        return _propositional_sat(model, formula.left) & _propositional_sat(
            model, formula.right
        )
    raise UnsupportedPropertyError(
        "the parametric engine handles a single probability or reward operator "
        "over propositional operands; use the enumerative or bounded engine "
        "for nested probability operators"
    )


def _bounded_until_function(
    model: FDTMC, sat1: set, sat2: set, bound: int
) -> RationalFunction:
    polys = _transition_polynomials(model)
    out: dict[State, list[tuple[State, MultilinearPolynomial]]] = {
        s: [] for s in model.states
    }
    for (s, t), poly in polys.items():
        out[s].append((t, poly))
    x = {s: (POLY_ONE if s in sat2 else POLY_ZERO) for s in model.states}
    for _ in range(bound):
        nxt = {}
        for s in model.states:
            if s in sat2:
                nxt[s] = POLY_ONE
            elif s not in sat1:
                nxt[s] = POLY_ZERO
            else:
                acc = POLY_ZERO
                for t, poly in out[s]:
                    if not x[t].is_zero():
                        acc = acc + poly * x[t]
                nxt[s] = acc
        x = nxt
    total = POLY_ZERO
    for s, weight in model.init.items():
        if weight != 0:
            total = total + x[s].scale(weight)
    return RationalFunction(total)


def _next_function(model: FDTMC, sat: set) -> RationalFunction:
    polys = _transition_polynomials(model)
    total = POLY_ZERO
    for s, weight in model.init.items():
        if weight == 0:
            continue
        acc = POLY_ZERO
        for (src, t), poly in polys.items():
            if src == s and t in sat:
                acc = acc + poly
        total = total + acc.scale(weight)
    return RationalFunction(total)


def property_function(model: FDTMC, prop: Property) -> RationalFunction:
    """The rational function whose per-product values answer the query.

    A reward function holds only on products that reach the target almost
    surely; :func:`check_family_parametric` reports the others as ``inf``.
    """
    if isinstance(prop, RewardQuery):
        return _reward_function(model, _propositional_sat(model, prop.target))
    if isinstance(prop, Prob):
        path = prop.path
        if isinstance(path, Next):
            return _next_function(model, _propositional_sat(model, path.operand))
        sat1 = _propositional_sat(model, path.left)
        sat2 = _propositional_sat(model, path.right)
        if path.bound is not None:
            return _bounded_until_function(model, sat1, sat2, path.bound)
        return eliminate_reachability(model, sat2, constrained=sat1)
    raise UnsupportedPropertyError(
        "the parametric engine needs a probability or reward operator at the top"
    )


def check_family_parametric(model: FDTMC, prop: Property | str) -> FamilyResult:
    """One symbolic exploration, then an exact evaluation per product.

    Products where the function is undefined (vanishing denominator) are
    rerun through the enumerative engine and flagged in the warnings.
    Expected rewards are ``inf`` on products that miss the target with
    positive probability.
    """
    from ..properties import bind_check, parse_property
    from .enumerative import check_product as _enum_check_product
    from ..models import project as _project

    if isinstance(prop, str):
        prop = parse_property(prop)
    bind_check(prop, model.ap)
    started = time.perf_counter()
    rf = property_function(model, prop)
    reach = None
    if isinstance(prop, RewardQuery):
        reach = eliminate_reachability(model, _propositional_sat(model, prop.target))
    interval = prop.interval if isinstance(prop, Prob) else None
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    for product in model.diagram.valid_products():
        fallback = False
        try:
            if reach is not None and reach.evaluate(product) != 1:
                value = INFINITY
            else:
                value = rf.evaluate(product)
        except ZeroDenominatorError:
            value = _enum_check_product(_project(model, product), prop).value
            fallback = True
            result.warnings.append(
                f"product {product}: undefined function value, "
                "fell back to the enumerative engine"
            )
        decision = None
        if interval is not None:
            decision = SAT if interval.contains(value) else VIOLATED
        result.outcomes[product] = ProductOutcome(
            product, value=value, decision=decision, fallback=fallback
        )
    diverging = [str(p) for p, o in result.outcomes.items() if o.value == INFINITY]
    if diverging:
        result.warnings.append(
            "expected reward is infinite for products " + ", ".join(diverging)
            + "; no closed form is emitted"
        )
    else:
        # canonical denominator-free form, total even where elimination's
        # raw quotient is undefined (fallback values fill the gaps)
        values = [o.value for o in result.outcomes.values()]
        result.function = RationalFunction(interpolate_family(values, model.diagram))
    result.elapsed = time.perf_counter() - started
    return result
