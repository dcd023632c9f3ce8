"""Parametric engine: one family-wide elimination, one closed form.

The paper's parametric route eliminates states over rational functions of
the feature variables and evaluates the resulting function once per
product.  Symbolic elimination blows up on chains with back edges and
leaves 0/0 at products where a state turns absorbing, so this engine
departs from it in two ways:

* The one state elimination for the whole family runs over *support
  tables* instead of rational functions.  A table holds one exact value per
  assignment of only the features it depends on, and ``+``, ``*`` and the
  loop closure act pointwise: variable elimination over factors, the ADD
  encoding of ProFeat (Chrszon, Dubslaff, Klüppelholz & Baier, FAOC 2018)
  and of Bahar et al. (ICCAD 1993).  Every product gets its exact value.
* The closed form is the canonical multilinear interpolant of those values
  (a Möbius transform over the feature cube), emitted as a rational
  function over 1.  It agrees with the symbolic quotient wherever that is
  defined and needs no division.

Step-bounded until and next reuse the exact per-product vectors of
``engines/dense.py``, which need no division either, and its walker gives
the propositional operands and decides a plain state formula at the
initial states.  A nested probability operator is not supported.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from ..errors import ModelError, UnboundFeatureError, UnsupportedPropertyError
from ..features import FeatureDiagram, Product
from ..models import FDTMC, State
from ..profiles import GuardedProfile, Profile
from ..properties import (
    Next,
    Prob,
    Property,
    RewardQuery,
    StateFormula,
    bind_check,
    print_property,
)
from ..rational import INFINITY, ONE, ZERO, rational
from ..result import SAT, VIOLATED, FamilyResult, ProductOutcome
from .dense import (
    DenseModel,
    aggregate_init,
    bounded_until_vectors,
    init_decisions,
    next_vectors,
    satisfaction,
)
from .elimination import EliminationGraph

ENGINE_NAME = "parametric"

Monomial = frozenset


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


def _cube(values: Sequence, diagram: FeatureDiagram) -> list:
    """Per-product values spread over the whole feature cube, the first
    feature the most significant bit; invalid products are 0."""
    products = diagram.valid_products()
    if len(products) == 1 << len(diagram.signature):
        return list(values)  # unconstrained: canonical order is cube order
    cube = [ZERO] * (1 << len(diagram.signature))
    for product, value in zip(products, values):
        index = 0
        for bit in product.values:
            index = (index << 1) | bit
        cube[index] = value
    return cube


def interpolate_family(values: Sequence, diagram: FeatureDiagram) -> MultilinearPolynomial:
    """The unique multilinear interpolant of per-product values.

    ``values`` follows the diagram's canonical product order; invalid
    products count as 0.  The coefficient of monomial S is the Möbius
    inverse sum over T ⊆ S of (-1)^|S-T| value(T), computed for all S at
    once by the fast subset transform in O(n·2^n) steps; a step whose
    partner cell is 0 subtracts nothing and is skipped.
    """
    names = diagram.signature
    n = len(names)
    size = 1 << n
    cube = _cube(values, diagram)
    for i in range(n):
        step = 1 << i
        for block in range(step, size, 2 * step):
            for mask in range(block, block + step):
                partner = cube[mask - step]
                if partner:
                    cube[mask] -= partner
    # bit i of a mask, counted from the top, is feature names[i]
    digits = f"0{n}b"
    return MultilinearPolynomial(
        {
            frozenset(itertools.compress(names, map("1".__eq__, format(mask, digits)))): coeff
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

    def evaluate(self, product: Product):
        return self.num.evaluate(product) / self.den.evaluate(product)

    def __repr__(self):
        return f"RF(({poly_to_text(self.num)}) / ({poly_to_text(self.den)}))"


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
# Support tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _union_maps(sa: tuple, sb: tuple) -> tuple:
    """Union of two supports, and for each of its assignments the index of
    the matching assignment in either operand."""
    support = tuple(sorted(set(sa) | set(sb)))
    width = len(support)

    def index_map(sub):
        shifts = [width - 1 - support.index(p) for p in sub]
        out = []
        for u in range(1 << width):
            index = 0
            for shift in shifts:
                index = (index << 1) | (u >> shift & 1)
            out.append(index)
        return tuple(out)

    return support, index_map(sa), index_map(sb)


class SupportTable:
    """Exact values over the assignments of a few features.

    ``support`` is a sorted tuple of feature positions in the signature and
    ``values`` holds one value per assignment of them, the first position
    the most significant bit.  A product reads the entry of its own
    assignment.  ``+`` and ``*`` act pointwise over the union of the
    supports; tables are never changed in place, so operands may be shared.
    """

    __slots__ = ("support", "values")

    def __init__(self, support: tuple, values: Sequence):
        self.support = support
        self.values = values

    def __bool__(self) -> bool:
        return any(self.values)

    def _is_one(self) -> bool:
        return not self.support and self.values[0] == 1

    def _aligned(self, other: "SupportTable") -> tuple:
        """The union support and both operands' values spread over it."""
        if self.support == other.support:
            return self.support, self.values, other.values
        support, ia, ib = _union_maps(self.support, other.support)
        a, b = self.values, other.values
        return support, [a[i] for i in ia], [b[j] for j in ib]

    # both operators skip zero entries: the rational arithmetic dominates

    def __add__(self, other: "SupportTable") -> "SupportTable":
        if not other:
            return self
        if not self:
            return other
        support, a, b = self._aligned(other)
        return SupportTable(support, [x + y if x and y else x or y for x, y in zip(a, b)])

    def __mul__(self, other: "SupportTable") -> "SupportTable":
        if not self or other._is_one():
            return self
        if not other or self._is_one():
            return other
        support, a, b = self._aligned(other)
        return SupportTable(support, [x and y and x * y for x, y in zip(a, b)])

    def at(self, product: Product):
        """The value at a product of the table's diagram."""
        values = product.values
        index = 0
        for position in self.support:
            index = (index << 1) | values[position]
        return self.values[index]


def _scalar(value) -> SupportTable:
    return SupportTable((), (value,))


TABLE_ZERO = _scalar(ZERO)


def _closure(loop: SupportTable) -> SupportTable | None:
    """Pointwise 1 / (1 - loop), and 0 where the loop is 1: that state is
    absorbing there and reroutes no mass.  None for a scalar loop of 1,
    which leaves no mass for the other outgoing edges on any product."""
    if loop._is_one():
        return None
    return SupportTable(
        loop.support, [ZERO if x == 1 else ONE / (ONE - x) for x in loop.values]
    )


def profile_table(profile: Profile, diagram: FeatureDiagram) -> SupportTable:
    """Encode a profile as a table agreeing with it on every valid product.

    A guard list is evaluated on every assignment of its guard variables.
    A dense profile fills the whole cube, invalid products 0, and then
    drops every feature whose two halves agree.
    """
    names = diagram.signature
    if isinstance(profile, GuardedProfile) and not profile.cases:
        return _scalar(profile.default)
    if isinstance(profile, GuardedProfile):
        variables = set().union(*(guard.variables() for guard, _ in profile.cases))
        if not variables <= set(names):
            raise UnboundFeatureError(sorted(variables - set(names))[0])
        support = tuple(sorted(names.index(v) for v in variables))
        values = []
        for bits in itertools.product((False, True), repeat=len(support)):
            assignment = {names[p]: bit for p, bit in zip(support, bits)}
            values.append(
                next(
                    (v for guard, v in profile.cases if guard.evaluate(assignment)),
                    profile.default,
                )
            )
        return SupportTable(support, values)
    support = list(range(len(names)))
    values = _cube(profile.dense_values(), diagram)
    for j in reversed(range(len(names))):
        step = 1 << (len(support) - 1 - j)
        if all(values[i] == values[i | step] for i in range(len(values)) if not i & step):
            del support[j]
            values = [v for i, v in enumerate(values) if not i & step]
    return SupportTable(tuple(support), values)


# ---------------------------------------------------------------------------
# State elimination
# ---------------------------------------------------------------------------

_VIRTUAL_INIT = ("__init__",)
#: Sink valued 1: reward edges carry r_s into it, so x = P·x + r becomes
#: a reachability-shaped system over the same probability edges.
_REWARD_SINK = ("__reward__",)


def _build_graph(model: FDTMC, targets: set, constrained: set | None) -> EliminationGraph:
    graph = EliminationGraph(_closure)
    for (s, t), profile in model.transitions.items():
        if s in targets:
            continue  # targets absorb
        if constrained is not None and s not in constrained:
            continue  # states violating the constraint absorb with value 0
        graph.add(s, t, profile_table(profile, model.diagram))
    for s, weight in model.init.items():
        graph.add(_VIRTUAL_INIT, s, _scalar(weight))
    return graph


def _target_mass(graph: EliminationGraph, model: FDTMC, targets: set) -> SupportTable:
    """Eliminate every state outside the targets; the mass then left on the
    edges from the initial distribution into the targets."""
    for _ in graph.run(model.states, targets):
        pass
    row = graph.succ.get(_VIRTUAL_INIT, {})
    total = TABLE_ZERO
    for t in targets:
        total = total + row.get(t, TABLE_ZERO)
    return total


def eliminate_reachability(
    model: FDTMC, targets: Iterable[State], constrained: Iterable[State] | None = None
) -> SupportTable:
    """Probability of reaching ``targets`` from the initial distribution,
    optionally through ``constrained`` states only, for every product; 0
    for an empty target set."""
    targets = set(targets)
    if not targets:
        return TABLE_ZERO
    graph = _build_graph(
        model, targets, set(constrained) if constrained is not None else None
    )
    return _target_mass(graph, model, targets)


def _reward_tables(model: FDTMC, targets: set) -> tuple:
    """Reachability of the targets and the solution of x = P·x + r with
    x = 0 on the targets, both at the initial distribution, from one
    elimination: the targets (valued 1 for reachability) and the reward
    sink (valued 1 for the reward) are two right-hand sides of the same
    system.

    The reward is only meaningful on products whose reachability is 1; no
    product reaches an empty target set.
    """
    if model.rewards is None:
        raise ModelError("model has no rewards")
    if not targets:
        return TABLE_ZERO, TABLE_ZERO
    graph = _build_graph(model, targets, None)
    for s in model.states:
        if s not in targets:
            graph.add(s, _REWARD_SINK, profile_table(model.reward_profile(s), model.diagram))
    reach = _target_mass(graph, model, targets)
    return reach, graph.succ.get(_VIRTUAL_INIT, {}).get(_REWARD_SINK, TABLE_ZERO)


def eliminate_expected_reward(model: FDTMC, targets: Iterable[State]) -> SupportTable:
    """Expected accumulated reward until the target set, for every product.

    Requires the target to be reached almost surely in every product;
    products violating that are listed in the raised error.
    """
    reach, reward = _reward_tables(model, set(targets))
    missing = [p for p in model.diagram.valid_products() if reach.at(p) != 1]
    if missing:
        raise ModelError(
            "expected reward undefined: target missed with positive probability "
            "for products " + ", ".join(str(p) for p in missing)
        )
    return reward


# ---------------------------------------------------------------------------
# Family checking
# ---------------------------------------------------------------------------


def _no_nested(node: Prob, sat_of):
    raise UnsupportedPropertyError(
        "the parametric engine handles a single probability or reward operator "
        "over propositional operands; use the enumerative or bounded engine "
        "for nested probability operators"
    )


def _query_values(dense: DenseModel, prop: Property) -> list:
    """Exact per-product values in canonical product order.

    Expected rewards are ``inf`` on products that miss the target with
    positive probability.  Operands are propositional, so each state
    satisfies one for every product or for none.
    """
    entries: dict = {}

    def sat(formula: StateFormula) -> dict:
        return satisfaction(dense, formula, _no_nested, entries).lo

    def states(formula: StateFormula) -> set:
        return {s for s, bits in sat(formula).items() if bits}

    model = dense.model
    if isinstance(prop, RewardQuery):
        reach, reward = _reward_tables(model, states(prop.target))
        return [reward.at(p) if reach.at(p) == 1 else INFINITY for p in dense.products]
    if not isinstance(prop, Prob):
        raise UnsupportedPropertyError(
            "the parametric engine needs a probability or reward operator at the top"
        )
    path = prop.path
    if isinstance(path, Next):
        return aggregate_init(dense, next_vectors(dense, sat(path.operand)))
    if path.bound is not None:
        vectors = bounded_until_vectors(dense, sat(path.left), sat(path.right), path.bound)
        return aggregate_init(dense, vectors)
    table = eliminate_reachability(model, states(path.right), constrained=states(path.left))
    return [table.at(p) for p in dense.products]


def property_function(model: FDTMC, prop: Property) -> RationalFunction:
    """The closed form whose per-product values answer the query: the
    multilinear interpolant of the exact values, over 1.

    A reward function is meaningless when the reward is ``inf`` on some
    product; :func:`check_family_parametric` emits no closed form then.
    """
    values = _query_values(DenseModel(model), prop)
    return RationalFunction(interpolate_family(values, model.diagram))


def check_family_parametric(model: FDTMC, prop: Property | str) -> FamilyResult:
    """One family-wide elimination, an exact value for every product, and
    the closed form interpolating them.

    Expected rewards are ``inf`` on products that miss the target with
    positive probability; no closed form is emitted then.
    """
    prop = bind_check(prop, model.ap)
    started = time.perf_counter()
    dense = DenseModel(model)
    products = dense.products
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    if not isinstance(prop, (Prob, RewardQuery)):
        # plain state formula: decided at the initial states, no closed form
        decisions = init_decisions(dense, satisfaction(dense, prop, _no_nested, {}))
        for product, decision in zip(products, decisions):
            result.outcomes[product] = ProductOutcome(product, decision=decision)
        result.elapsed = time.perf_counter() - started
        return result
    values = _query_values(dense, prop)
    interval = prop.interval if isinstance(prop, Prob) else None
    for product, value in zip(products, values):
        decision = None
        if interval is not None:
            decision = SAT if interval.contains(value) else VIOLATED
        result.outcomes[product] = ProductOutcome(product, value=value, decision=decision)
    diverging = [str(p) for p, v in zip(products, values) if v == INFINITY]
    if diverging:
        result.warnings.append(
            "expected reward is infinite for products " + ", ".join(diverging)
            + "; no closed form is emitted"
        )
    else:
        result.function = RationalFunction(interpolate_family(values, model.diagram))
    result.elapsed = time.perf_counter() - started
    return result
