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
  The system is the sink-shaped ``x = P·x + b`` the enumerative engine
  solves per product, built once over product bitsets from the shared
  state-formula walker, and it goes through the same ``solve_linear``.
* The closed form is the canonical multilinear interpolant of those values
  (a Möbius transform over the feature cube), emitted as a rational
  function over 1.  It agrees with the symbolic quotient wherever that is
  defined and needs no division.

A top-level query adds one virtual initial unknown, whose row is the
initial distribution, and back-substitutes only it.  A nested probability
operator solves every state and reads each state's table per product.
Thresholds, step-bounded until and next (the exact step kernel on
packed integer lanes, which needs no division either), plain state
formulas and the outcomes the closed form interpolates come from the
answer layer all engines share (``FamilyCheck`` in ``engines/dense.py``).
"""

from __future__ import annotations

import itertools
import time
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from ..errors import ModelError, UnboundFeatureError, UnsupportedPropertyError
from ..features import FeatureDiagram, Product
from ..models import FDTMC
from ..profiles import GuardedProfile, Profile
from ..properties import (
    Prob,
    Property,
    RewardQuery,
    StateFormula,
    Until,
    bind_check,
    print_property,
)
from ..rational import INFINITY, ONE, ZERO, rat_str, rational
from ..result import FamilyResult
from .dense import DenseModel, FamilyCheck, reward_cone
from .elimination import SINK, solve_linear

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
            text = f"{rat_str(magnitude)}*{body}"
        else:
            text = rat_str(magnitude)
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
        rat_str(den.constant_value()) if den.is_constant() else f"({poly_to_text(den)})"
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
    ``SupportTable()`` is the zero table.
    """

    __slots__ = ("support", "values")

    def __init__(self, support: tuple = (), values: Sequence = (ZERO,)):
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


TABLE_ONE = _scalar(ONE)


def _closure(loop: SupportTable) -> SupportTable | None:
    """Pointwise 1 / (1 - loop), and 0 where the loop is 1: that state is
    absorbing there and reroutes no mass.  None for a scalar loop of 1,
    which leaves no mass for the other outgoing edges on any product."""
    if loop._is_one():
        return None
    return SupportTable(
        loop.support, [ZERO if x == 1 else ONE / (ONE - x) for x in loop.values]
    )


def _dense_table(values: Sequence, diagram: FeatureDiagram) -> SupportTable:
    """Per-product values (canonical product order) as a table: spread over
    the whole cube, invalid products 0, then every feature whose two halves
    agree dropped."""
    support = list(range(len(diagram.signature)))
    values = _cube(values, diagram)
    for j in reversed(range(len(support))):
        step = 1 << (len(support) - 1 - j)
        if all(values[i] == values[i | step] for i in range(len(values)) if not i & step):
            del support[j]
            values = [v for i, v in enumerate(values) if not i & step]
    return SupportTable(tuple(support), values)


def profile_table(profile: Profile, diagram: FeatureDiagram) -> SupportTable:
    """Encode a profile as a table agreeing with it on every valid product.

    A guard list is evaluated on every assignment of its guard variables;
    a dense profile goes through :func:`_dense_table`.
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
    return _dense_table(profile.dense_values(), diagram)


# ---------------------------------------------------------------------------
# Family checking
# ---------------------------------------------------------------------------

#: The one wanted unknown of a top-level query: its row is the initial
#: distribution, so its value is the query's value at every product.
_VIRTUAL_INIT = ("__init__",)


class _TableCheck(FamilyCheck):
    """One property on the whole family.

    Satisfaction sets come from the shared walker on product bitsets.  An
    unbounded until or an expected reward is one sink-shaped system over
    support tables, each edge part weighted by the indicator table of the
    products it stands for, and goes through the shared
    :func:`solve_linear`.
    """

    def __init__(self, dense: DenseModel):
        super().__init__(dense)
        self.diagram = dense.model.diagram
        self.indicators: dict[int, SupportTable] = {}

    @cached_property
    def edges(self) -> dict:
        """Per state, its out-edges with their tables; the virtual init
        unknown's out-edges are the initial distribution."""
        edges: dict = {s: [] for s in self.dense.states}
        for (s, t), profile in self.dense.model.transitions.items():
            edges[s].append((t, profile_table(profile, self.diagram)))
        edges[_VIRTUAL_INIT] = [(s, _scalar(w)) for s, w in self.dense.init.items()]
        return edges

    def restrict(self, table: SupportTable, bits: int) -> SupportTable:
        """``table`` on the products of ``bits`` and 0 elsewhere."""
        if bits == self.dense.full:
            return table
        indicator = self.indicators.get(bits)
        if indicator is None:
            flags = [ONE if bits >> i & 1 else ZERO for i in range(self.dense.n)]
            indicator = self.indicators[bits] = _dense_table(flags, self.diagram)
        return table * indicator

    def solve(self, sat1: dict, sat2: dict, rewards: bool = False, init: bool = False):
        """Solve ``sat1 U sat2`` (state -> product bitsets) as ``x = P·x + b``:
        a state is an unknown on the products where it is in ``maybe`` =
        ``sat1 & ~sat2``, and each edge goes to the sink where its successor
        is in ``sat2`` and to the successor where that is in ``maybe``.
        ``rewards`` solves the expected reward until ``sat2`` instead: edges
        into it are dropped and each row earns its state's reward.  Returns
        every unknown's table, or with ``init`` only that of the virtual
        init unknown, whose row is the initial distribution."""
        restrict = self.restrict
        maybe = {s: sat1[s] & ~sat2[s] for s in sat1}
        maybe[_VIRTUAL_INIT] = self.dense.full if init else 0
        sink = dict.fromkeys(sat2, 0) if rewards else sat2
        unknowns = [s for s in self.edges if maybe[s]]
        rows = []
        for s in unknowns:
            row = [
                (node, restrict(p, bits))
                for t, p in self.edges[s]
                for node, bits in ((SINK, maybe[s] & sink[t]), (t, maybe[s] & maybe[t]))
                if bits
            ]
            if rewards:
                reward = profile_table(self.dense.model.reward_profile(s), self.diagram)
                row.append((SINK, restrict(reward, maybe[s])))
            rows.append(row)
        wanted = [_VIRTUAL_INIT] if init else None
        return solve_linear(unknowns, rows, _closure, TABLE_ONE, wanted)

    def until_bounds(self, path: Until):
        """Exact values of an unbounded until at every state and product."""
        dense = self.dense
        sat1, sat2 = self.sat(path.left), self.sat(path.right)
        tables = self.solve(sat1, sat2)
        values = {
            s: [
                ONE if sat2[s] >> i & 1 else tables[s].at(p) if sat1[s] >> i & 1 else ZERO
                for i, p in enumerate(dense.products)
            ]
            for s in dense.states
        }
        return values, values

    def until_at_init(self, path: Until):
        sat1, sat2 = self.sat(path.left), self.sat(path.right)
        table = self.solve(sat1, sat2, init=True)[_VIRTUAL_INIT]
        values = [*map(table.at, self.dense.products)]
        return values, values

    def reward_at_init(self, target: StateFormula):
        """Expected rewards, ``inf`` on the products :func:`reward_cone`
        finds."""
        dense = self.dense
        if dense.model.rewards is None:
            raise ModelError("model has no rewards")
        sat2 = self.sat(target)
        _, infinite = reward_cone(dense, sat2)
        everywhere = dict.fromkeys(dense.states, dense.full)
        table = self.solve(everywhere, sat2, rewards=True, init=True)[_VIRTUAL_INIT]
        values = [
            INFINITY if infinite >> i & 1 else table.at(p) for i, p in enumerate(dense.products)
        ]
        return values, values


def property_function(model: FDTMC, prop: Property) -> RationalFunction:
    """The closed form whose per-product values answer the query: the
    multilinear interpolant of the exact values, over 1.

    A reward function is meaningless when the reward is ``inf`` on some
    product; :func:`check_family_parametric` emits no closed form then.
    """
    if not isinstance(prop, (Prob, RewardQuery)):
        raise UnsupportedPropertyError(
            "the parametric engine needs a probability or reward operator at the top"
        )
    outcomes = _TableCheck(DenseModel(model)).outcomes(prop)
    return RationalFunction(interpolate_family([o.value for o in outcomes], model.diagram))


def check_family_parametric(model: FDTMC, prop: Property | str) -> FamilyResult:
    """One family-wide elimination, an exact value for every product, and
    the closed form interpolating them.

    Expected rewards are ``inf`` on products that miss the target with
    positive probability; no closed form is emitted then.
    """
    prop = bind_check(prop, model.ap)
    started = time.perf_counter()
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    outcomes = _TableCheck(DenseModel(model)).outcomes(prop)
    result.outcomes = {o.product: o for o in outcomes}
    if isinstance(prop, (Prob, RewardQuery)):
        # a plain state formula has no closed form
        diverging = [str(o.product) for o in outcomes if o.value == INFINITY]
        if diverging:
            result.warnings.append(
                "expected reward is infinite for products " + ", ".join(diverging)
                + "; no closed form is emitted"
            )
        else:
            values = [o.value for o in outcomes]
            result.function = RationalFunction(interpolate_family(values, model.diagram))
    result.elapsed = time.perf_counter() - started
    return result
