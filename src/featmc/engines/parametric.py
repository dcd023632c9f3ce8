"""Parametric engine: one family-wide elimination, a closed form on demand.

The paper's parametric route eliminates states over rational functions of
the feature variables and evaluates the resulting function once per
product.  Symbolic elimination blows up on chains with back edges and
leaves 0/0 at products where a state turns absorbing, so this engine
departs from it in two ways:

* The one state elimination for the whole family runs over *support
  tables* instead of rational functions.  A table holds one exact value per
  assignment of only the features it depends on, as integer numerator and
  denominator lanes in lowest terms (the exact lane domain of
  ``engines/elimination.py``, which the enumerative engine's lanes share),
  and ``+``, ``*`` and the loop closure act pointwise: variable
  elimination over factors, the ADD encoding of ProFeat (Chrszon, Dubslaff,
  Klüppelholz & Baier, FAOC 2018) and of Bahar et al. (ICCAD 1993).  Every
  product gets its exact value, its entry's integers spread over the
  products (:meth:`_TableCheck.read`), and a rational object is made only
  for a value that is reported.  The system is the one the enumerative
  engine solves with a lane per product (``SystemCheck`` in
  ``engines/dense.py``): its prob0/prob1 partition, cones and entry
  unknowns, and each edge's table weighted by the indicator table of the
  products its entry stands for.
* The closed form is the canonical multilinear interpolant of those values
  (a Möbius transform over the feature cube), emitted as a rational
  function over 1.  It agrees with the symbolic quotient wherever that is
  defined and needs no division.  A check does not build it: the result's
  ``function`` interpolates the outcomes on its first read, which only
  ``--emit-expression`` and :func:`property_function` make.

Thresholds, step-bounded until and next (the exact step kernel on
packed integer lanes, which needs no division either), plain state
formulas, the aggregation at the initial distribution, the infinite
rewards and the outcomes the closed form interpolates come from the answer
layer all engines share (``FamilyCheck`` in ``engines/dense.py``).
"""

from __future__ import annotations

import itertools
import math
import time
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter, sub
from typing import Mapping, Sequence

from ..errors import UnboundFeatureError, UnsupportedPropertyError
from ..features import FeatureDiagram, FVar, Product, flag_bytes
from ..models import FDTMC
from ..profiles import GuardedProfile, Profile
from ..properties import Prob, Property, RewardQuery, bind_check, print_property
from ..rational import INFINITY, ONE, ZERO, rat_str, rational
from ..result import FamilyResult
from .dense import DenseModel, SystemCheck
from .elimination import lane_product, lane_sum

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


def _cube(values: Sequence, diagram: FeatureDiagram, zero=ZERO) -> list:
    """Per-product values spread over the whole feature cube, the first
    feature the most significant bit; invalid products are ``zero``."""
    products = diagram.valid_products()
    if len(products) == 1 << len(diagram.signature):
        return list(values)  # unconstrained: canonical order is cube order
    cube = [zero] * (1 << len(diagram.signature))
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

    scale = 1
    for poly in (rf.num, rf.den):
        for coeff in poly.terms.values():
            scale = math.lcm(scale, int(coeff.denominator))
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
    """Union of two supports, and for either operand a getter that spreads
    its lanes over the union's assignments."""
    support = tuple(sorted(set(sa) | set(sb)))
    width = len(support)

    def spread(sub):
        shifts = [width - 1 - support.index(p) for p in sub]
        out = []
        for u in range(1 << width):
            index = 0
            for shift in shifts:
                index = (index << 1) | (u >> shift & 1)
            out.append(index)
        return itemgetter(*out)  # the union has two or more assignments

    return support, spread(sa), spread(sb)


#: A rational's (numerator, denominator) pair.
_PAIR = attrgetter("numerator", "denominator")


class SupportTable:
    """Exact values over the assignments of a few features.

    ``support`` is a sorted tuple of feature positions in the signature,
    and the table holds one exact lane per assignment of them, the first
    position the most significant bit: ``num`` and ``den`` are integer
    tuples in lowest terms with ``den > 0``, as in the lane domain of
    ``engines/elimination.py``.  A product reads the entry of its own
    assignment.  ``+`` and ``*`` are that domain's lane maps over the union
    of the supports; tables are never changed in place, so operands may be
    shared.  ``SupportTable()`` is the zero table.
    """

    __slots__ = ("support", "num", "den")

    def __init__(self, support: tuple = (), num: tuple = (0,), den: tuple = (1,)):
        self.support = support
        self.num = num
        self.den = den

    @classmethod
    def of(cls, support: Sequence, values: Sequence) -> "SupportTable":
        """The table whose entries are the rationals ``values``."""
        num, den = zip(*map(_PAIR, values))
        return cls(tuple(support), num, den)

    def __bool__(self) -> bool:
        return any(self.num)

    def _is_one(self) -> bool:
        return self.num == (1,) == self.den

    def _aligned(self, other: "SupportTable") -> tuple:
        """The union support and both operands' lanes spread over it."""
        if self.support == other.support:
            return self.support, self.num, self.den, other.num, other.den
        support, ia, ib = _union_maps(self.support, other.support)
        return support, ia(self.num), ia(self.den), ib(other.num), ib(other.den)

    def __add__(self, other: "SupportTable") -> "SupportTable":
        if not other:
            return self
        if not self:
            return other
        support, *lanes = self._aligned(other)
        return SupportTable(support, *lane_sum(*lanes))

    def __mul__(self, other: "SupportTable") -> "SupportTable":
        if not self or other._is_one():
            return self
        if not other or self._is_one():
            return other
        support, *lanes = self._aligned(other)
        return SupportTable(support, *lane_product(*lanes))


TABLE_ONE = SupportTable((), (1,), (1,))


def _closure(loop: SupportTable) -> SupportTable | None:
    """Pointwise 1 / (1 - loop), ``den / (den - num)`` in lowest terms as
    ``num`` and ``den`` are coprime, and 0 where the loop is 1: that state
    is absorbing there and reroutes no mass.  A loop above 1 flips both
    signs.  None for a scalar loop of 1, which leaves no mass for the other
    outgoing edges on any product."""
    if loop._is_one():
        return None
    num, den = loop.den, tuple(map(sub, loop.den, loop.num))
    if min(den) <= 0:
        num, den = zip(
            *((n, d) if d > 0 else (-n, -d) if d else (0, 1) for n, d in zip(num, den))
        )
    return SupportTable(loop.support, num, den)


def _halves(size: int, step: int) -> list[tuple[slice, slice, slice]]:
    """The two halves of a cube of ``size`` cells along the feature of bit
    ``step``, as ``(bit clear, bit set, place among the bit-clear cells)``
    slices: ``step`` strided slices or ``size / (2 * step)`` blocks,
    whichever are fewer."""
    width = 2 * step
    if step < size // width:
        return [
            (slice(r, None, width), slice(r + step, None, width), slice(r, None, step))
            for r in range(step)
        ]
    return [
        (slice(b, b + step), slice(b + step, b + width), slice(b // 2, b // 2 + step))
        for b in range(0, size, width)
    ]


def _dense_table(groups: Sequence, diagram: FeatureDiagram) -> SupportTable:
    """A table from ``(numerator, denominator)`` pairs, each with the bitset
    of the valid products that carry it (the bitsets cover every valid
    product): spread over the whole cube, invalid products 0, then every
    feature whose two halves agree dropped."""
    n = len(diagram.valid_products())
    pairs = [None] * n
    for pair, bits in groups:
        for i in itertools.compress(range(n), flag_bytes(bits, n)):
            pairs[i] = pair
    cells = _cube(pairs, diagram, (0, 1))
    support = list(range(len(diagram.signature)))
    for j in reversed(range(len(support))):
        step = 1 << (len(support) - 1 - j)
        if cells[0] != cells[step]:  # most features a table reads differ here
            continue
        halves = _halves(len(cells), step)
        if all(cells[low] == cells[high] for low, high, _ in halves):
            del support[j]
            kept = [None] * (len(cells) // 2)
            for low, _, into in halves:
                kept[into] = cells[low]
            cells = kept
    num, den = zip(*cells)
    return SupportTable(tuple(support), num, den)


def profile_table(profile: Profile, diagram: FeatureDiagram) -> SupportTable:
    """Encode a profile as a table agreeing with it on every valid product.

    A guard list is evaluated on every assignment of its guard variables;
    a dense profile goes through :func:`_dense_table`, the numerator and
    denominator of each of its distinct values read once.
    """
    names = diagram.signature
    if isinstance(profile, GuardedProfile) and not profile.cases:
        return SupportTable.of((), (profile.default,))
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
        return SupportTable.of(support, values)
    return _dense_table([(_PAIR(v), bits) for v, bits in profile.groups()], diagram)


# ---------------------------------------------------------------------------
# Family checking
# ---------------------------------------------------------------------------

class _TableCheck(SystemCheck):
    """One property on the whole family.

    Satisfaction sets come from the shared walker on product bitsets, and
    an unbounded until or an expected reward is the shared sink-shaped
    system (:class:`SystemCheck`) over support tables: each edge's table
    is weighted by the indicator table of the products its entry stands
    for (:meth:`masked`).
    """

    unit = TABLE_ONE
    closure = staticmethod(_closure)

    def __init__(self, dense: DenseModel):
        super().__init__(dense)
        self.diagram = dense.model.diagram
        # per feature position, the bitset of the products that enable it
        self.features = [self.diagram.bits(FVar(name)) for name in self.diagram.signature]
        # product bitset -> its indicator table; a feature's products have
        # that feature's own, and they mask a state that only they reach
        self.indicators: dict[int, SupportTable] = {
            bits: SupportTable((p,), (0, 1), (1, 1)) for p, bits in enumerate(self.features)
        }

    @cached_property
    def edge_values(self) -> dict:
        """Per state, the tables of its out-edges of :attr:`DenseModel.succ`."""
        out_edges = self.dense.model.out_edges
        return {
            s: [profile_table(profiles[t], self.diagram) for t, _ in succ]
            for s, succ in self.dense.succ.items()
            for profiles in [dict(out_edges(s))]
        }

    @cached_property
    def reward_values(self) -> dict:
        """Per state, its reward's table and the products where it is
        nonzero."""
        reward = self.dense.model.reward_profile
        return {
            s: (profile_table(profile, self.diagram), profile.where(bool))
            for s in self.dense.states
            for profile in [reward(s)]
        }

    def masked(self, table: SupportTable, bits: int) -> SupportTable:
        """``table`` on the products of ``bits`` and 0 elsewhere."""
        if bits == self.dense.full:
            return table
        indicator = self.indicators.get(bits)
        if indicator is None:
            groups = (((1, 1), bits), ((0, 1), self.dense.full & ~bits))
            indicator = self.indicators[bits] = _dense_table(groups, self.diagram)
        return table * indicator

    def read(self, table: SupportTable, inside: int, ones: int) -> tuple[tuple, tuple]:
        """Per product, the numerator and denominator of its entry of
        ``table`` where it is in ``inside`` (a product bitset), of 1 where it
        is in ``ones`` and of 0 elsewhere; ``ones`` and ``inside`` are
        disjoint.  A product's entry is found by the bits of its features
        on the table's support (:meth:`DenseModel.indices`); 0 and 1 are
        two more entries."""
        dense = self.dense
        size = len(table.num)
        width = len(table.support)
        bits = [
            (1 << (width - 1 - j), self.features[p] & inside) for j, p in enumerate(table.support)
        ]
        top = size - 1
        if inside != dense.full:
            bits += [(size, dense.full & ~inside), (1, ones)]
            top = size + 1
        index = dense.indices(bits, top)
        num, den = table.num + (0, 1), table.den + (1, 1)
        return tuple(map(num.__getitem__, index)), tuple(map(den.__getitem__, index))


def property_function(model: FDTMC, prop: Property) -> RationalFunction | None:
    """The closed form whose per-product values answer the query: the
    multilinear interpolant of the exact values, over 1.

    None where :func:`check_family_parametric` emits none, as for an
    expected reward that is ``inf`` on some product.
    """
    if not isinstance(prop, (Prob, RewardQuery)):
        raise UnsupportedPropertyError(
            "the parametric engine needs a probability or reward operator at the top"
        )
    return check_family_parametric(model, prop).function


def check_family_parametric(model: FDTMC, prop: Property | str) -> FamilyResult:
    """One family-wide elimination and an exact value for every product.

    The closed form interpolating them is built on the first read of the
    result's ``function``.  Expected rewards are ``inf`` on products that
    miss the target with positive probability; no closed form is emitted
    then, nor for a plain state formula.
    """
    prop = bind_check(prop, model.ap)
    started = time.perf_counter()
    result = FamilyResult(ENGINE_NAME, print_property(prop))
    outcomes = _TableCheck(DenseModel(model)).outcomes(prop)
    result.outcomes = {o.product: o for o in outcomes}
    if isinstance(prop, (Prob, RewardQuery)):
        # a plain state formula has no closed form, a probability never diverges
        diverging = isinstance(prop, RewardQuery) and [
            str(o.product) for o in outcomes if o.value == INFINITY
        ]
        if diverging:
            result.warnings.append(
                "expected reward is infinite for products " + ", ".join(diverging)
                + "; no closed form is emitted"
            )
        else:
            values = [o.value for o in outcomes]
            result.closed_form = lambda: RationalFunction(interpolate_family(values, model.diagram))
    result.elapsed = time.perf_counter() - started
    return result
