"""The exact lane domain both exact engines share (``engines/elimination.py``):
integer numerator and denominator tuples in lowest terms."""

import random
from fractions import Fraction
from math import gcd
from operator import add, mul

import pytest
from hypothesis import given, strategies as st

from featmc.engines import dense as dense_engine, enumerative
from featmc.engines.dense import DenseModel
from featmc.engines.elimination import RationalLanes, _rational_closure
from featmc.engines.enumerative import check_family_enumerative, check_product, until_values
from featmc.errors import ModelError
from featmc.models import project
from featmc.properties import parse_property
from featmc.rational import INFINITY, ONE, rational

from conftest import lane_rationals, random_fdtmc, rational_lanes


def _backend_rational(f: Fraction):
    return rational(f.numerator, f.denominator)


#: A random rational in the backend's type, 0 and 1 among them.
LANE_VALUE = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(1)), st.fractions(max_denominator=10**9)
).map(_backend_rational)
#: A random probability, as a self-loop is.
LOOP_VALUE = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(1)), st.fractions(0, 1, max_denominator=10**9)
).map(_backend_rational)


class TestRationalLanes:
    """:class:`RationalLanes` is the backend's rational arithmetic lane
    by lane, each lane in lowest terms with a positive denominator; a lane
    whose loop is 1 makes the closure singular."""

    @staticmethod
    def assert_lanes(got, want):
        assert lane_rationals(got) == list(want)
        assert all(type(v) is type(ONE) for v in lane_rationals(got))
        assert all(gcd(n, d) == 1 and d > 0 for n, d in zip(got.num, got.den))

    @given(st.data())
    def test_matches_rationals(self, data):
        width = data.draw(st.integers(1, 6))
        x, y, loop = (
            data.draw(st.lists(values, min_size=width, max_size=width))
            for values in (LANE_VALUE, LANE_VALUE, LOOP_VALUE)
        )
        a, b = rational_lanes(*x), rational_lanes(*y)
        self.assert_lanes(a + b, map(add, x, y))
        self.assert_lanes(a * b, map(mul, x, y))
        closure = _rational_closure
        if ONE in loop:
            with pytest.raises(ModelError, match="singular") as info:
                closure(rational_lanes(*loop))
            assert info.value.lane == loop.index(ONE)
        else:
            self.assert_lanes(closure(rational_lanes(*loop)), [ONE / (ONE - v) for v in loop])

    def test_family_values_equal_per_product(self, monkeypatch):
        """Random FDTMCs: an unbounded until, a nested one (solved at every
        undecided state) and a reward give each product :func:`check_product`'s
        value, of the backend's type, and every state of a nested until
        :func:`until_values`' value, while classes of several products
        solve on exact lanes."""
        widths = {}  # query -> widths of its exact lane solves
        query = None
        original = dense_engine.solve_linear

        def counted(unknowns, rows, *domain, **kwargs):
            if domain and isinstance(domain[1], RationalLanes):
                widths.setdefault(query, []).append(len(domain[1]))
            return original(unknowns, rows, *domain, **kwargs)

        monkeypatch.setattr(dense_engine, "solve_linear", counted)
        rng = random.Random(25)
        texts = ["P=?(!c U a)", "P=?(X P[>0.3](!c U a))", "R=?[F a]"]
        for _ in range(120):
            model = random_fdtmc(rng, max_states=6, max_features=4, with_rewards=True)
            products = model.diagram.valid_products()
            for query in texts:
                prop = parse_property(query)
                result = check_family_enumerative(model, prop)
                for product, outcome in result.outcomes.items():
                    expected = check_product(project(model, product), prop).value
                    assert outcome.value == expected
                    assert type(outcome.value) is type(expected)
                    if expected != INFINITY:
                        assert type(outcome.value) is type(ONE)
            query = "until_bounds"
            path = parse_property("P=?(!c U a)").path
            values, _ = enumerative._FamilyCheck(DenseModel(model), False).until_bounds(path)
            for i, product in enumerate(products):
                dtmc = project(model, product)
                expected = until_values(
                    dtmc, set(dtmc.states) - dtmc.states_with("c"), dtmc.states_with("a")
                )
                for s in dtmc.states:
                    assert values[s][i] == expected[s]
                    assert type(values[s][i]) is type(ONE)
        assert set(widths) == {*texts, "until_bounds"}
        assert all(len(w) >= 5 and max(w) >= 8 for w in widths.values())
