"""The qualitative layer all three engines share (``engines/dense.py``)."""

import itertools
import random

import pytest

from featmc.dsl import build_model
from featmc.engines.bounded import sat_states
from featmc.engines.dense import DenseModel, satisfaction
from featmc.engines.enumerative import _FamilyCheck
from featmc.engines.parametric import check_family_parametric
from featmc.generators import gen_service_provider
from featmc.profiles import DenseProfile, GuardedProfile
from featmc.properties import parse_property
from featmc.rational import rational

from conftest import random_fdtmc


class TestSharedWalker:
    FORMULAS = (
        "!(a & !c)",
        "P[>=0.5](F P[<0.3](X a))",
        "P[<0.5](b U P[>0.2](F a))",
        "P[>0.1](X !P[<0.5](F a))",
        "!P[<0.5](F a) & b",
        "P[>=0.5](a U<=2 !b)",
    )

    def test_exact_entries_lie_inside_bounded_ones(self):
        """The enumerative engine's entries are exact (lo == hi) and lie
        inside the bounded engine's [lo, hi]; where the bounded engine
        decided, both are the same."""
        rng = random.Random(63)
        decided = undecided = 0
        for _ in range(40):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            dense = DenseModel(m)
            for text, epsilon in itertools.product(self.FORMULAS, ("1/2", "1/1000")):
                formula = parse_property(text)
                check = _FamilyCheck(dense, float_mode=False)
                check.sat(formula)
                bounded = sat_states(dense, formula, rational(epsilon))
                assert bounded.keys() == check.entries.keys()
                for f, entry in bounded.items():
                    exact = check.entries[f]
                    assert exact.lo == exact.hi
                    for s in dense.states:
                        assert entry.lo[s] & ~exact.lo[s] == 0, (text, f, s)
                        assert exact.lo[s] & ~entry.hi[s] == 0, (text, f, s)
                    if entry.decided():
                        assert exact == entry
                        decided += 1
                    else:
                        undecided += 1
        assert decided and undecided


@pytest.mark.parametrize(
    "name, formula", [("wiper", "!end & fastmode"), ("minepump", "pumpOn & !methane")]
)
def test_edges_are_read_on_first_use(request, monkeypatch, name, formula):
    """Building a DenseModel and walking propositional formulas evaluates
    no profile; the first read of ``edges`` evaluates each transition's
    profile once."""
    model = request.getfixturevalue(name).system
    profile_reads = []
    for cls in (GuardedProfile, DenseProfile):
        original = cls.dense_values

        def counted(self, original=original):
            profile_reads.append(self)
            return original(self)

        monkeypatch.setattr(cls, "dense_values", counted)
    dense = DenseModel(model)
    satisfaction(dense, parse_property(formula), None, {})
    assert profile_reads == []
    check_family_parametric(model, formula)  # a plain formula reads no vector
    assert profile_reads == []
    assert sum(map(len, dense.edges.values())) == len(model.transitions)
    assert len(profile_reads) == len(model.transitions)
    assert dense.succ.keys() == dense.groups.keys() == set(model.states)
    assert len(profile_reads) == len(model.transitions)


@pytest.mark.parametrize("name, prop", [("wiper", "energy"), ("service4", "fail_value")])
def test_unbounded_parametric_queries_build_no_edge_vectors(request, monkeypatch, name, prop):
    """An unbounded parametric ``R=?`` or ``P=?`` solves over support
    tables and takes its cones' masks from the profiles' groups, so it
    never expands an edge to per-product vectors."""
    if name == "wiper":
        built = request.getfixturevalue("wiper")
    else:
        built = build_model(gen_service_provider(4))

    def edges(self):
        raise AssertionError("DenseModel.edges was built")

    monkeypatch.setattr(DenseModel, "edges", property(edges))
    result = check_family_parametric(built.system, built.properties[prop])
    assert len(result.outcomes) == len(built.system.diagram.valid_products())
