import random
import re

import pytest

from featmc.engines import dense as dense_engine, elimination, enumerative
from featmc.engines.elimination import EliminationGraph
from featmc.engines.enumerative import (
    SINK,
    _initial_value,
    bounded_until_values,
    check_dtmc,
    check_family_enumerative,
    check_product,
    expected_reward,
    expected_reward_float,
    next_values,
    solve_linear,
    until_state_partition,
    until_values,
    until_values_float,
)
from featmc.dsl import build_model, parse_model
from featmc.engines.bounded import check_family_bounded
from featmc.engines.dense import DenseModel
from featmc.engines.parametric import check_family_parametric
from featmc.errors import ModelError, UnboundFeatureError
from featmc.features import FeatureDiagram, Product, parse_feature_expression
from featmc.generators import gen_failure_recovery, gen_service_provider
from featmc.models import DTMC, FDTMC, project
from featmc.profiles import GuardedProfile, Profile, constant
from featmc.properties import RewardQuery, parse_property
from featmc.rational import INFINITY, ONE, ZERO, rational
from featmc.result import SAT, VIOLATED

from conftest import (
    lane_rationals,
    path_enumeration_until,
    random_fdtmc,
    rational_lanes,
    split_init,
    value_iteration_until,
)


# ---------------------------------------------------------------------------
# Reference: dense Gauss-Jordan over exact rationals
# ---------------------------------------------------------------------------


def _pivot_weight(value) -> int:
    """Smaller is better: prefer pivots with short numerator/denominator."""
    return value.numerator.bit_length() + value.denominator.bit_length()


def dense_solve(matrix: list[list], rhs: list) -> list:
    """Gaussian elimination with pivot selection; ModelError when singular."""
    n = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        candidates = [r for r in range(col, n) if aug[r][col] != 0]
        if not candidates:
            raise ModelError("singular linear system")
        pivot_row = min(candidates, key=lambda r: _pivot_weight(aug[r][col]))
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        if pivot != 1:
            aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _dense_system(dtmc, unknowns, rhs):
    """(I - P restricted to unknowns) x = rhs, solved densely."""
    index = {s: i for i, s in enumerate(unknowns)}
    n = len(unknowns)
    matrix = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for s in unknowns:
        for t, p in dtmc.out_edges(s):
            if t in index:
                matrix[index[s]][index[t]] -= p
    return dict(zip(unknowns, dense_solve(matrix, rhs))) if unknowns else {}


def reference_until_values(dtmc, sat1, sat2, wanted=None):
    """Values at every state, which covers any ``wanted`` states."""
    zero, one, unknown = until_state_partition(dtmc, sat1, sat2)
    values = {s: ONE if s in one else ZERO for s in dtmc.states}
    rhs = [
        sum((p for t, p in dtmc.out_edges(s) if t in one), ZERO) for s in unknown
    ]
    values.update(_dense_system(dtmc, unknown, rhs))
    return values


def reference_expected_reward(dtmc, targets):
    zero, one, unknown = until_state_partition(dtmc, set(dtmc.states), targets)
    values = {s: ZERO if s in one else INFINITY for s in dtmc.states}
    finite = [s for s in dtmc.states if s in one and s not in targets]
    rhs = [dtmc.rewards.get(s, ZERO) for s in finite]
    values.update(_dense_system(dtmc, finite, rhs))
    return values


def random_products(seed, count, **kwargs):
    """``count`` projected chains of random FDTMCs, a few products each."""
    rng = random.Random(seed)
    chains = []
    while len(chains) < count:
        m = random_fdtmc(rng, max_states=8, max_features=3, **kwargs)
        products = m.diagram.valid_products()
        for p in rng.sample(products, min(3, len(products))):
            chains.append(project(m, p))
    return chains


def operand_sets(chains):
    """Every chain with the states of each proposition as a target set."""
    return [(dtmc, dtmc.states_with(a)) for dtmc in chains for a in "abc"]


@pytest.fixture(scope="module")
def methane_base(minepump):
    base = Product(("W", "A", "V"), (False, False, False))
    return project(minepump.components["Methane"], base)


class TestCheckDtmc:
    def test_one_step_methane(self, methane_base):
        values = bounded_until_values(
            methane_base,
            set(methane_base.states),
            methane_base.states_with("methane"),
            1,
        )
        assert values["no_methane"] == rational("0.125")

    def test_two_step_eventually_methane(self, methane_base):
        values = bounded_until_values(
            methane_base,
            set(methane_base.states),
            methane_base.states_with("methane"),
            2,
        )
        # miss then hit, or hit immediately
        assert values["no_methane"] == rational("0.125") + rational("0.875") * rational("0.125")

    def test_target_state_is_one_at_any_bound(self, methane_base):
        for bound in (0, 1, 5):
            values = bounded_until_values(
                methane_base,
                set(methane_base.states),
                methane_base.states_with("methane"),
                bound,
            )
            assert values["methane"] == 1

    def test_unbounded_until_agrees_with_value_iteration(self):
        rng = random.Random(7)
        for _ in range(20):
            m = random_fdtmc(rng, max_states=6, max_features=3)
            for p in m.diagram.valid_products()[:4]:
                dtmc = project(m, p)
                sat1 = set(dtmc.states)
                sat2 = dtmc.states_with("a")
                exact = until_values(dtmc, sat1, sat2)
                approx = value_iteration_until(dtmc, sat1, sat2, steps=4000)
                eliminated = until_values_float(dtmc, sat1, sat2)
                for s in dtmc.states:
                    assert abs(float(exact[s]) - approx[s]) < 1e-9
                    assert abs(float(exact[s]) - eliminated[s]) < 1e-9

    def test_prob_zero_states_stay_zero_under_long_iteration(self):
        rng = random.Random(11)
        for _ in range(10):
            m = random_fdtmc(rng, max_states=6, max_features=2)
            p = m.diagram.valid_products()[0]
            dtmc = project(m, p)
            sat1 = dtmc.states_with("b") | dtmc.states_with("a")
            sat2 = dtmc.states_with("a")
            zero, one, unknown = until_state_partition(dtmc, sat1, sat2)
            iterated = value_iteration_until(dtmc, sat1, sat2, steps=10_000)
            for s in zero:
                assert iterated[s] < 1e-12

    def test_threshold_uses_exact_boundary_comparison(self, methane_base):
        result = check_dtmc(methane_base, parse_property("P[<=0.125](X methane)"))
        assert "no_methane" in result.sat
        strict = check_dtmc(methane_base, parse_property("P[<0.125](X methane)"))
        assert "no_methane" not in strict.sat

    def test_nested_formula(self, methane_base):
        # states whose next step certainly avoids methane: none, since the
        # methane state loops with 1/4 and no_methane erupts with 1/8
        result = check_dtmc(
            methane_base, parse_property("P[>=1](X !methane)")
        )
        assert result.sat == set()


class TestEliminationKernel:
    """The sparse elimination with back-substitution against the dense
    reference, at every state."""

    def test_until_values_match_dense_reference(self):
        self_loops = smaller_sat1 = 0
        for dtmc, sat2 in operand_sets(random_products(21, 60)):
            for sat1 in (set(dtmc.states), set(dtmc.states) - dtmc.states_with("c") | sat2):
                unknown = until_state_partition(dtmc, sat1, sat2)[2]
                self_loops += any((s, s) in dtmc.transitions for s in unknown)
                smaller_sat1 += len(sat1) < len(dtmc.states) and bool(unknown)
                assert until_values(dtmc, sat1, sat2) == \
                    reference_until_values(dtmc, sat1, sat2)
        assert self_loops >= 10 and smaller_sat1 >= 10

    def test_expected_reward_matches_dense_reference(self):
        zero_rewards = 0
        for dtmc, targets in operand_sets(random_products(22, 60, with_rewards=True)):
            finite = [
                s
                for s in until_state_partition(dtmc, set(dtmc.states), targets)[1]
                if s not in targets
            ]
            zero_rewards += any(dtmc.rewards.get(s, ZERO) == 0 for s in finite)
            assert expected_reward(dtmc, targets) == \
                reference_expected_reward(dtmc, targets)
        assert zero_rewards >= 10

    @pytest.mark.parametrize(
        "text",
        [
            "P[>=0.5](F P[>=0.9](X a))",
            "P[>=0.5](!c U P[>=0.5](X a))",
            "P=?(F P[<0.5](!c U a))",
        ],
    )
    def test_nested_operator_matches_dense_reference(self, text, monkeypatch):
        prop = parse_property(text)
        chains = random_products(23, 80)
        results = [check_dtmc(dtmc, prop) for dtmc in chains]
        fractional = sum(
            any(0 < v < 1 for v in result.values.values()) for result in results
        )
        assert fractional >= 4
        monkeypatch.setattr(enumerative, "until_values", reference_until_values)
        for dtmc, result in zip(chains, results):
            expected = check_dtmc(dtmc, prop)
            assert result.sat == expected.sat
            assert result.values == expected.values

    def test_loop_of_one_with_outgoing_mass_is_singular(self):
        graph = EliminationGraph(elimination._closure)
        graph.add("s", "s", ONE)
        graph.add("s", "t", rational(1, 2))
        with pytest.raises(ModelError, match="singular"):
            graph.eliminate("s")
        with pytest.raises(ModelError, match="singular"):
            solve_linear(["s"], [[("s", ONE), (SINK, rational(1, 2))]])

    def test_loop_of_one_without_outgoing_mass_is_zero(self):
        # s -> u -> s with probability 1: eliminating u leaves s a loop of 1
        values = solve_linear(["s", "u"], [[("u", ONE)], [("s", ONE)]])
        assert values == {"s": ZERO, "u": ZERO}

    def test_undefined_closure_drops_the_outgoing_edges(self):
        graph = EliminationGraph(lambda loop: None)
        graph.add("p", "s", ONE)
        graph.add("s", "s", ONE)
        graph.add("s", "t", rational(1, 2))
        assert graph.eliminate("s") == []
        assert edge_values(graph) == {}


def edge_values(graph):
    """The graph's edges keyed by ``(s, t)``, after checking that every
    predecessor set lists exactly the states with an edge into its node."""
    pairs = {(s, t): f for s, row in graph.succ.items() for t, f in row.items()}
    pred = {t: {s for (s, u) in pairs if u == t} for (_, t) in pairs}
    assert {t: preds for t, preds in graph.pred.items() if preds} == pred
    return pairs


def min_degree_reference(graph, order, protected=()):
    """The selection the heap replaces: a ``min`` over every remaining node
    by (degree, position in ``order``)."""
    index = {s: i for i, s in enumerate(order)}
    remaining = set(index) - set(protected)
    while remaining:
        v = min(remaining, key=lambda s: (graph.degree(s), index[s]))
        yield v, graph.eliminate(v)
        remaining.discard(v)


class TestEliminationOrder:
    """The lazy min-degree heap eliminates in exactly the order of a ``min``
    over the remaining nodes and reroutes the same successor lists."""

    @staticmethod
    def _graphs(edges, closure):
        graphs = []
        for _ in range(2):
            graph = EliminationGraph(closure)
            for s, t, f in edges:
                graph.add(s, t, f)
            graphs.append(graph)
        return graphs

    def test_random_graphs(self):
        rng = random.Random(11)
        protected_runs = loops = 0
        for _ in range(500):
            nodes = list(range(rng.randint(1, 12)))
            density = rng.choice((0.15, 0.3, 0.6))
            edges = [
                (s, t, rational(rng.randint(1, 4), 9))
                for s in nodes
                for t in nodes + ["sink"]
                if rng.random() < density
            ]
            protected = rng.sample(nodes, rng.randint(0, len(nodes) // 3))
            order = rng.sample(nodes, len(nodes))
            protected_runs += bool(protected)
            loops += any(s == t for s, t, _ in edges)
            # 1/(1+loop) never divides by zero on positive edge values
            heap_graph, min_graph = self._graphs(edges, lambda loop: ONE / (ONE + loop))
            assert list(heap_graph.run(order, protected)) == list(
                min_degree_reference(min_graph, order, protected)
            )
            assert edge_values(heap_graph) == edge_values(min_graph)
        assert protected_runs > 100 and loops > 100

    def test_service_until_system(self):
        model = build_model(gen_service_provider(4)).system
        dtmc = project(model, model.diagram.valid_products()[-1])
        _, unknowns, rows = enumerative._until_system(
            dtmc, set(dtmc.states), dtmc.states_with("failure")
        )
        assert len(unknowns) > 10
        edges = [(s, t, p) for s, row in zip(unknowns, rows) for t, p in row]
        heap_graph, min_graph = self._graphs(edges, elimination._closure)
        assert list(heap_graph.run(unknowns)) == list(
            min_degree_reference(min_graph, unknowns)
        )


class TestSingleSolve:
    """A solved operator makes one solve over every product of the family,
    one lane per product, however many structures its products' systems
    have.  Every product of service4 has a structure of its own."""

    @pytest.fixture(scope="class")
    def service4(self):
        return build_model(gen_service_provider(4)).system

    @staticmethod
    def _count_solves(monkeypatch):
        """The value domain (``closure``, ``one``) of every family
        solve_linear call (the shared system's, in ``engines/dense.py``)."""
        domains = []
        original = dense_engine.solve_linear

        def counted(unknowns, rows, *domain, **kwargs):
            domains.append(domain)
            return original(unknowns, rows, *domain, **kwargs)

        monkeypatch.setattr(dense_engine, "solve_linear", counted)
        return domains

    @pytest.mark.parametrize("float_mode", [False, True])
    def test_threshold(self, service4, monkeypatch, float_mode):
        domains = self._count_solves(monkeypatch)
        result = check_family_enumerative(service4, "P[<0.1](F failure)", float_mode)
        products = service4.diagram.valid_products()
        undecided = 0
        for product in products:
            dtmc = project(service4, product)
            unknown = until_state_partition(dtmc, set(dtmc.states), dtmc.states_with("failure"))[2]
            undecided += any(s in unknown for s in dtmc.init)
        assert undecided >= len(products) - 1
        assert len(domains) == 1
        closure, lanes = domains[0]
        kind = enumerative.Lanes if float_mode else enumerative.RationalLanes
        assert isinstance(lanes, kind) and len(lanes) == len(products)
        decisions = {o.decision for o in result.outcomes.values()}
        assert decisions == {SAT, VIOLATED}

    def test_nested_threshold(self, service4, monkeypatch):
        products = service4.diagram.valid_products()
        expected = {}
        for product in products:
            dtmc = project(service4, product)
            inner = until_values(dtmc, set(dtmc.states), dtmc.states_with("failure"))
            sat = {s for s, v in inner.items() if v > rational(1, 10)}
            step = next_values(dtmc, sat)
            value = sum((w * step[s] for s, w in dtmc.init.items()), ZERO)
            expected[product] = SAT if value < rational(1, 2) else VIOLATED
        assert set(expected.values()) == {SAT, VIOLATED}
        domains = self._count_solves(monkeypatch)
        result = check_family_enumerative(service4, "P[<0.5](X P[>0.1](F failure))")
        assert [len(domain[1]) for domain in domains] == [len(products)]
        assert {p: o.decision for p, o in result.outcomes.items()} == expected

    @pytest.mark.parametrize("float_mode", [False, True])
    @pytest.mark.parametrize(
        "name, query", [("wiper", "finishes"), ("minepump", "risk_value"), ("wiper", "energy")]
    )
    def test_decided_query_reads_no_edge_value(
        self, request, monkeypatch, name, query, float_mode
    ):
        """The prob0/prob1 partition decides every state and product of
        wiper ``finishes`` and minepump ``risk_value``, so no class solves
        and no edge value is read: neither a profile's per-product vector
        (``Profile.dense_values``) nor ``DenseModel.edge_lanes``.  Wiper
        ``energy`` solves, and reads."""
        model = request.getfixturevalue(name)
        reads = []

        def counted(label, read):
            def wrapper(self, *args):
                reads.append(label)
                return read(self, *args)

            return wrapper

        monkeypatch.setattr(Profile, "dense_values", counted("dense_values", Profile.dense_values))
        monkeypatch.setattr(DenseModel, "edge_lanes", counted("edge_lanes", DenseModel.edge_lanes))
        domains = self._count_solves(monkeypatch)
        result = check_family_enumerative(model.system, model.property_of(query), float_mode)
        assert len(result.outcomes) == len(model.diagram.valid_products())
        if query == "energy":
            assert domains and reads
        else:
            assert domains == [] and reads == []


class TestStructureClasses:
    """Products share one elimination on lanes
    (:class:`enumerative.RationalLanes`, :class:`enumerative.Lanes` in
    float64) whether or not their systems share a structure, and each lane
    is still its product's own solve: the values equal
    :func:`check_product`'s."""

    @pytest.fixture(scope="class")
    def failure5(self):
        return build_model(gen_failure_recovery(5)).system

    @staticmethod
    def per_product(model, text, float_mode):
        prop = parse_property(text)
        return {
            p: check_product(project(model, p), prop, float_mode).value
            for p in model.diagram.valid_products()
        }

    @pytest.mark.parametrize("float_mode", [False, True])
    def test_one_class(self, failure5, monkeypatch, float_mode):
        domains = TestSingleSolve._count_solves(monkeypatch)
        result = check_family_enumerative(failure5, "P=?(F failure)", float_mode)
        assert len(domains) == 1
        lanes = enumerative.Lanes if float_mode else enumerative.RationalLanes
        assert isinstance(domains[0][1], lanes)
        assert len(domains[0][1]) == len(result.outcomes) == 32
        values = {p: o.value for p, o in result.outcomes.items()}
        assert values == self.per_product(failure5, "P=?(F failure)", float_mode)

    @pytest.mark.parametrize("float_mode", [False, True])
    def test_rewards_split_the_class(self, failure5, monkeypatch, float_mode):
        """deg2 earns nothing on the products with f1, so its reward entry
        is masked to half the lanes of the one solve."""
        d = failure5.diagram
        rewards = {s: constant(ONE, d) for s in failure5.states}
        rewards["deg2"] = GuardedProfile(d, [(parse_feature_expression("f1"), ZERO)], ONE)
        model = FDTMC(
            failure5.states,
            failure5.init,
            d,
            failure5.transitions,
            failure5.ap,
            failure5.labels,
            rewards,
        )
        text = "R=?[F (failure | worn)]"
        domains = TestSingleSolve._count_solves(monkeypatch)
        result = check_family_enumerative(model, text, float_mode)
        assert [len(domain[1]) for domain in domains] == [32]
        values = {p: o.value for p, o in result.outcomes.items()}
        assert len(set(values.values())) == 32
        assert values == self.per_product(model, text, float_mode)

    def test_empty_lane_is_zero(self):
        """In both lane domains: the float64 one and the exact one."""
        domains = [
            (lambda *v: enumerative.Lanes(v), list),
            (rational_lanes, lane_rationals),
        ]
        for lanes, read in domains:
            a, b = lanes(ONE, 2), lanes()
            assert read(a + b) == read(a) == [1, 2] and read(b + a) == read(a)
            assert read(a * b) == read(b) == read(b * a) == []
            assert read(a * a) == [ONE, 4] and read(a + a) == [2, 4]

    @pytest.mark.parametrize("float_mode", [False, True])
    def test_no_outgoing_mass_is_zero(self, float_mode):
        """a earns nothing and its only kept edge is its loop, so it has
        no mass left to reroute and its lane comes back empty."""
        d = FeatureDiagram(("f",))
        guard = parse_feature_expression("f")
        quarter = rational(1, 4)
        model = FDTMC(
            ("a", "goal"),
            "a",
            d,
            {
                ("a", "a"): GuardedProfile(d, [(guard, 2 * quarter)], quarter),
                ("a", "goal"): GuardedProfile(d, [(guard, 2 * quarter)], 3 * quarter),
                ("goal", "goal"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
            {"a": constant(ZERO, d), "goal": constant(ONE, d)},
        )
        result = check_family_enumerative(model, "R=?[F goal]", float_mode)
        values = [o.value for o in result.outcomes.values()]
        assert values == [0, 0]
        assert values == list(self.per_product(model, "R=?[F goal]", float_mode).values())


class TestUnionMasking:
    """The one solve over the union structure masks each entry to the
    products whose row holds it.  At m, {} leaves m unknown, {f} and {f,g}
    make it prob1, so a's edge into m is a successor entry for one product
    and a sink entry for two, and {g} makes it prob0 with a self-loop of 1,
    a lane that must not read as singular."""

    MODEL = """features f g;

fdtmc Three {
  states a m goal trap;
  init a;
  label goal: goal;
  label trap: trap;

  a -> m    : 1/2;
  a -> a    : [g] 1/4, 1/8;
  a -> goal : [g] 1/8, 1/4;
  a -> trap : 1/8;
  m -> m    : [f] 0, [g] 1, 1/3;
  m -> goal : [f] 1, [g] 0, 1/3;
  m -> a    : [f] 0, [g] 0, 1/3;
  goal -> goal : 1;
  trap -> trap : 1;

  reward a : [f] 2, 1;
  reward m : [g] 3, 5;
}

system = Three;
"""

    #: each unbounded operator solves once, on four lanes; a reward is
    #: infinite on {g}, and the last one's target holds a, the initial
    #: state, on {f} alone
    QUERIES = [
        "P=?(F goal)",
        "P[>=0.6](F goal)",
        "P=?(F P[>0.5](F goal))",
        "R=?[F (goal | trap)]",
        "R=?[F (trap | P[>0.85](F goal))]",
    ]

    @pytest.mark.parametrize("float_mode", [False, True])
    @pytest.mark.parametrize("text", QUERIES)
    def test_values_equal_each_product(self, monkeypatch, text, float_mode):
        model = parse_model(self.MODEL).system
        products = model.diagram.valid_products()
        prop = parse_property(text)
        domains = TestSingleSolve._count_solves(monkeypatch)
        result = check_family_enumerative(model, prop, float_mode)
        assert [len(domain[1]) for domain in domains] == [4] * text.count("F ")
        for product in products:
            own = check_product(project(model, product), prop, float_mode)
            outcome = result.outcomes[product]
            assert (outcome.value, outcome.decision) == (own.value, own.decision)
        if text.startswith("R"):
            assert [str(p) for p, o in result.outcomes.items() if o.value == INFINITY] == ["{g}"]

    def test_rounded_loop_names_its_product(self, monkeypatch):
        """Only {f,g}'s loop rounds to 1 in float64; {} decides s, and {g}
        and {f} have systems of their own structures.  The one solve runs
        a lane per product, so the singular lane's index is the index of
        {f,g} among all products."""
        model = parse_model(
            """features f g;
fdtmc S {
  states s goal trap;
  init s;
  label goal: goal;
  s -> s    : [f & g] 1152921504606846974/1152921504606846976, [f] 1/2, [g] 1/2, 0;
  s -> goal : [f & g] 1/1152921504606846976, [f] 1/4, [g] 1/2, 1;
  s -> trap : [f & g] 1/1152921504606846976, [f] 1/4, 0;
  goal -> goal : 1;
  trap -> trap : 1;
}
system = S;
"""
        ).system
        products = model.diagram.valid_products()
        rounded = next(p for p in products if p["f"] and p["g"])
        domains = TestSingleSolve._count_solves(monkeypatch)
        with pytest.raises(ModelError, match=rf"^product {re.escape(str(rounded))}: float64") as info:
            check_family_enumerative(model, "P=?(F goal)", float_mode=True)
        assert [len(domain[1]) for domain in domains] == [4]
        assert info.value.lane == products.index(rounded) == 3
        exact = check_family_enumerative(model, "P=?(F goal)")
        assert exact.outcomes[rounded].value == rational(1, 2)


def with_split_init(chains, seed):
    """Each chain, then the same chain started from up to three random
    states: the first with weight 0, the others sharing weight 1."""
    rng = random.Random(seed)
    out = []
    for dtmc in chains:
        starts = rng.sample(dtmc.states, min(3, len(dtmc.states)))
        weight = ONE / (len(starts) - 1)
        init = {starts[0]: ZERO, **{s: weight for s in starts[1:]}}
        out.append(dtmc)
        out.append(DTMC(dtmc.states, init, dtmc.transitions, dtmc.labels, dtmc.rewards))
    return out


def forward_cone(dtmc, states, starts):
    """The states reachable from ``starts`` through ``states`` only."""
    reached = set(starts) & set(states)
    work = list(reached)
    while work:
        for t, _ in dtmc.out_edges(work.pop()):
            if t in states and t not in reached:
                reached.add(t)
                work.append(t)
    return reached


class TestInitOnly:
    """A top-level query solves at the positive-weight initial states only
    and gets the value an every-state solve gives there."""

    #: (property, proposition its constraint excludes, target proposition)
    UNTIL = [
        ("P=?(F a)", None, "a"),
        ("P=?(!c U a)", "c", "a"),
        ("P[>=0.3](F b)", None, "b"),
        ("P[<0.6](!c U a)", "c", "a"),
    ]

    @staticmethod
    def _close(value, expected):
        return value == expected or abs(value - expected) <= 1e-12

    @pytest.mark.parametrize("with_rewards", [False, True])
    def test_until_equals_every_state(self, with_rewards):
        chains = with_split_init(random_products(41, 60, with_rewards=with_rewards), 42)
        smaller = 0
        for text, excluded, target in self.UNTIL:
            prop = parse_property(text)
            for dtmc in chains:
                sat1 = set(dtmc.states) - (dtmc.states_with(excluded) if excluded else set())
                sat2 = dtmc.states_with(target)
                unknown = until_state_partition(dtmc, sat1, sat2)[2]
                starts = [s for s, w in dtmc.init.items() if w]
                smaller += len(forward_cone(dtmc, unknown, starts)) < len(unknown)
                exact = _initial_value(dtmc, until_values(dtmc, sat1, sat2))
                approx = _initial_value(dtmc, until_values_float(dtmc, sat1, sat2))
                outcome = check_product(dtmc, prop)
                float_outcome = check_product(dtmc, prop, float_mode=True)
                assert outcome.value == exact
                assert self._close(float_outcome.value, approx)
                if prop.interval is not None:
                    assert outcome.decision == (SAT if prop.interval.contains(exact) else VIOLATED)
                    assert float_outcome.decision == (
                        SAT if prop.interval.contains(approx) else VIOLATED
                    )
        assert smaller >= 20

    def test_reward_equals_every_state(self):
        chains = with_split_init(random_products(43, 100, with_rewards=True), 44)
        prop = parse_property("R=?[F a]")
        infinite = zero_weight_infinite = 0
        for dtmc in chains:
            targets = dtmc.states_with("a")
            every = expected_reward(dtmc, targets)
            exact = _initial_value(dtmc, every)
            assert check_product(dtmc, prop).value == exact
            value = check_product(dtmc, prop, float_mode=True).value
            assert self._close(value, _initial_value(dtmc, expected_reward_float(dtmc, targets)))
            infinite += exact == INFINITY
            zero_weight_infinite += exact != INFINITY and any(
                every[s] == INFINITY for s, w in dtmc.init.items() if not w
            )
        assert infinite >= 10 and zero_weight_infinite >= 3

    def test_service_graph_holds_only_the_init_cone(self, monkeypatch):
        """One graph for the family, the union of the products' init cones:
        product i's lane is nonzero at a state exactly where the state is in
        product i's cone."""
        model = build_model(gen_service_provider(4)).system
        states = set(model.states)
        graphs = []

        class Recording(EliminationGraph):
            def __init__(self, closure):
                super().__init__(closure)
                graphs.append(set())

            def add(self, s, t, f):
                if s in states:  # not an entry unknown
                    graphs[-1].update((s, i) for i, num in enumerate(f.num) if num)
                super().add(s, t, f)

        monkeypatch.setattr(elimination, "EliminationGraph", Recording)
        check_family_enumerative(model, "P=?(F failure)")
        cones, unknowns = set(), set()
        smaller = 0
        for i, product in enumerate(model.diagram.valid_products()):
            dtmc = project(model, product)
            unknown = until_state_partition(dtmc, set(dtmc.states), dtmc.states_with("failure"))[2]
            cone = forward_cone(dtmc, unknown, list(dtmc.init))
            cones.update((s, i) for s in cone)
            unknowns.update((s, i) for s in unknown)
            smaller += len(cone) < len(unknown)
        assert graphs == [cones]
        assert len(cones) < len(unknowns)
        assert smaller >= 10


class TestWeightZeroInit:
    """A weight-0 initial state with an infinite reward adds nothing."""

    MODEL = """
fdtmc M {
  states a b t;
  init a [1], b [0];
  label t: done;
  a -> t : 1;
  b -> b : 1;
  t -> t : 1;
  reward a : 2;
}

system = M;
"""

    def test_engines_agree(self):
        model = parse_model(self.MODEL).system
        prop = "R=?[F done]"
        for result in (
            check_family_enumerative(model, prop),
            check_family_enumerative(model, prop, float_mode=True),
            check_family_parametric(model, prop),
        ):
            assert [o.value for o in result.outcomes.values()] == [2]
        bounded = check_family_bounded(model, prop)
        for outcome in bounded.outcomes.values():
            assert abs(outcome.value - 2) <= outcome.error_bound


class TestFamilyAgreement:
    """The family path gives every product the outcome that check_product
    gives its projected chain: the same value, exact or float64 bit for
    bit, of the same type, and the same decision."""

    RANDOM = [
        "P=?(F a)",
        "P[>=0.3](!c U a)",
        "R=?[F a]",
        "P=?(X a)",
        "P[<0.5](b U<=3 a)",
        "P[<0.5](X P[>0.1](F a))",
        "P=?(F P[<0.5](!c U a))",
        "P=?(b U<=2 P[>0.2](F c))",
        "!a & P[>=0.5](F P[>=0.9](X c))",
    ]
    BUNDLED = {
        "wiper": [
            "R=?[F end]",
            "P[>=1](F end)",
            "P=?(X fastmode)",
            "P=?(true U<=4 end)",
            "P[<0.5](X P[>0.9](!wiping U end))",
        ],
        "minepump": [
            "P=?(X methane)",
            "P[<0.1](F (pumpOn & methane))",
            "P=?(true U<=5 methane)",
            "P[>0.5](X P[>0.01](F (pumpOn & methane)))",
        ],
        "service4": [
            "P=?(F failure)",
            "P[<0.1](F failure)",
            "P=?(true U<=10 failure)",
            "P[<0.5](X P[>0.1](F failure))",
        ],
    }

    @staticmethod
    def agree(model, prop) -> list:
        """Assert agreement in exact and float mode; the exact outcomes."""
        for float_mode in (True, False):
            family = check_family_enumerative(model, prop, float_mode)
            assert list(family.outcomes) == list(model.diagram.valid_products())
            for product, outcome in family.outcomes.items():
                expected = check_product(project(model, product), prop, float_mode)
                assert type(outcome.value) is type(expected.value)
                assert repr(outcome.value) == repr(expected.value)
                assert outcome.decision == expected.decision
        return list(family.outcomes.values())

    def test_random_models(self):
        rng = random.Random(61)
        models = []
        for k in range(30):
            model = random_fdtmc(rng, max_states=7, max_features=3, with_rewards=True)
            models += [model, split_init(model, k)]
        infinite = finite = fractional = 0
        for text in self.RANDOM:
            prop = parse_property(text)
            for model in models:
                values = [o.value for o in self.agree(model, prop)]
                if isinstance(prop, RewardQuery):
                    infinite += values.count(INFINITY)
                    finite += len(values) - values.count(INFINITY)
                fractional += sum(v is not None and 0 < v < 1 for v in values)
        assert infinite >= 20 and finite >= 20 and fractional >= 100

    def test_family_path_reads_no_initial_value(self, monkeypatch):
        """At a split initial distribution the family path aggregates in
        the shared answer layer, never per product through the per-chain
        reference's ``_initial_value``, and still agrees with it."""
        rng = random.Random(61)
        models = [
            split_init(random_fdtmc(rng, max_states=7, max_features=3, with_rewards=True), k)
            for k in range(30)
        ]

        def refuse(*args):
            raise AssertionError("the family path called _initial_value")

        family = {}
        with monkeypatch.context() as patch:
            patch.setattr(enumerative, "_initial_value", refuse)
            for text in self.RANDOM:
                for k, model in enumerate(models):
                    for float_mode in (False, True):
                        result = check_family_enumerative(model, text, float_mode)
                        family[text, k, float_mode] = result
        for (text, k, float_mode), result in family.items():
            prop = parse_property(text)
            for product, outcome in result.outcomes.items():
                expected = check_product(project(models[k], product), prop, float_mode)
                assert type(outcome.value) is type(expected.value)
                assert repr(outcome.value) == repr(expected.value)
                assert outcome.decision == expected.decision

    def test_weight_zero_init_with_infinite_reward(self):
        model = parse_model(TestWeightZeroInit.MODEL).system
        assert [o.value for o in self.agree(model, parse_property("R=?[F done]"))] == [2]

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled_models(self, name, wiper, minepump):
        model = {
            "wiper": wiper.system,
            "minepump": minepump.system,
            "service4": build_model(gen_service_provider(4)).system,
        }[name]
        for text in self.BUNDLED[name]:
            self.agree(model, parse_property(text))


class TestExpectedReward:
    def test_wiper_base_energy(self, wiper):
        base = wiper.diagram.valid_products()[0]
        dtmc = project(wiper.system, base)
        values = expected_reward(dtmc, dtmc.states_with("end"))
        assert values["off"] == 15

    def test_zero_rewards_give_zero(self):
        d = FeatureDiagram(())
        m = FDTMC(
            ("a", "b"),
            "a",
            d,
            {
                ("a", "b"): constant(ONE, d),
                ("b", "b"): constant(ONE, d),
            },
            ("goal",),
            {"b": ("goal",)},
            rewards={"a": constant(ZERO, d), "b": constant(ZERO, d)},
        )
        dtmc = project(m, d.valid_products()[0])
        assert expected_reward(dtmc, dtmc.states_with("goal"))["a"] == 0

    def test_unreachable_target_is_infinite(self):
        d = FeatureDiagram(())
        m = FDTMC(
            ("a", "trap", "goal"),
            "a",
            d,
            {
                ("a", "trap"): constant(rational("0.5"), d),
                ("a", "goal"): constant(rational("0.5"), d),
                ("trap", "trap"): constant(ONE, d),
                ("goal", "goal"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
            rewards={"a": constant(ONE, d)},
        )
        dtmc = project(m, d.valid_products()[0])
        values = expected_reward(dtmc, dtmc.states_with("goal"))
        assert values["a"] == INFINITY
        assert values["trap"] == INFINITY
        assert values["goal"] == 0


class TestFamily:
    def test_wiper_energy_values(self, wiper):
        result = check_family_enumerative(wiper.system, "R=?[F end]")
        by_label = {str(p): o.value for p, o in result.outcomes.items()}
        assert by_label["{spd2,very}"] == rational("26.25")
        assert by_label["{spd2,very,eco}"] == rational("17.5")
        assert by_label["{}"] == 15

    def test_single_product_diagram_matches_check_dtmc(self):
        rng = random.Random(3)
        m = random_fdtmc(rng, max_states=5, max_features=1)
        single = FDTMC(
            m.states,
            m.init,
            FeatureDiagram(()),
            {k: constant(v.evaluate(m.diagram.valid_products()[0]), FeatureDiagram(()))
             for k, v in m.transitions.items()},
            m.ap,
            m.labels,
        )
        prop = parse_property("P=?(F a)")
        family = check_family_enumerative(single, prop)
        dtmc = project(single, FeatureDiagram(()).valid_products()[0])
        direct = check_dtmc(dtmc, prop)
        expected = sum(
            (w * direct.values[s] for s, w in dtmc.init.items()), ZERO
        )
        assert list(family.outcomes.values())[0].value == expected

    def test_product_error_keeps_type_and_fields(self, wiper, monkeypatch):
        def raise_unbound(*args, **kwargs):
            raise UnboundFeatureError("x")

        monkeypatch.setattr(dense_engine, "solve_linear", raise_unbound)
        with pytest.raises(UnboundFeatureError) as info:
            check_family_enumerative(wiper.system, "R=?[F end]")
        assert info.value.name == "x"
        first = wiper.diagram.valid_products()[0]
        assert str(info.value).startswith(f"product {first}: ")

    def test_thresholds_decided_per_product(self, minepump):
        result = check_family_enumerative(
            minepump.system, minepump.property_of("pump_risk")
        )
        for p, o in result.outcomes.items():
            assert o.decision == (VIOLATED if p["W"] else SAT)

    def test_bounded_values_increase_to_unbounded(self):
        rng = random.Random(5)
        m = random_fdtmc(rng, max_states=6, max_features=2)
        p = m.diagram.valid_products()[-1]
        dtmc = project(m, p)
        sat1, sat2 = set(dtmc.states), dtmc.states_with("a")
        exact = until_values(dtmc, sat1, sat2)
        previous = {s: ZERO for s in dtmc.states}
        for k in range(8):
            bounded = bounded_until_values(dtmc, sat1, sat2, k)
            for s in dtmc.states:
                assert previous[s] <= bounded[s] <= exact[s]
            previous = bounded

    def test_bounded_until_matches_path_enumeration(self):
        rng = random.Random(9)
        for _ in range(10):
            m = random_fdtmc(rng, max_states=5, max_features=2)
            p = rng.choice(m.diagram.valid_products())
            dtmc = project(m, p)
            sat1 = dtmc.states_with("b") | dtmc.states_with("a")
            sat2 = dtmc.states_with("a")
            for bound in (0, 1, 3):
                assert bounded_until_values(dtmc, sat1, sat2, bound) == \
                    path_enumeration_until(dtmc, sat1, sat2, bound)


class TestFloatMode:
    def test_matches_exact_within_tolerance(self, wiper):
        exact = check_family_enumerative(wiper.system, "R=?[F end]")
        approx = check_family_enumerative(
            wiper.system, "R=?[F end]", float_mode=True
        )
        for p in wiper.diagram.valid_products():
            assert abs(float(exact.outcomes[p].value) - approx.outcomes[p].value) < 1e-12

    def test_until_float_iteration(self, minepump):
        exact = check_family_enumerative(minepump.system, "P=?(F (pumpOn & methane))")
        approx = check_family_enumerative(
            minepump.system, "P=?(F (pumpOn & methane))", float_mode=True
        )
        for p in minepump.diagram.valid_products():
            assert abs(float(exact.outcomes[p].value) - approx.outcomes[p].value) < 1e-12

    def test_missing_rewards_is_one_model_wide_error(self, wiper):
        """A model without rewards is no one product's fault: every engine,
        exact and float, raises the same error with no product prefix."""
        no_rewards = FDTMC(
            wiper.system.states,
            wiper.system.init,
            wiper.system.diagram,
            wiper.system.transitions,
            wiper.system.ap,
            wiper.system.labels,
        )
        checks = (
            check_family_enumerative,
            lambda m, p: check_family_enumerative(m, p, float_mode=True),
            check_family_parametric,
            check_family_bounded,
        )
        for check in checks:
            with pytest.raises(ModelError) as err:
                check(no_rewards, "R=?[F end]")
            assert str(err.value) == "model has no rewards"


class TestFloatSlowChains:
    """A self-loop of 1 - 1e-6 would take millions of value-iteration sweeps;
    float mode eliminates it directly.  A loop that rounds to 1 in float64
    has no float answer and raises."""

    @staticmethod
    def slow_family(leak=ZERO, step=rational(1, 10**6)):
        """s stays with 1 - step - leak, reaches goal with ``step`` and leaks
        into an absorbing trap with ``leak``."""
        d = FeatureDiagram(())
        transitions = {
            ("s", "s"): constant(ONE - step - leak, d),
            ("s", "goal"): constant(step, d),
            ("goal", "goal"): constant(ONE, d),
            ("trap", "trap"): constant(ONE, d),
        }
        if leak:
            transitions[("s", "trap")] = constant(leak, d)
        return FDTMC(
            ("s", "goal", "trap"),
            "s",
            d,
            transitions,
            ("goal",),
            {"goal": ("goal",)},
            rewards={"s": constant(ONE, d)},
        )

    def slow_chain(self, **kwargs):
        m = self.slow_family(**kwargs)
        return project(m, m.diagram.valid_products()[0])

    def test_reward(self):
        values = expected_reward_float(self.slow_chain(), {"goal"})
        assert values["s"] == pytest.approx(1e6, rel=1e-9)

    def test_leaking_until(self):
        # the leak keeps s out of the certain-one set, so it is solved for
        dtmc = self.slow_chain(leak=rational(1, 10**6))
        values = until_values_float(dtmc, set(dtmc.states), {"goal"})
        assert values["s"] == pytest.approx(0.5, rel=1e-9)

    #: exact value 1/2, but the loop 1 - 2**-59 rounds to 1.0 in float64
    ROUNDED = {"leak": rational(1, 2**60), "step": rational(1, 2**60)}

    def test_loop_rounded_to_one_raises(self):
        dtmc = self.slow_chain(**self.ROUNDED)
        assert until_values(dtmc, set(dtmc.states), {"goal"})["s"] == rational(1, 2)
        with pytest.raises(ModelError, match="float64 rounding"):
            until_values_float(dtmc, set(dtmc.states), {"goal"})

    def test_family_check_keeps_the_product(self):
        with pytest.raises(ModelError, match=r"^product \{\}: float64 rounding"):
            check_family_enumerative(
                self.slow_family(**self.ROUNDED), "P=?(F goal)", float_mode=True
            )

    def test_lane_error_names_its_product(self, monkeypatch):
        """Two products with one structure: only the second one's loop
        rounds to 1, and the error names it, not the first of its class."""
        d = FeatureDiagram(("f",))
        second = d.valid_products()[1]
        guard = parse_feature_expression("f" if second["f"] else "!f")
        step, leak, tenth = self.ROUNDED["step"], self.ROUNDED["leak"], rational(1, 10)

        def profile(first, rounded):
            return GuardedProfile(d, [(guard, rounded)], first)

        model = FDTMC(
            ("s", "goal", "trap"),
            "s",
            d,
            {
                ("s", "s"): profile(ONE - 2 * tenth, ONE - step - leak),
                ("s", "goal"): profile(tenth, step),
                ("s", "trap"): profile(tenth, leak),
                ("goal", "goal"): constant(ONE, d),
                ("trap", "trap"): constant(ONE, d),
            },
            ("goal",),
            {"goal": ("goal",)},
        )
        prefix = re.escape(f"product {second}: float64 rounding")
        domains = TestSingleSolve._count_solves(monkeypatch)
        with pytest.raises(ModelError, match=f"^{prefix}") as info:
            check_family_enumerative(model, "P=?(F goal)", float_mode=True)
        # one solve on two lanes; the error records the lane, so no rerun
        assert [len(domain[1]) for domain in domains] == [2]
        assert info.value.lane == 1
        domains.clear()
        exact = check_family_enumerative(model, "P=?(F goal)")
        assert [len(domain[1]) for domain in domains] == [2]
        assert isinstance(domains[0][1], enumerative.RationalLanes)
        assert {o.value for o in exact.outcomes.values()} == {rational(1, 2)}

    def test_lane_error_names_a_failing_product(self):
        """Both products of one class have a loop that rounds to 1, {f} at
        s and {} at u.  Every state's solve stops at the first singular
        lane the shared elimination meets, and the product it names fails
        on its own chain too."""
        tiny, loop = "1/1152921504606846976", "1152921504606846974/1152921504606846976"
        model = parse_model(
            f"""features f;
fdtmc S {{
  states s u goal trap;
  init s;
  label goal: goal;
  s -> s : [f] {loop}, 1/2;
  s -> u : [f] 2/1152921504606846976, 1/2;
  u -> u : [f] 1/2, {loop};
  u -> goal : [f] 1/4, {tiny};
  u -> trap : [f] 1/4, {tiny};
  goal -> goal : 1;
  trap -> trap : 1;
}}
system = S;
"""
        ).system
        prop = "P=?(X P[>0.1](F goal))"
        with pytest.raises(ModelError, match=r"^product \{f?\}: float64") as info:
            check_family_enumerative(model, prop, float_mode=True)
        named = str(info.value).split(":")[0].removeprefix("product ")
        product = next(p for p in model.diagram.valid_products() if str(p) == named)
        with pytest.raises(ModelError, match="^float64 rounding"):
            check_product(project(model, product), parse_property(prop), float_mode=True)
