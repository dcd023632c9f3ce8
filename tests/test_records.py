"""The record classes behave as the dataclasses they replaced."""

from fractions import Fraction

import pytest

from featmc.dsl import Complete, ModelFile, Ref
from featmc.engines.dense import SatEntry
from featmc.errors import ParseError
from featmc.features import FAnd, FNot, FOr, FTrue, FVar, Product
from featmc.models import ActionLabel, ValidationReport
from featmc.properties import Atom, Interval, Next, PAnd, PNot, Prob, PTrue, RewardQuery, Until
from featmc.records import field, record
from featmc.result import FamilyResult, ProductOutcome


def _model_file(header=""):
    return ModelFile(("f",), (), (), Ref("A"), (("p", "P=?(F a)"),), header)


class TestEquality:
    def test_equal_fields_of_another_class_are_unequal(self):
        f, g = FVar("f"), FVar("g")
        assert FAnd(f, g) != FOr(f, g)
        assert Atom("a") != FVar("a")
        assert Ref("A") != Complete("A")
        assert PNot(PTrue()) != Next(PTrue()) != FNot(PTrue())
        assert PTrue() != FTrue()

    def test_equal_fields_of_one_class_are_equal(self):
        assert FAnd(FVar("f"), FVar("g")) == FAnd(FVar("f"), FVar("g"))
        assert PTrue() == PTrue()
        assert ProductOutcome(1, value=2) == ProductOutcome(1, 2)
        assert ProductOutcome(1, value=2) != ProductOutcome(1, value=3)

    def test_comparing_with_another_type_is_not_an_error(self):
        assert Atom("a") != "a"
        assert (Atom("a") == object()) is False

    def test_equal_frozen_nodes_hash_equal_and_share_a_dict_key(self):
        left = Prob(None, Until(PTrue(), PAnd(Atom("a"), PNot(Atom("b")))))
        right = Prob(None, Until(PTrue(), PAnd(Atom("a"), PNot(Atom("b")))))
        assert left is not right and hash(left) == hash(right)
        memo = {left: 1}
        memo[right] = 2
        assert memo == {left: 2}

    def test_hash_is_the_hash_of_the_field_tuple(self):
        # as a dataclass hashes, so set orders under a fixed hash seed stay
        f, g = FVar("f"), FVar("g")
        assert hash(FAnd(f, g)) == hash((f, g))
        assert hash(Atom("a")) == hash(("a",))
        assert hash(PTrue()) == hash(())
        assert hash(Until(f, g)) == hash((f, g, None))

    def test_records_that_are_not_frozen_are_unhashable(self):
        for value in (ProductOutcome(1), ValidationReport(), SatEntry({}, {})):
            with pytest.raises(TypeError):
                hash(value)


class TestFrozen:
    def test_assigning_or_deleting_a_field_raises(self):
        nodes = ((Atom("a"), "name"), (FAnd(FVar("f"), FVar("g")), "left"), (Ref("A"), "name"))
        for node, name in nodes:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(node, name, "b")
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(node, name)
        with pytest.raises(AttributeError):
            PTrue().other = 1

    def test_records_that_are_not_frozen_take_assignments(self):
        outcome = ProductOutcome(1)
        outcome.value = 2
        assert outcome == ProductOutcome(1, value=2)


class TestInterval:
    def test_post_init_rejects_an_out_of_range_or_empty_bound(self):
        with pytest.raises(ParseError, match="outside"):
            Interval(0, Fraction(3, 2))
        with pytest.raises(ParseError, match="outside"):
            Interval(-1, 1)
        with pytest.raises(ParseError, match="empty"):
            Interval(Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(ParseError, match="empty"):
            Interval(Fraction(1, 2), Fraction(1, 2), upper_strict=True)

    def test_scaled_builds_an_unchecked_interval(self):
        at = Interval(Fraction(1, 4), 1, lower_strict=True).scaled(8)
        assert (at.lower, at.upper, at.lower_strict, at.upper_strict) == (3, 8, False, False)
        assert Interval(0, Fraction(1, 2), upper_strict=True).scaled(8) == Interval(0, 1).scaled(3)


class TestFields:
    def test_header_is_left_out_of_equality_and_hash(self):
        plain, headed = _model_file(), _model_file("// generated")
        assert plain == headed and hash(plain) == hash(headed)
        assert headed.header == "// generated" and plain.header == ""

    def test_default_factory_gives_each_record_its_own_list(self):
        first, second = ValidationReport(), ValidationReport()
        first.violations.append("x")
        assert second.violations == [] and second.findings == []
        one, two = FamilyResult("e", "p"), FamilyResult("e", "p")
        one.warnings.append("w")
        one.outcomes[1] = ProductOutcome(1)
        assert two.warnings == [] and two.outcomes == {}

    def test_a_given_value_replaces_the_factory(self):
        findings = ["x"]
        assert ValidationReport(findings=findings).findings is findings

    def test_cached_property_is_kept_in_the_instance(self):
        calls = []
        result = FamilyResult("parametric", "p", closed_form=lambda: calls.append(1) or "f")
        assert result.function == "f" and result.function == "f"
        assert calls == [1] and result.__dict__["function"] == "f"


class TestRepr:
    # the dataclass reprs, recorded before the records replaced them
    def test_reprs_are_unchanged(self):
        assert (
            repr(Interval(Fraction(1, 4), 1, True))
            == "Interval(lower=Fraction(1, 4), upper=1, lower_strict=True, upper_strict=False)"
        )
        assert (
            repr(Interval(0, Fraction(1, 2), upper_strict=True).scaled(8))
            == "Interval(lower=0, upper=3, lower_strict=False, upper_strict=False)"
        )
        assert repr(ActionLabel("go")) == "ActionLabel(name='go', obs=FTrue('true'))"
        assert (
            repr(ActionLabel("go", FAnd(FVar("f"), FVar("g"))))
            == "ActionLabel(name='go', obs=FAnd('f & g'))"
        )
        assert repr(RewardQuery(Atom("end"))) == "RewardQuery(target=<end>)"
        outcome = ProductOutcome(
            Product(("f", "g"), (True, False)),
            value=Fraction(1, 3),
            decision="satisfied",
            error_bound=Fraction(1, 1000),
        )
        assert repr(outcome) == (
            "ProductOutcome(product=Product(f=1, g=0), value=Fraction(1, 3),"
            " decision='satisfied', error_bound=Fraction(1, 1000), fallback=False)"
        )
        assert repr(Complete(Ref("A"))) == "Complete(operand=Ref(name='A'))"

    def test_repr_false_leaves_a_field_out(self):
        assert (
            repr(FamilyResult("enumerative", "P=?(F end)", closed_form=len))
            == "FamilyResult(engine='enumerative', property_text='P=?(F end)', outcomes={},"
            " elapsed=0.0, warnings=[])"
        )

    def test_repr_false_on_the_class_keeps_the_inherited_repr(self):
        assert repr(PAnd(Atom("a"), PNot(Atom("b")))) == "<a & !b>"
        assert repr(FOr(FVar("f"), FVar("g"))) == "FOr('f | g')"


class TestConstruction:
    def test_positional_and_keyword_arguments(self):
        assert Until(PTrue(), Atom("a")) == Until(right=Atom("a"), left=PTrue(), bound=None)
        assert Until(PTrue(), Atom("a"), 3).bound == 3
        assert ActionLabel("go").obs == FTrue()
        entry = SatEntry(lo={1: 0}, hi={1: 1})
        assert (entry.lo, entry.hi) == ({1: 0}, {1: 1})

    def test_too_many_missing_or_unknown_arguments_raise(self):
        with pytest.raises(TypeError):
            Atom("a", "b")
        with pytest.raises(TypeError):
            Atom()
        with pytest.raises(TypeError):
            PTrue(1)
        with pytest.raises(TypeError):
            ProductOutcome()
        with pytest.raises(TypeError):
            ProductOutcome(1, value=2, verdict="satisfied")
        with pytest.raises(TypeError):
            Until(PTrue(), Atom("a"), 3, 4)
        with pytest.raises(TypeError):
            Atom("a", name="b")


class TestRecordDecorator:
    def test_defaults_and_fields_of_a_new_record(self):
        @record
        class Point:
            x: int
            y: int = 0
            tags: list = field(default_factory=list)
            note: str = field(default="", compare=False, repr=False)

        assert Point(1) == Point(1, 0, [], "other")
        assert repr(Point(1, 2)).endswith("<locals>.Point(x=1, y=2, tags=[])")
        assert Point.y == 0 and Point.note == "" and not hasattr(Point, "tags")
        assert Point(1).tags is not Point(1).tags

    def test_a_field_without_a_default_after_one_with_is_refused(self):
        with pytest.raises(TypeError, match="'y' follows a field with a default"):

            @record
            class Bad:
                x: int = 0
                y: int
