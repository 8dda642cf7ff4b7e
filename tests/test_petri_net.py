"""Tests for the place/transition net core."""

import enum

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    DuplicateNodeError,
    NotEnabledError,
    PetriNetError,
    UnknownNodeError,
)
from repro.petri.net import Marking, PetriNet


def simple_net():
    """p1 --(t)--> p2 with one token in p1."""
    net = PetriNet("simple")
    net.add_place("p1", tokens=1)
    net.add_place("p2")
    net.add_transition("t")
    net.add_arc("p1", "t")
    net.add_arc("t", "p2")
    return net


class TestConstruction:
    def test_add_place_sets_initial_marking(self):
        net = PetriNet()
        net.add_place("p", tokens=3)
        assert net.tokens("p") == 3

    def test_duplicate_place_rejected(self):
        net = PetriNet()
        net.add_place("x")
        with pytest.raises(DuplicateNodeError):
            net.add_place("x")

    def test_duplicate_across_kinds_rejected(self):
        net = PetriNet()
        net.add_place("x")
        with pytest.raises(DuplicateNodeError):
            net.add_transition("x")

    def test_negative_initial_tokens_rejected(self):
        net = PetriNet()
        with pytest.raises(PetriNetError):
            net.add_place("p", tokens=-1)

    def test_capacity_below_initial_tokens_rejected(self):
        net = PetriNet()
        with pytest.raises(PetriNetError):
            net.add_place("p", tokens=5, capacity=2)

    def test_arc_requires_existing_nodes(self):
        net = PetriNet()
        net.add_place("p")
        with pytest.raises(UnknownNodeError):
            net.add_arc("p", "ghost")

    def test_arc_place_to_place_rejected(self):
        net = PetriNet()
        net.add_place("a")
        net.add_place("b")
        with pytest.raises(PetriNetError):
            net.add_arc("a", "b")

    def test_arc_transition_to_transition_rejected(self):
        net = PetriNet()
        net.add_transition("a")
        net.add_transition("b")
        with pytest.raises(PetriNetError):
            net.add_arc("a", "b")

    def test_zero_weight_arc_rejected(self):
        net = simple_net()
        with pytest.raises(PetriNetError):
            net.add_arc("p1", "t", weight=0)

    def test_repeated_arc_accumulates_weight(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("p", "t")
        assert net.inputs("t") == {"p": 2}

    def test_inputs_outputs_are_copies(self):
        net = simple_net()
        net.inputs("t")["p1"] = 99
        assert net.inputs("t") == {"p1": 1}


class TestEnablingAndFiring:
    def test_enabled_with_sufficient_tokens(self):
        assert simple_net().is_enabled("t")

    def test_not_enabled_without_tokens(self):
        net = simple_net()
        net.set_marking({"p1": 0})
        assert not net.is_enabled("t")

    def test_weighted_arc_needs_weight_tokens(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        assert not net.is_enabled("t")
        net.put_token("p")
        assert net.is_enabled("t")

    def test_fire_moves_tokens(self):
        net = simple_net()
        net.fire("t")
        assert net.tokens("p1") == 0
        assert net.tokens("p2") == 1

    def test_fire_not_enabled_raises(self):
        net = simple_net()
        net.fire("t")
        with pytest.raises(NotEnabledError):
            net.fire("t")

    def test_fire_count_increments(self):
        net = simple_net()
        net.fire("t")
        assert net.fire_count == 1

    def test_fire_sequence(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_place("c")
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("a", "t1")
        net.add_arc("t1", "b")
        net.add_arc("b", "t2")
        net.add_arc("t2", "c")
        final = net.fire_sequence(["t1", "t2"])
        assert final == {"a": 0, "b": 0, "c": 1}

    def test_capacity_blocks_output(self):
        net = PetriNet()
        net.add_place("src", tokens=2)
        net.add_place("dst", tokens=1, capacity=1)
        net.add_transition("t")
        net.add_arc("src", "t")
        net.add_arc("t", "dst")
        assert not net.is_enabled("t")

    def test_self_loop_with_capacity_is_enabled(self):
        net = PetriNet()
        net.add_place("p", tokens=1, capacity=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        assert net.is_enabled("t")
        net.fire("t")
        assert net.tokens("p") == 1

    def test_successor_marking_does_not_mutate(self):
        net = simple_net()
        before = net.marking()
        successor = net.successor_marking(before, "t")
        assert net.marking() == before
        assert successor == {"p1": 0, "p2": 1}

    def test_enabled_transitions_order_is_insertion_order(self):
        net = PetriNet()
        net.add_place("p", tokens=5)
        for name in ["t3", "t1", "t2"]:
            net.add_transition(name)
            net.add_arc("p", name)
        assert net.enabled_transitions() == ["t3", "t1", "t2"]


class TestConflictsAndDeadlock:
    def test_conflict_set_reports_rivals(self):
        net = PetriNet()
        net.add_place("shared", tokens=1)
        net.add_transition("a")
        net.add_transition("b")
        net.add_arc("shared", "a")
        net.add_arc("shared", "b")
        assert net.conflict_set("a") == ["b"]
        assert net.conflict_set("b") == ["a"]

    def test_no_conflict_for_disjoint_inputs(self):
        net = PetriNet()
        net.add_place("p1", tokens=1)
        net.add_place("p2", tokens=1)
        net.add_transition("a")
        net.add_transition("b")
        net.add_arc("p1", "a")
        net.add_arc("p2", "b")
        assert net.conflict_set("a") == []

    def test_deadlocked_when_nothing_enabled(self):
        net = simple_net()
        assert not net.is_deadlocked()
        net.fire("t")
        assert net.is_deadlocked()


class TestMarkingManipulation:
    def test_set_marking_zeroes_missing_places(self):
        net = simple_net()
        net.set_marking({"p2": 4})
        assert net.tokens("p1") == 0
        assert net.tokens("p2") == 4

    def test_set_marking_unknown_place_raises(self):
        with pytest.raises(UnknownNodeError):
            simple_net().set_marking({"ghost": 1})

    def test_set_marking_negative_raises(self):
        with pytest.raises(PetriNetError):
            simple_net().set_marking({"p1": -1})

    def test_reset_restores_initial(self):
        net = simple_net()
        net.fire("t")
        net.reset()
        assert net.tokens("p1") == 1
        assert net.tokens("p2") == 0
        assert net.fire_count == 0

    def test_take_token_insufficient_raises(self):
        with pytest.raises(PetriNetError):
            simple_net().take_token("p2")

    def test_put_negative_raises(self):
        with pytest.raises(PetriNetError):
            simple_net().put_token("p1", -2)


class TestStructuralChecks:
    def test_isolated_place_warning(self):
        net = PetriNet()
        net.add_place("lonely")
        assert any("lonely" in w for w in net.validate())

    def test_source_transition_warning(self):
        net = PetriNet()
        net.add_place("out")
        net.add_transition("spring")
        net.add_arc("spring", "out")
        assert any("spring" in w for w in net.validate())

    def test_clean_net_no_warnings(self):
        assert simple_net().validate() == []

    def test_preset_postset_of_place(self):
        net = simple_net()
        assert net.preset_of_place("p2") == ["t"]
        assert net.postset_of_place("p1") == ["t"]


class TestMarkingClass:
    def test_covers(self):
        assert Marking({"a": 2, "b": 1}).covers({"a": 1})
        assert not Marking({"a": 0}).covers({"a": 1})

    def test_strictly_covers(self):
        assert Marking({"a": 2}).strictly_covers({"a": 1})
        assert not Marking({"a": 1}).strictly_covers({"a": 1})

    def test_frozen_is_hashable_and_canonical(self):
        m1 = Marking({"a": 1, "b": 2})
        m2 = Marking({"b": 2, "a": 1})
        assert m1.frozen() == m2.frozen()
        assert hash(m1.frozen()) == hash(m2.frozen())


class TestTokenConservationProperty:
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=10))
    def test_cycle_conserves_tokens(self, tokens, rounds):
        """A simple cycle (p1 -> t1 -> p2 -> t2 -> p1) never changes the
        total token count no matter how many times it fires."""
        net = PetriNet()
        net.add_place("p1", tokens=tokens)
        net.add_place("p2")
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("p1", "t1")
        net.add_arc("t1", "p2")
        net.add_arc("p2", "t2")
        net.add_arc("t2", "p1")
        for __ in range(rounds):
            for transition in net.enabled_transitions():
                net.fire(transition)
        assert net.marking().total_tokens() == tokens

    @given(st.data())
    def test_random_firing_never_goes_negative(self, data):
        """Whatever enabled transition we fire, no place goes negative."""
        net = PetriNet()
        places = [f"p{i}" for i in range(4)]
        for name in places:
            net.add_place(name, tokens=data.draw(st.integers(0, 3)))
        for i in range(4):
            name = f"t{i}"
            net.add_transition(name)
            src = data.draw(st.sampled_from(places))
            dst = data.draw(st.sampled_from(places))
            net.add_arc(src, name)
            net.add_arc(name, dst)
        for __ in range(20):
            enabled = net.enabled_transitions()
            if not enabled:
                break
            net.fire(data.draw(st.sampled_from(enabled)))
            assert all(count >= 0 for count in net.marking().values())


#: Counts that are not whole numbers, each of which a net once stored:
#: a fraction, NaN, an infinity, a ``bool`` and a numeric string.
NOT_COUNTS = [2.5, float("nan"), float("inf"), True, "2"]


class TestCountsAreInts:
    """Tokens, capacities, arc weights and marking counts are ``int``s:
    a float or NaN stored in a net breaks firing and every search."""

    @pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
    def test_place_tokens_refused(self, value):
        with pytest.raises(PetriNetError, match="tokens must be an int"):
            PetriNet().add_place("p", tokens=value)

    @pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
    def test_place_capacity_refused(self, value):
        with pytest.raises(PetriNetError, match="capacity must be an int"):
            PetriNet().add_place("p", tokens=1, capacity=value)

    @pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
    def test_arc_weight_refused(self, value):
        net = simple_net()
        with pytest.raises(PetriNetError, match="arc weight must be an int"):
            net.add_arc("p1", "t", weight=value)
        with pytest.raises(PetriNetError, match="arc weight must be an int"):
            net.add_arc("t", "p2", weight=value)
        assert net.inputs("t") == {"p1": 1}
        assert net.outputs("t") == {"p2": 1}

    @pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
    def test_marking_counts_refused(self, value):
        net = simple_net()
        with pytest.raises(PetriNetError, match="must be an int"):
            net.set_marking({"p1": value})
        with pytest.raises(PetriNetError, match="must be an int"):
            net.put_token("p1", value)
        with pytest.raises(PetriNetError, match="must be an int"):
            net.take_token("p1", value)
        assert net.marking() == {"p1": 1, "p2": 0}

    def test_take_negative_raises(self):
        # Taking -5 tokens used to add five, past the place's capacity.
        net = PetriNet()
        net.add_place("a", tokens=1, capacity=2)
        with pytest.raises(PetriNetError, match="negative"):
            net.take_token("a", -5)
        assert net.tokens("a") == 1

    def test_int_subclasses_other_than_bool_accepted(self):
        class Size(enum.IntEnum):
            TWO = 2

        net = PetriNet()
        net.add_place("p", tokens=Size.TWO, capacity=Size.TWO)
        net.add_transition("t")
        net.add_arc("p", "t", weight=Size.TWO)
        net.take_token("p", Size.TWO)
        net.put_token("p", Size.TWO)
        assert net.tokens("p") == 2
