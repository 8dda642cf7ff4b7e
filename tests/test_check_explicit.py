"""Tests for the explicit-state engine: equivalence with the legacy
analyser, counterexample traces, budgets, and verdict semantics."""

import pytest

from repro.check.explicit import (
    CompiledNet,
    ExplicitEngine,
    check_explicit,
)
from repro.check.nets import product_cycles
from repro.check.props import (
    DeadlockFree,
    EventuallyFires,
    Invariant,
    Mutex,
    PlaceBound,
    Verdict,
)
from repro.errors import CheckError
from repro.petri.analysis import reachability_graph
from repro.petri.net import PetriNet


def race_net():
    """Two one-shot branches racing into a shared critical place."""
    net = PetriNet("race")
    net.add_place("a", tokens=1)
    net.add_place("b", tokens=1)
    net.add_place("crit")
    net.add_transition("t1")
    net.add_arc("a", "t1")
    net.add_arc("t1", "crit")
    net.add_transition("t2")
    net.add_arc("b", "t2")
    net.add_arc("t2", "crit")
    return net


def capacity_net():
    """A pump into a capacitated sink: capacity gates enabledness."""
    net = PetriNet("cap")
    net.add_place("seed", tokens=1)
    net.add_place("sink", capacity=2)
    net.add_transition("pump")
    net.add_arc("seed", "pump")
    net.add_arc("pump", "seed")
    net.add_arc("pump", "sink")
    return net


class TestExplorationEquivalence:
    @pytest.mark.parametrize("cycles,length", [(2, 3), (4, 4), (3, 5)])
    def test_matches_reachability_graph(self, cycles, length):
        net = product_cycles(cycles=cycles, length=length)
        legacy = reachability_graph(net, max_nodes=100_000)
        modern = ExplicitEngine(net, max_states=100_000).explore()
        assert len(legacy) == len(modern)
        view = modern.to_reachability_graph()
        assert sorted(legacy.edges) == sorted(view.edges)
        assert view.complete and legacy.complete

    def test_same_discovery_order_as_legacy(self):
        net = product_cycles(cycles=3, length=3)
        legacy = reachability_graph(net)
        modern = ExplicitEngine(net).explore()
        assert [m for m in legacy.nodes] == [
            modern.marking_of(i) for i in range(len(modern))
        ]

    def test_capacity_semantics_match(self):
        net = capacity_net()
        legacy = reachability_graph(net)
        modern = ExplicitEngine(net).explore()
        assert len(legacy) == len(modern) == 3  # sink at 0, 1, 2

    def test_exploration_does_not_mutate_net(self):
        net = race_net()
        before = net.marking()
        ExplicitEngine(net).explore()
        assert net.marking() == before

    def test_budget_truncates_and_flags(self):
        net = product_cycles(cycles=4, length=4)  # 256 states
        result = ExplicitEngine(net, max_states=50).explore()
        assert len(result) == 50
        assert not result.complete

    def test_bad_budget_rejected(self):
        with pytest.raises(CheckError):
            ExplicitEngine(race_net(), max_states=0)

    @pytest.mark.parametrize(
        "budget", [float("nan"), 2.0, True, None], ids=repr
    )
    def test_non_integer_budget_rejected(self, budget):
        # A NaN budget used to pass the < 1 check and never stop the
        # search on an unbounded net.
        with pytest.raises(CheckError, match="max_states"):
            ExplicitEngine(race_net(), max_states=budget)

    def test_explorer_rejects_nan_budget(self):
        from repro.errors import PetriNetError
        from repro.petri.analysis import explore

        with pytest.raises(PetriNetError, match="max_states"):
            explore(CompiledNet(race_net()), float("nan"))

    def test_engine_explore_is_the_petri_explorer(self):
        from repro import check
        from repro.petri import analysis

        assert check.CompiledNet is analysis.CompiledNet
        assert check.Exploration is analysis.Exploration
        net = product_cycles(cycles=3, length=3)
        engine = ExplicitEngine(net, max_states=20)
        plain = analysis.explore(CompiledNet(net), 20)
        mine = engine.explore()
        assert (mine.states, mine.succ, mine.parent, mine.complete) == (
            plain.states, plain.succ, plain.parent, plain.complete
        )


class TestSafetyVerdicts:
    def test_mutex_violation_has_replayable_trace(self):
        net = race_net()
        report = check_explicit(net, [Mutex(("crit",))])
        verdict = report.verdicts[0]
        assert verdict.verdict is Verdict.VIOLATED
        reached = verdict.counterexample.replay(net)
        assert reached["crit"] == 2

    def test_unfireable_trace_replays_as_check_error(self):
        # Regression: an unfireable step used to escape as a raw
        # NotEnabledError, off the documented CheckError contract.
        from repro.check.explicit import Counterexample
        from repro.petri.net import Marking

        net = race_net()
        bogus = Counterexample(
            trace=("t1", "t1"),
            marking=Marking({"a": 0, "b": 1, "crit": 1}),
            start=net.marking(),
        )
        with pytest.raises(CheckError):
            bogus.replay(net)

    def test_trace_replay_leaves_net_untouched(self):
        net = race_net()
        net.fire("t1")  # move the live marking off the initial one
        live = net.marking()
        report = ExplicitEngine(net).check([PlaceBound("crit", 0)])
        report.verdicts[0].counterexample.replay(net)
        assert net.marking() == live

    def test_proved_only_on_complete_exploration(self):
        # One token walks each cycle, so places of the same cycle are
        # mutually exclusive; places of different cycles are not.
        net = product_cycles(cycles=4, length=4)
        ok = check_explicit(net, [Mutex(("c0_p0", "c0_p1"))], max_states=10_000)
        assert ok.verdicts[0].verdict is Verdict.PROVED
        truncated = check_explicit(
            net, [Mutex(("c0_p0", "c0_p1"))], max_states=20
        )
        assert truncated.verdicts[0].verdict is Verdict.UNKNOWN
        assert "budget" in truncated.verdicts[0].note
        cross = check_explicit(net, [Mutex(("c0_p0", "c1_p1"))])
        assert cross.verdicts[0].verdict is Verdict.VIOLATED

    def test_invariant_property_checked_per_state(self):
        net = race_net()
        report = check_explicit(net, [Invariant("a + b + crit == 2")])
        assert report.verdicts[0].verdict is Verdict.PROVED
        report = check_explicit(net, [Invariant("crit <= 1")])
        assert report.verdicts[0].verdict is Verdict.VIOLATED

    def test_violation_at_over_budget_successor_still_reported(self):
        # Regression: a violating successor that exceeded the state
        # budget was dropped, turning an in-hand VIOLATED into UNKNOWN.
        net = PetriNet("chain")
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_place("c")
        net.add_transition("t1")
        net.add_arc("a", "t1")
        net.add_arc("t1", "b")
        net.add_transition("t2")
        net.add_arc("b", "t2")
        net.add_arc("t2", "c")
        report = check_explicit(net, [PlaceBound("c", 0)], max_states=2)
        verdict = report.verdicts[0]
        assert verdict.verdict is Verdict.VIOLATED
        assert verdict.counterexample.trace == ("t1", "t2")
        assert verdict.counterexample.replay(net)["c"] == 1

    def test_initial_marking_violation_has_empty_trace(self):
        net = PetriNet("hot")
        net.add_place("p", tokens=2)
        report = check_explicit(net, [PlaceBound("p", 1)])
        verdict = report.verdicts[0]
        assert verdict.verdict is Verdict.VIOLATED
        assert verdict.counterexample.trace == ()


class TestDeadlockAndLiveness:
    def test_deadlock_found_with_trace(self):
        net = race_net()
        report = check_explicit(net, [DeadlockFree()])
        verdict = report.verdicts[0]
        assert verdict.verdict is Verdict.VIOLATED
        final = verdict.counterexample.replay(net)
        assert not net.enabled_transitions(final)

    def test_cycle_net_is_deadlock_free(self):
        report = check_explicit(product_cycles(cycles=2, length=3), [DeadlockFree()])
        assert report.verdicts[0].verdict is Verdict.PROVED

    def test_eventually_fires_with_witness(self):
        net = race_net()
        report = check_explicit(net, [EventuallyFires("t2")])
        verdict = report.verdicts[0]
        assert verdict.verdict is Verdict.PROVED
        assert verdict.witness[-1] == "t2"
        net.reset()
        net.fire_sequence(verdict.witness)  # witness replays

    def test_dead_transition_is_violated_on_complete_sweep(self):
        net = race_net()
        net.add_place("never")
        net.add_transition("stuck")
        net.add_arc("never", "stuck")
        report = check_explicit(net, [EventuallyFires("stuck")])
        assert report.verdicts[0].verdict is Verdict.VIOLATED

    def test_duplicate_eventually_props_agree(self):
        # Regression: the slot map used to keep only the last duplicate,
        # leaving the first with a bogus VIOLATED on a complete sweep.
        net = race_net()
        report = check_explicit(
            net, [EventuallyFires("t1"), EventuallyFires("t1")]
        )
        assert [v.verdict for v in report.verdicts] == [
            Verdict.PROVED, Verdict.PROVED,
        ]
        assert all(v.witness[-1] == "t1" for v in report.verdicts)

    def test_eventually_unknown_when_truncated(self):
        net = product_cycles(cycles=4, length=4)
        net.add_place("never")
        net.add_transition("stuck")
        net.add_arc("never", "stuck")
        report = check_explicit(net, [EventuallyFires("stuck")], max_states=20)
        assert report.verdicts[0].verdict is Verdict.UNKNOWN

    def test_eventually_witnessed_even_when_successor_over_budget(self):
        # Regression: the budget bail used to skip the witness check,
        # reporting UNKNOWN for a firing observed from an explored state.
        net = race_net()
        report = check_explicit(net, [EventuallyFires("t1")], max_states=1)
        verdict = report.verdicts[0]
        assert verdict.verdict is Verdict.PROVED
        assert verdict.witness == ("t1",)

    def test_truncated_frontier_states_are_not_deadlocks(self):
        # Regression: edge-less frontier states of a truncated BFS used
        # to be reported dead (their successors were simply un-interned).
        net = product_cycles(cycles=3, length=4)  # deadlock-free
        exploration = ExplicitEngine(net, max_states=10).explore()
        assert not exploration.complete
        assert exploration.deadlock_indices() == []


class TestReportApi:
    def test_verdict_for_unknown_name_raises(self):
        report = check_explicit(race_net(), [Mutex(("crit",))])
        with pytest.raises(CheckError):
            report.verdict_for("nonsense")

    def test_all_proved_and_any_violated(self):
        report = check_explicit(
            race_net(), [Mutex(("crit",), bound=2), Mutex(("crit",))]
        )
        assert not report.all_proved
        assert report.any_violated

    def test_property_not_fitting_net_rejected(self):
        with pytest.raises(CheckError):
            check_explicit(race_net(), [Mutex(("ghost",))])


class TestCompiledNet:
    def test_wide_encoding_for_large_counts(self):
        net = PetriNet("wide")
        net.add_place("p", tokens=300)
        compiled = CompiledNet(net)
        counts = compiled.initial_counts()
        assert counts == (300,)
        assert compiled.codec.encode(counts) == (300).to_bytes(8, "big")

    def test_narrow_encoding_is_one_byte_per_place(self):
        compiled = CompiledNet(race_net())
        assert compiled.codec.encode((1, 1, 0)) == bytes((1, 1, 0))
