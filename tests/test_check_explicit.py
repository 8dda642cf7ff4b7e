"""Tests for the explicit-state engine: equivalence with the dict-BFS
oracle, with the engine's former hand-inlined loop and with its own
check-everything safety pass, counterexample traces, budgets, the
explorer's ``stop`` hook, and verdict semantics."""

from bisect import bisect_left
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.explicit import (
    CheckReport,
    CompiledNet,
    Counterexample,
    ExplicitEngine,
    Exploration,
    PropertyVerdict,
    check_explicit,
)
from repro.check.nets import floor_model, product_cycles
from repro.check.props import (
    DeadlockFree,
    EventuallyFires,
    Invariant,
    Mutex,
    PlaceBound,
    Verdict,
)
from repro.core.modes import FCMMode
from repro.errors import CheckError
from repro.petri.analysis import explore, reachability_graph
from repro.petri.net import PetriNet
from test_petri_analysis import (
    BUDGETS,
    dict_bfs_graph,
    oracle_explore,
    repo_nets,
    small_nets,
    wide_nets,
)


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


def assert_same_graph(graph, oracle):
    """Same nodes (item order included), same edges in the same order,
    same ``complete``."""
    assert [list(node.items()) for node in graph.nodes] == [
        list(node.items()) for node in oracle.nodes
    ]
    assert graph.edges == oracle.edges
    assert graph.complete == oracle.complete


class TestExplorationEquivalence:
    @pytest.mark.parametrize("cycles,length", [(2, 3), (4, 4), (3, 5)])
    def test_matches_reachability_graph(self, cycles, length):
        net = product_cycles(cycles=cycles, length=length)
        legacy = dict_bfs_graph(net, max_nodes=100_000)
        modern = ExplicitEngine(net, max_states=100_000).explore()
        assert len(legacy) == len(modern)
        view = modern.to_reachability_graph()
        assert sorted(legacy.edges) == sorted(view.edges)
        assert view.complete and legacy.complete

    def test_same_discovery_order_as_legacy(self):
        net = product_cycles(cycles=3, length=3)
        legacy = dict_bfs_graph(net)
        modern = ExplicitEngine(net).explore()
        assert [m for m in legacy.nodes] == [
            modern.marking_of(i) for i in range(len(modern))
        ]

    def test_capacity_semantics_match(self):
        net = capacity_net()
        legacy = dict_bfs_graph(net)
        modern = ExplicitEngine(net).explore()
        assert len(legacy) == len(modern) == 3  # sink at 0, 1, 2

    @pytest.mark.parametrize(
        "factory",
        [factory for __, factory in repo_nets()],
        ids=[name for name, __ in repo_nets()],
    )
    def test_reachability_graph_is_the_dict_bfs_graph(self, factory):
        net = factory()
        for budget in BUDGETS:
            assert_same_graph(
                reachability_graph(net, max_nodes=budget),
                dict_bfs_graph(net, max_nodes=budget),
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(net=small_nets())
    def test_reachability_graph_is_the_dict_bfs_graph_generated(self, net):
        for budget in BUDGETS:
            assert_same_graph(
                reachability_graph(net, max_nodes=budget),
                dict_bfs_graph(net, max_nodes=budget),
            )

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


class TestStopHook:
    """``explore``'s ``stop(exploration, index)`` hook, which the
    property checker is built on."""

    def test_called_before_each_expansion_in_order(self):
        net = product_cycles(cycles=2, length=3)  # 9 markings
        seen = []

        def stop(exploration, index):
            # States below ``index`` are expanded, the rest are not.
            assert all(exploration.succ[i] for i in range(index))
            assert not any(exploration.succ[index:])
            seen.append((index, len(exploration.states)))
            return False

        result = explore(CompiledNet(net), 100, stop)
        assert [index for index, __ in seen] == list(range(10))
        assert seen[-1] == (9, 9)  # the last call follows the last expansion
        assert result.complete

    @pytest.mark.parametrize("k", [0, 1, 4, 8])
    def test_stop_at_k_keeps_what_was_found(self, k):
        net = product_cycles(cycles=2, length=3)
        found = {}

        def stop(exploration, index):
            found[index] = list(exploration.states)
            return index == k

        result = explore(CompiledNet(net), 100, stop)
        assert not result.complete
        assert result.states == found[k]
        assert not any(result.succ[k:])  # nothing past k was expanded
        full = explore(CompiledNet(net), 100)
        assert result.states == full.states[: len(result.states)]
        assert result.succ[:k] == full.succ[:k]

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_a_stop_that_never_fires_changes_nothing(self, budget):
        for net in (product_cycles(cycles=3, length=3), capacity_net()):
            plain = explore(CompiledNet(net), budget)
            hooked = explore(CompiledNet(net), budget, lambda e, i: False)
            assert (hooked.states, hooked.succ, hooked.parent) == (
                plain.states, plain.succ, plain.parent
            )
            assert hooked.complete == plain.complete


# ---------------------------------------------------------------------
# Differential agreement: ExplicitEngine.check against the hand-inlined
# BFS loop it used to run, kept here as the oracle.
# ---------------------------------------------------------------------


def reference_check(net, properties, max_states):
    """The engine's former property loop: its own breadth-first search
    over byte-encoded markings, evaluating properties inline."""
    props = tuple(properties)
    for prop in props:
        prop.validate_against(net)
    compiled = CompiledNet(net)
    codec = compiled.codec
    transition_count = len(compiled.transitions)
    exploration = Exploration(
        codec=codec, transitions=compiled.transitions, compiled=compiled
    )
    states = exploration.states
    succ = exploration.succ
    parent = exploration.parent

    def encode(counts):
        try:
            return bytes(counts)
        except ValueError:
            return b"".join(count.to_bytes(8, "big") for count in counts)

    safety = []
    deadlock_props = []
    eventually = {}
    verdicts = [None] * len(props)
    for slot, prop in enumerate(props):
        if isinstance(prop, EventuallyFires):
            eventually.setdefault(
                compiled.transitions.index(prop.transition), []
            ).append(slot)
        elif isinstance(prop, DeadlockFree):
            deadlock_props.append(slot)
        else:
            linear = prop.linear_bound()
            if linear is not None:
                coeffs, bound = linear
                sparse = [
                    (codec.index_of(place), coeff)
                    for place, coeff in coeffs.items()
                ]
                safety.append((slot, prop, sparse, bound))
            else:
                safety.append((slot, prop, None, 0))

    def violated(state):
        slots = []
        marking = None
        for slot, prop, sparse, bound in safety:
            if verdicts[slot] is not None:
                continue
            if sparse is not None:
                total = 0
                for index, coeff in sparse:
                    total += coeff * state[index]
                if total > bound:
                    slots.append(slot)
            else:
                if marking is None:
                    marking = codec.marking(state)
                if prop.violated_by(marking):
                    slots.append(slot)
        return slots

    initial = compiled.initial_counts()
    index_of = {encode(initial): 0}
    states.append(initial)
    succ.append([])
    parent.append((-1, -1))

    def record_violation_slots(slots, trace, marking):
        start = exploration.marking_of(0)
        for slot in slots:
            verdicts[slot] = PropertyVerdict(
                prop=props[slot],
                verdict=Verdict.VIOLATED,
                method="explicit",
                counterexample=Counterexample(
                    trace=trace, marking=marking, start=start
                ),
                states=len(states),
            )

    def record_violations(state_index, slots):
        if slots:
            record_violation_slots(
                slots,
                exploration.trace_to(state_index),
                exploration.marking_of(state_index),
            )

    if safety:
        record_violations(0, violated(initial))
    queue = deque([0])
    while queue:
        if props and all(verdict is not None for verdict in verdicts):
            exploration.complete = False
            break
        current_index = queue.popleft()
        current = states[current_index]
        out = succ[current_index]
        any_enabled = False
        for transition_index in range(transition_count):
            if not compiled.enabled(current, transition_index):
                continue
            any_enabled = True
            for slot in eventually.get(transition_index, ()):
                if verdicts[slot] is None:
                    verdicts[slot] = PropertyVerdict(
                        prop=props[slot],
                        verdict=Verdict.PROVED,
                        method="explicit",
                        witness=exploration.trace_to(current_index)
                        + (compiled.transitions[transition_index],),
                        states=len(states),
                    )
            successor = list(compiled.fire(current, transition_index))
            key = encode(successor)
            target = index_of.get(key)
            if target is None:
                if len(states) >= max_states:
                    exploration.complete = False
                    if safety:
                        slots = violated(successor)
                        if slots:
                            record_violation_slots(
                                slots,
                                exploration.trace_to(current_index)
                                + (compiled.transitions[transition_index],),
                                codec.marking(successor),
                            )
                    continue
                target = len(states)
                index_of[key] = target
                states.append(tuple(successor))
                succ.append([])
                parent.append((current_index, transition_index))
                queue.append(target)
                if safety:
                    record_violations(target, violated(successor))
            out.append((transition_index, target))
        if not any_enabled and deadlock_props:
            slots = [slot for slot in deadlock_props if verdicts[slot] is None]
            if slots:
                record_violations(current_index, slots)

    explored = len(states)
    complete = exploration.complete
    for slot, prop in enumerate(props):
        if verdicts[slot] is not None:
            continue
        if complete:
            verdict = (
                Verdict.VIOLATED
                if isinstance(prop, EventuallyFires)
                else Verdict.PROVED
            )
            note = (
                "transition never fires in the complete state space"
                if verdict is Verdict.VIOLATED
                else f"holds on all {explored} reachable markings"
            )
        else:
            verdict = Verdict.UNKNOWN
            note = (
                f"undecided within the {max_states}-state "
                f"budget ({explored} explored)"
            )
        verdicts[slot] = PropertyVerdict(
            prop=prop, verdict=verdict, method="explicit",
            states=explored, note=note,
        )
    return CheckReport(
        net_name=net.name,
        verdicts=tuple(verdicts),
        explored=explored,
        complete=complete,
    )


def report_fields(report):
    """Every field of a report, markings with their item order."""
    rows = []
    for verdict in report.verdicts:
        counterexample = verdict.counterexample
        rows.append((
            verdict.prop.name,
            verdict.verdict,
            verdict.method,
            verdict.states,
            verdict.note,
            None if counterexample is None else (
                counterexample.trace,
                list(counterexample.marking.items()),
                list(counterexample.start.items()),
            ),
            verdict.witness,
        ))
    return rows, report.explored, report.complete


def assert_same_check(net, props):
    for budget in BUDGETS:
        expected = reference_check(net, props, budget)
        actual = ExplicitEngine(net, max_states=budget).check(props)
        assert report_fields(actual) == report_fields(expected), budget


def every_property(net):
    """Deadlock freedom, every transition firing, every place 1-bounded."""
    return (
        [DeadlockFree()]
        + [EventuallyFires(transition) for transition in net.transitions]
        + [PlaceBound(place, 1) for place in net.places]
    )


@st.composite
def nets_with_properties(draw):
    """A generated net and a mix of all five property kinds, with
    duplicates."""
    net = draw(small_nets())
    places = sorted(net.places)
    transitions = list(net.transitions)
    kinds = [
        st.just(DeadlockFree()),
        st.builds(PlaceBound, st.sampled_from(places), st.integers(0, 3)),
        st.builds(
            Mutex,
            st.lists(st.sampled_from(places), min_size=1, unique=True).map(tuple),
            bound=st.integers(1, 3),
        ),
        st.builds(
            lambda a, b, k: Invariant(f"{a} + {b} <= {k}"),
            st.sampled_from(places), st.sampled_from(places), st.integers(0, 4),
        ),
    ]
    if transitions:
        kinds.append(st.builds(EventuallyFires, st.sampled_from(transitions)))
    props = draw(st.lists(st.one_of(kinds), max_size=6))
    if props and draw(st.booleans()):
        props.append(draw(st.sampled_from(props)))
    return net, props


def fixed_cases():
    cases = [
        (f"product-{cycles}x{length}", product_cycles(cycles, length), [])
        for cycles, length in ((1, 2), (2, 3), (3, 4), (4, 3))
    ]
    cases += [
        (f"{mode.value}-{members}", model.net, list(model.properties))
        for mode in FCMMode
        for members in (2, 3, 4)
        for model in (floor_model(mode, members),)
    ]
    return cases


class TestAgreementWithFormerLoop:
    """Same verdicts, evidence, ``states`` counts, ``explored`` and
    ``complete`` as the engine's former inline loop, at every budget."""

    @pytest.mark.parametrize(
        "name,net,props", fixed_cases(), ids=[c[0] for c in fixed_cases()]
    )
    def test_fixed_nets(self, name, net, props):
        if props:
            assert_same_check(net, props)
        assert_same_check(net, every_property(net))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=nets_with_properties())
    def test_generated_nets(self, case):
        net, props = case
        assert_same_check(net, props)


# ---------------------------------------------------------------------
# The raise filter: ExplicitEngine.check against the same property
# checks testing every new state against every undecided safety
# property, kept here as the oracle.
# ---------------------------------------------------------------------


def oracle_check(net, properties, max_states):
    """``ExplicitEngine.check`` before a new state was tested only
    against the safety properties its discovering firing can raise:
    every new state is tested against every undecided one, on the
    counts-tuple explorer ``oracle_explore``."""
    props = tuple(properties)
    compiled = CompiledNet(net)
    for prop in props:
        prop.validate_against(net)
    codec = compiled.codec
    transitions = compiled.transitions
    verdicts = [None] * len(props)
    safety = []
    deadlock_slots = []
    eventually = {}
    for slot, prop in enumerate(props):
        if isinstance(prop, EventuallyFires):
            eventually.setdefault(
                transitions.index(prop.transition), []
            ).append(slot)
        elif isinstance(prop, DeadlockFree):
            deadlock_slots.append(slot)
        else:
            linear = prop.linear_bound()
            if linear is not None:
                coeffs, bound = linear
                sparse = [
                    (codec.index_of(place), coeff)
                    for place, coeff in coeffs.items()
                ]
                safety.append((slot, prop, sparse, bound))
            else:
                safety.append((slot, prop, None, 0))
    undecided = len(props)
    found = 0

    def violated(state):
        slots = []
        marking = None
        for slot, prop, sparse, bound in safety:
            if sparse is not None:
                total = 0
                for index, coeff in sparse:
                    total += coeff * state[index]
                if total > bound:
                    slots.append(slot)
            else:
                if marking is None:
                    marking = codec.marking(state)
                if prop.violated_by(marking):
                    slots.append(slot)
        return slots

    def decide(slot, verdict, states, **evidence):
        nonlocal undecided
        verdicts[slot] = PropertyVerdict(
            prop=props[slot],
            verdict=verdict,
            method="explicit",
            states=states,
            **evidence,
        )
        undecided -= 1

    def violate(exploration, slots, trace, marking, states):
        counterexample = Counterexample(
            trace=trace, marking=marking, start=exploration.marking_of(0)
        )
        for slot in slots:
            decide(slot, Verdict.VIOLATED, states, counterexample=counterexample)
        safety[:] = [entry for entry in safety if verdicts[entry[0]] is None]

    def settle(exploration, index):
        current = exploration.states[index]
        out = exploration.succ[index]
        if deadlock_slots and not out and not any(
            compiled.enabled(current, t) for t in range(len(transitions))
        ):
            violate(
                exploration,
                list(deadlock_slots),
                exploration.trace_to(index),
                exploration.marking_of(index),
                len(exploration.states),
            )
            deadlock_slots.clear()
        for t in [t for t in eventually if compiled.enabled(current, t)]:
            witness = exploration.trace_to(index) + (transitions[t],)
            states = bisect_left(exploration.parent, (index, t))
            for slot in eventually.pop(t):
                decide(slot, Verdict.PROVED, states, witness=witness)
        if safety and len(exploration.states) >= max_states:
            fired = {t for t, __ in out}
            for t in range(len(transitions)):
                if t in fired or not compiled.enabled(current, t):
                    continue
                successor = compiled.fire(current, t)
                slots = violated(successor)
                if slots:
                    violate(
                        exploration,
                        slots,
                        exploration.trace_to(index) + (transitions[t],),
                        codec.marking(successor),
                        len(exploration.states),
                    )

    def stop(exploration, index):
        nonlocal found
        states = exploration.states
        if safety:
            for j in range(found, len(states)):
                slots = violated(states[j])
                if slots:
                    violate(
                        exploration,
                        slots,
                        exploration.trace_to(j),
                        exploration.marking_of(j),
                        j + 1,
                    )
        found = len(states)
        if index:
            settle(exploration, index - 1)
        return not undecided

    exploration = oracle_explore(compiled, max_states, stop if props else None)
    explored = len(exploration)
    complete = exploration.complete
    for slot, prop in enumerate(props):
        if verdicts[slot] is not None:
            continue
        if complete:
            verdict = (
                Verdict.VIOLATED
                if isinstance(prop, EventuallyFires)
                else Verdict.PROVED
            )
            note = (
                "transition never fires in the complete state space"
                if verdict is Verdict.VIOLATED
                else f"holds on all {explored} reachable markings"
            )
        else:
            verdict = Verdict.UNKNOWN
            note = (
                f"undecided within the {max_states}-state "
                f"budget ({explored} explored)"
            )
        decide(slot, verdict, explored, note=note)
    return CheckReport(
        net_name=net.name,
        verdicts=tuple(verdicts),
        explored=explored,
        complete=complete,
    )


def check_outcome(check):
    """The fields of the report ``check()`` returns, or the message of
    the ``CheckError`` it raises."""
    try:
        return report_fields(check())
    except CheckError as error:
        return "CheckError", str(error)


def assert_same_as_oracle(net, props, budgets):
    for budget in budgets:
        actual = check_outcome(
            lambda: ExplicitEngine(net, max_states=budget).check(props)
        )
        expected = check_outcome(lambda: oracle_check(net, props, budget))
        assert actual == expected, budget


@st.composite
def nets_with_safety_mixes(draw):
    """A small or wide generated net with a transition enabled, and up
    to eight properties of all five kinds with a duplicate.  Bounds sit zero to three of the net's
    largest output weights above the initial counts, so that violations
    come some firings in.  One ``Invariant`` is linear, one is not, and
    one divides by ``place - k``: it never fails, but raises
    ``CheckError`` at the first marking with ``k`` tokens there."""
    net = draw(
        (small_nets() | wide_nets(min_places=1)).filter(
            lambda net: net.enabled_transitions()
        )
    )
    marking = net.marking()
    unit = max(
        (weight for t in net.transitions for weight in net.outputs(t).values()),
        default=1,
    )

    def headroom(names):
        initial = sum(marking[name] for name in names)
        return st.integers(0, 3).map(lambda k: initial + k * unit)

    place = st.sampled_from(sorted(net.places))
    pair = st.tuples(place, place)
    kinds = [
        st.just(DeadlockFree()),
        place.flatmap(lambda p: st.builds(PlaceBound, st.just(p), headroom([p]))),
        st.lists(place, min_size=1, unique=True).flatmap(
            lambda names: st.builds(
                Mutex, st.just(tuple(names)), bound=headroom(names)
            )
        ),
        pair.flatmap(
            lambda ab: headroom(ab).map(lambda k: Invariant(f"{ab[0]} + {ab[1]} <= {k}"))
        ),
        pair.flatmap(
            lambda ab: headroom(ab).map(
                lambda k: Invariant(f"{ab[0]} * {ab[1]} <= {k * k}")
            )
        ),
        pair.flatmap(
            lambda ab: headroom(ab[1:]).map(
                lambda k: Invariant(f"{ab[0]} // ({ab[1]} - {k}) <= {ab[0]}")
            )
        ),
    ]
    if net.transitions:
        kinds.append(st.builds(EventuallyFires, st.sampled_from(list(net.transitions))))
    props = draw(st.lists(st.one_of(kinds), max_size=8))
    if props and draw(st.booleans()):
        props.insert(draw(st.integers(0, len(props))), draw(st.sampled_from(props)))
    return net, props


class TestRaiseFilterMatchesOracle:
    """Testing a new state only against the safety properties its
    discovering firing can raise gives the same reports, or the same
    ``CheckError``, as testing it against every undecided one."""

    @pytest.mark.parametrize(
        "name,net,props", fixed_cases(), ids=[c[0] for c in fixed_cases()]
    )
    def test_fixed_nets(self, name, net, props):
        safety = [PlaceBound(place, 1) for place in net.places]
        safety += [Mutex(tuple(sorted(net.places)), bound=2)]
        assert_same_as_oracle(net, props + safety + [DeadlockFree()], BUDGETS)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        case=nets_with_safety_mixes(),
        budgets=st.lists(st.integers(1, 500), min_size=1, max_size=3),
    )
    def test_generated_nets(self, case, budgets):
        net, props = case
        assert_same_as_oracle(net, props, budgets)

    def test_evaluation_error_surfaces_at_the_same_state(self):
        # ``b // (a - 2)`` fails only once ``a`` holds two tokens, two
        # firings in: the filter must not skip the state that raises.
        net = PetriNet("pump")
        net.add_place("a")
        net.add_place("b", tokens=1)
        net.add_transition("fill")
        net.add_arc("fill", "a")
        props = [PlaceBound("a", 5), Invariant("b // (a - 2) <= 1")]
        assert_same_as_oracle(net, props, (1, 2, 3, 4, 10))
        with pytest.raises(CheckError, match="'a': 2"):
            ExplicitEngine(net, max_states=10).check(props)

