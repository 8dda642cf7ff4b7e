"""Tests for Petri net analysis: reachability, boundedness, liveness,
invariants."""

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.nets import floor_model, product_cycles
from repro.core.modes import FCMMode
from repro.errors import PetriNetError
from repro.petri.analysis import (
    CompiledNet,
    Exploration,
    MarkingCodec,
    ReachabilityGraph,
    bound_of,
    conservative_weights,
    dead_transitions,
    explore,
    find_deadlocks,
    incidence_matrix,
    is_bounded,
    is_live,
    place_invariants,
    reachability_graph,
    transition_invariants,
)
from repro.petri.net import Marking, PetriNet
from repro.temporal.compiler import compile_spec
from repro.workload.presentations import figure1_presentation, random_presentation


def cycle_net(tokens=1):
    """p1 -> t1 -> p2 -> t2 -> p1."""
    net = PetriNet("cycle")
    net.add_place("p1", tokens=tokens)
    net.add_place("p2")
    net.add_transition("t1")
    net.add_transition("t2")
    net.add_arc("p1", "t1")
    net.add_arc("t1", "p2")
    net.add_arc("p2", "t2")
    net.add_arc("t2", "p1")
    return net


def linear_net():
    """p1 -> t -> p2, one shot."""
    net = PetriNet("linear")
    net.add_place("p1", tokens=1)
    net.add_place("p2")
    net.add_transition("t")
    net.add_arc("p1", "t")
    net.add_arc("t", "p2")
    return net


def unbounded_net():
    """t is a source into p (fed by a self-loop seed): unbounded."""
    net = PetriNet("unbounded")
    net.add_place("seed", tokens=1)
    net.add_place("sink")
    net.add_transition("pump")
    net.add_arc("seed", "pump")
    net.add_arc("pump", "seed")
    net.add_arc("pump", "sink")
    return net


def chain_net(length=5):
    """p0 -> t0 -> p1 -> ... -> t{length-1} -> p{length}, one token."""
    net = PetriNet("chain")
    for index in range(length + 1):
        net.add_place(f"p{index}", tokens=1 if index == 0 else 0)
    for index in range(length):
        net.add_transition(f"t{index}")
        net.add_arc(f"p{index}", f"t{index}")
        net.add_arc(f"t{index}", f"p{index + 1}")
    return net


def stuck_net():
    """cycle_net plus a transition that can never fire."""
    net = cycle_net()
    net.add_place("never", tokens=0)
    net.add_transition("stuck")
    net.add_arc("never", "stuck")
    return net


class TestReachabilityGraph:
    def test_linear_net_two_states(self):
        graph = reachability_graph(linear_net())
        assert len(graph) == 2
        assert graph.complete

    def test_cycle_net_two_states_with_back_edge(self):
        graph = reachability_graph(cycle_net())
        assert len(graph) == 2
        assert len(graph.edges) == 2

    def test_initial_marking_is_first_node(self):
        net = linear_net()
        graph = reachability_graph(net)
        assert graph.nodes[0] == net.marking()

    def test_budget_truncates_and_flags(self):
        graph = reachability_graph(unbounded_net(), max_nodes=5)
        assert not graph.complete
        assert len(graph) == 5

    def test_bad_budget_rejected(self):
        with pytest.raises(PetriNetError):
            reachability_graph(linear_net(), max_nodes=0)

    def test_successors(self):
        graph = reachability_graph(linear_net())
        assert list(graph.successors(0)) == [("t", 1)]
        assert list(graph.successors(1)) == []

    def test_deadlock_indices(self):
        graph = reachability_graph(linear_net())
        assert graph.deadlock_indices() == [1]

    def test_exploration_does_not_mutate_net(self):
        net = cycle_net()
        before = net.marking()
        reachability_graph(net)
        assert net.marking() == before

    def test_concurrent_tokens_enumerate_interleavings(self):
        # Two independent one-shot branches: 4 reachable markings.
        net = PetriNet()
        for branch in ("a", "b"):
            net.add_place(f"{branch}_in", tokens=1)
            net.add_place(f"{branch}_out")
            net.add_transition(f"t_{branch}")
            net.add_arc(f"{branch}_in", f"t_{branch}")
            net.add_arc(f"t_{branch}", f"{branch}_out")
        graph = reachability_graph(net)
        assert len(graph) == 4


class TestMarkingCodec:
    def test_key_matches_frozen_content(self):
        net = cycle_net(tokens=2)
        codec = MarkingCodec(net)
        marking = net.marking()
        assert dict(zip(codec.places, codec.key(marking))) == dict(
            marking.frozen()
        )

    def test_key_needs_no_sort_and_defaults_to_zero(self):
        codec = MarkingCodec(cycle_net())
        assert codec.key({"p2": 3}) == (0, 3)

    def test_round_trip_through_marking(self):
        net = cycle_net(tokens=2)
        codec = MarkingCodec(net)
        counts = codec.key(net.marking())
        assert codec.marking(counts) == net.marking()
        assert isinstance(codec.marking(counts), Marking)

    def test_index_of_unknown_place_raises(self):
        with pytest.raises(PetriNetError):
            MarkingCodec(cycle_net()).index_of("ghost")


class TestAdjacencyRegression:
    """successors()/deadlock_indices() always read the live edge list,
    even after the graph is edited by hand."""

    def scan_successors(self, graph, index):
        return [(t, tgt) for s, t, tgt in graph.edges if s == index]

    def scan_deadlocks(self, graph):
        have_out = {s for s, __, __ in graph.edges}
        return [i for i in range(len(graph.nodes)) if i not in have_out]

    def test_successors_match_edge_scan(self):
        net = PetriNet()
        for branch in ("a", "b"):
            net.add_place(f"{branch}_in", tokens=1)
            net.add_place(f"{branch}_out")
            net.add_transition(f"t_{branch}")
            net.add_arc(f"{branch}_in", f"t_{branch}")
            net.add_arc(f"t_{branch}", f"{branch}_out")
        graph = reachability_graph(net)
        for index in range(len(graph)):
            assert list(graph.successors(index)) == self.scan_successors(
                graph, index
            )

    def test_deadlock_indices_match_edge_scan(self):
        for factory in (linear_net, cycle_net):
            graph = reachability_graph(factory())
            assert graph.deadlock_indices() == self.scan_deadlocks(graph)

    def test_adjacency_rebuilds_after_manual_edge_growth(self):
        graph = reachability_graph(linear_net())
        assert graph.deadlock_indices() == [1]
        graph.edges.append((1, "loop", 1))  # hand-grown graph
        assert graph.deadlock_indices() == []
        assert list(graph.successors(1)) == [("loop", 1)]

    def test_adjacency_rebuilds_after_in_place_edge_replacement(self):
        # Regression: a same-length in-place edit (edges[0] = ...) used
        # to evade count-based invalidation and serve stale adjacency.
        graph = reachability_graph(linear_net())
        assert list(graph.successors(0)) == [("t", 1)]
        graph.edges[0] = (1, "back", 0)
        assert list(graph.successors(0)) == []
        assert list(graph.successors(1)) == [("back", 0)]
        assert graph.deadlock_indices() == [0]

    def test_graph_pickles_and_cache_still_works(self):
        # Regression: the mutation-counting edge list used to break
        # pickle reconstruction (append before __init__ set version).
        import pickle

        graph = reachability_graph(cycle_net())
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.edges == graph.edges
        assert list(clone.successors(0)) == list(graph.successors(0))
        clone.edges.append((1, "extra", 1))
        assert ("extra", 1) in list(clone.successors(1))

    def test_adjacency_rebuilds_after_manual_node_growth(self):
        # Regression: edge-count-only invalidation crashed when a node
        # was appended (no new edge) after a cached query.
        graph = reachability_graph(linear_net())
        assert graph.deadlock_indices() == [1]
        graph.nodes.append(Marking({"p1": 9, "p2": 9}))
        assert graph.deadlock_indices() == [1, 2]
        assert list(graph.successors(2)) == []


class TestBoundedness:
    def test_cycle_is_bounded(self):
        assert is_bounded(cycle_net())

    def test_linear_is_bounded(self):
        assert is_bounded(linear_net())

    def test_pump_is_unbounded(self):
        assert not is_bounded(unbounded_net())

    def test_bound_of_place(self):
        net = cycle_net(tokens=3)
        assert bound_of(net, "p2") == 3

    def test_bound_of_never_marked_place_is_zero(self):
        net = PetriNet()
        net.add_place("empty")
        net.add_transition("t")
        net.add_arc("empty", "t")
        assert bound_of(net, "empty") == 0


class TestDeadlockAndLiveness:
    def test_linear_net_has_deadlock(self):
        deadlocks = find_deadlocks(linear_net())
        assert deadlocks == [{"p1": 0, "p2": 1}]

    def test_cycle_net_has_no_deadlock(self):
        assert find_deadlocks(cycle_net()) == []

    def test_cycle_net_is_live(self):
        assert is_live(cycle_net())

    def test_linear_net_is_not_live(self):
        assert not is_live(linear_net())

    def test_net_with_unfireable_transition_not_live(self):
        net = cycle_net()
        net.add_place("never", tokens=0)
        net.add_transition("stuck")
        net.add_arc("never", "stuck")
        assert not is_live(net)
        assert dead_transitions(net) == {"stuck"}

    def test_dead_transitions_empty_for_live_net(self):
        assert dead_transitions(cycle_net()) == set()


class TestExplorationProvenance:
    """A truncated exploration must never masquerade as a definitive
    answer: find_deadlocks/is_live carry complete/explored now."""

    def test_complete_deadlock_search_says_so(self):
        result = find_deadlocks(linear_net())
        assert result.complete
        assert result.explored == 2

    def test_truncated_deadlock_search_flagged(self):
        result = find_deadlocks(unbounded_net(), max_nodes=5)
        assert not result.complete
        assert result.explored == 5
        # the pump never deadlocks, but an incomplete empty result is
        # NOT a proof — the flag is the only honest signal
        assert result == []

    def test_deadlock_result_still_behaves_like_a_list(self):
        result = find_deadlocks(linear_net())
        assert result == [{"p1": 0, "p2": 1}]
        assert len(result) == 1
        assert list(result)[0]["p2"] == 1

    def test_is_live_result_carries_provenance(self):
        verdict = is_live(cycle_net())
        assert verdict.decided and verdict.complete
        assert verdict.live is True
        assert verdict.explored == 2

    def test_is_live_undecided_on_truncation(self):
        verdict = is_live(unbounded_net(), max_nodes=5)
        assert not verdict.decided
        assert verdict.live is None
        assert not verdict.complete

    def test_undecided_liveness_raises_as_boolean(self):
        verdict = is_live(unbounded_net(), max_nodes=5)
        with pytest.raises(PetriNetError):
            bool(verdict)

    def test_truncated_dead_transitions_undecided(self):
        # Every transition fires in the full space; three markings only
        # reach t0 and t1, which must not read as t2..t4 being dead.
        net = chain_net()
        assert dead_transitions(net) == set()
        with pytest.raises(PetriNetError, match="undecided within 3"):
            dead_transitions(net, max_nodes=3)

    def test_truncated_dead_transitions_that_saw_every_firing(self):
        assert dead_transitions(unbounded_net(), max_nodes=5) == set()

    def test_complete_dead_transitions_still_reported(self):
        assert dead_transitions(stuck_net(), max_nodes=3) == {"stuck"}

    def test_bound_of_unknown_place_raises(self):
        from repro.errors import UnknownNodeError

        with pytest.raises(UnknownNodeError, match="no_such_place"):
            bound_of(cycle_net(), "no_such_place")


ANALYSES = (
    reachability_graph, find_deadlocks, is_live, dead_transitions, is_bounded,
)


class TestBudgetValidation:
    """Every budget is an int >= 1 that is not a bool, checked up front."""

    @pytest.mark.parametrize(
        "budget", [float("nan"), 0, -3, 2.0, True, "10", None],
        ids=["nan", "zero", "negative", "float", "bool", "str", "none"],
    )
    @pytest.mark.parametrize("analysis", ANALYSES, ids=lambda f: f.__name__)
    def test_bad_budget_rejected(self, analysis, budget):
        with pytest.raises(PetriNetError, match="max_nodes"):
            analysis(cycle_net(), max_nodes=budget)

    @pytest.mark.parametrize("budget", [float("nan"), 0, True])
    def test_bound_of_bad_budget_rejected(self, budget):
        with pytest.raises(PetriNetError, match="max_nodes"):
            bound_of(cycle_net(), "p1", max_nodes=budget)

    def test_zero_budget_blames_the_budget_not_the_net(self):
        with pytest.raises(PetriNetError, match="max_nodes must be"):
            is_bounded(cycle_net(), max_nodes=0)


# ---------------------------------------------------------------------
# Differential agreement: the verdict functions against the algorithms
# they were first written as, kept here as oracles.
# ---------------------------------------------------------------------

BUDGETS = (1, 2, 3, 5, 10, 50, 2000)


def dict_bfs_graph(net, max_nodes=10_000):
    """Breadth-first search over ``Marking`` dicts: what
    ``reachability_graph`` ran before it became a view of ``explore``."""
    graph = ReachabilityGraph()
    codec = MarkingCodec(net)
    start = net.marking()
    index_of = {codec.key(start): 0}
    graph.nodes.append(start)
    queue = deque([0])
    while queue:
        current_index = queue.popleft()
        current = graph.nodes[current_index]
        for transition in net.enabled_transitions(current):
            successor = net.successor_marking(current, transition)
            key = codec.key(successor)
            if key in index_of:
                target = index_of[key]
            else:
                if len(graph.nodes) >= max_nodes:
                    graph.complete = False
                    continue
                target = len(graph.nodes)
                index_of[key] = target
                graph.nodes.append(successor)
                queue.append(target)
            graph.edges.append((current_index, transition, target))
    return graph


def oracle_deadlocks(net, graph):
    """Edge-less nodes of the graph, re-checked on a truncated one."""
    deadlocks = [graph.nodes[i] for i in graph.deadlock_indices()]
    if not graph.complete:
        deadlocks = [m for m in deadlocks if not net.enabled_transitions(m)]
    return deadlocks


def oracle_dead_transitions(net, graph):
    """Transitions labelling no edge; undecided on a truncated graph."""
    dead = set(net.transitions) - graph.transitions_seen()
    if dead and not graph.complete:
        return PetriNetError
    return dead


def oracle_live(net, graph):
    """One backward closure per transition over every edge."""
    if not graph.complete:
        return None
    predecessors = {i: [] for i in range(len(graph.nodes))}
    for source, __, target in graph.edges:
        predecessors[target].append(source)
    for transition in net.transitions:
        can_fire = {s for s, label, __ in graph.edges if label == transition}
        if not can_fire:
            return False
        frontier = deque(can_fire)
        while frontier:
            for predecessor in predecessors[frontier.popleft()]:
                if predecessor not in can_fire:
                    can_fire.add(predecessor)
                    frontier.append(predecessor)
        if len(can_fire) != len(graph.nodes):
            return False
    return True


def oracle_bounded(net, max_nodes):
    """Depth-first search carrying each branch's ancestor tuple.

    Returns the verdict (or ``PetriNetError``) and how many markings
    the search had visited when it was reached.  The search order does
    not depend on the budget, so a smaller budget ``b`` gives the same
    verdict when that count is at most ``b`` and raises otherwise.
    """
    stack = [(net.marking(), ())]
    seen = set()
    while stack:
        marking, ancestors = stack.pop()
        if marking.frozen() in seen:
            continue
        seen.add(marking.frozen())
        if len(seen) > max_nodes:
            return PetriNetError, len(seen)
        if any(marking.strictly_covers(a) for a in ancestors):
            return False, len(seen)
        chain = ancestors + (marking,)
        for transition in net.enabled_transitions(marking):
            stack.append((net.successor_marking(marking, transition), chain))
    return True, len(seen)


def outcome(function, *args, **kwargs):
    """The function's result, or ``PetriNetError`` if it raised one."""
    try:
        return function(*args, **kwargs)
    except PetriNetError:
        return PetriNetError


def assert_agreement(net):
    before = net.marking()
    bounded, visited = oracle_bounded(net, max(BUDGETS))
    for budget in BUDGETS:
        graph = dict_bfs_graph(net, max_nodes=budget)
        deadlocks = find_deadlocks(net, max_nodes=budget)
        assert list(deadlocks) == oracle_deadlocks(net, graph)
        assert (deadlocks.complete, deadlocks.explored) == (
            graph.complete, len(graph)
        )
        live = is_live(net, max_nodes=budget)
        assert (live.live, live.complete, live.explored) == (
            oracle_live(net, graph), graph.complete, len(graph)
        )
        assert outcome(dead_transitions, net, max_nodes=budget) == (
            oracle_dead_transitions(net, graph)
        )
        for place in net.places:
            assert bound_of(net, place, max_nodes=budget) == max(
                marking[place] for marking in graph.nodes
            )
        assert outcome(is_bounded, net, max_nodes=budget) == (
            bounded if visited <= budget else PetriNetError
        )
    assert net.marking() == before


def repo_nets():
    """``(id, factory)`` for every net the repository builds."""
    nets = [("figure1", lambda: figure1_presentation().net)]
    nets += [
        (f"{mode.value}-{members}",
         lambda mode=mode, members=members: floor_model(mode, members).net)
        for mode in FCMMode
        for members in (2, 3, 4)
    ]
    nets += [
        (f"product-{cycles}x{length}",
         lambda cycles=cycles, length=length: product_cycles(cycles, length))
        for cycles in range(1, 6)
        for length in (2, 3)
    ]
    nets += [
        (f"random-{items}-{seed}",
         lambda items=items, seed=seed: compile_spec(
             random_presentation(items, seed=seed)
         ).net)
        for items in (8, 32)
        for seed in range(5)
    ]
    nets += [
        (factory.__name__, factory)
        for factory in (
            cycle_net, linear_net, unbounded_net, chain_net, stuck_net,
        )
    ]
    return nets


@st.composite
def small_nets(draw):
    """1-5 places (capacity None or 1-3), 0-5 transitions, weights 1-2."""
    net = PetriNet("generated")
    places = draw(st.integers(1, 5))
    for index in range(places):
        capacity = draw(st.sampled_from((None, 1, 2, 3)))
        tokens = draw(st.integers(0, 2 if capacity is None else capacity))
        net.add_place(f"p{index}", tokens=tokens, capacity=capacity)
    arcs = st.lists(st.integers(0, places - 1), max_size=3, unique=True)
    for index in range(draw(st.integers(0, 5))):
        transition = f"t{index}"
        net.add_transition(transition)
        for place in draw(arcs):
            net.add_arc(f"p{place}", transition, weight=draw(st.integers(1, 2)))
        for place in draw(arcs):
            net.add_arc(transition, f"p{place}", weight=draw(st.integers(1, 2)))
    return net


class TestAgreementWithOracles:
    """Same answers as the dict-graph algorithms, at every budget:
    deadlock lists in order, provenance, liveness, dead transitions,
    bounds, and the boundedness verdict or its budget error."""

    @pytest.mark.parametrize(
        "factory",
        [factory for __, factory in repo_nets()],
        ids=[name for name, __ in repo_nets()],
    )
    def test_repo_nets(self, factory):
        assert_agreement(factory())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(net=small_nets())
    def test_generated_nets(self, net):
        assert_agreement(net)

    def test_bounded_product_of_4096_markings(self):
        assert is_bounded(product_cycles(6, 4)) is True


def oracle_explore(compiled, max_states, stop=None):
    """``explore`` before markings were keyed by packed integers and
    enabled sets were carried per state: every state tests every
    transition, and a successor is keyed by its counts tuple."""
    exploration = Exploration(
        codec=compiled.codec, transitions=compiled.transitions, compiled=compiled
    )
    states = exploration.states
    succ = exploration.succ
    parent = exploration.parent
    initial = compiled.initial_counts()
    index_of = {initial: 0}
    index_get = index_of.get
    states.append(initial)
    succ.append([])
    parent.append((-1, -1))
    rules = list(
        zip(
            range(len(compiled.transitions)),
            compiled.pre,
            compiled.capacity_checks,
            compiled.delta,
        )
    )
    current_index = 0
    while current_index < len(states):
        if stop is not None and stop(exploration, current_index):
            exploration.complete = False
            return exploration
        current = states[current_index]
        out = succ[current_index]
        for transition_index, pre, capacity_checks, delta in rules:
            for index, required in pre:
                if current[index] < required:
                    break
            else:
                for index, inflow, capacity in capacity_checks:
                    if current[index] + inflow > capacity:
                        break
                else:
                    successor = list(current)
                    for index, change in delta:
                        successor[index] += change
                    key = tuple(successor)
                    target = index_get(key)
                    if target is None:
                        if len(states) >= max_states:
                            exploration.complete = False
                            continue
                        target = len(states)
                        index_of[key] = target
                        states.append(key)
                        succ.append([])
                        parent.append((current_index, transition_index))
                    out.append((transition_index, target))
        current_index += 1
    if stop is not None:
        stop(exploration, current_index)
    return exploration


def recorded_exploration(explorer, compiled, budget, stop_at=None):
    """Everything an exploration gives out, through a ``stop`` callback
    that records each ``(index, len(states))`` call and returns true
    from index ``stop_at`` on (never when ``None``)."""
    calls = []

    def stop(exploration, index):
        calls.append((index, len(exploration.states)))
        return stop_at is not None and index >= stop_at

    exploration = explorer(compiled, budget, stop)
    return (
        calls,
        exploration.states,
        exploration.succ,
        exploration.parent,
        exploration.complete,
    )


#: Beyond any search here: keys this wide still intern exactly.  Only
#: explored with a stop callback, which also ends unbounded nets.
HUGE_BUDGET = 10**12


def assert_same_exploration(net, stop_at=3):
    compiled = CompiledNet(net)
    for budget in BUDGETS:
        expected = oracle_explore(compiled, budget)
        actual = explore(compiled, budget)
        assert (
            actual.states, actual.succ, actual.parent, actual.complete
        ) == (
            expected.states, expected.succ, expected.parent, expected.complete
        ), budget
        for limit in (None, stop_at):
            assert recorded_exploration(
                explore, compiled, budget, limit
            ) == recorded_exploration(oracle_explore, compiled, budget, limit), (
                budget, limit
            )
    assert recorded_exploration(
        explore, compiled, HUGE_BUDGET, 200
    ) == recorded_exploration(oracle_explore, compiled, HUGE_BUDGET, 200)


@st.composite
def wide_nets(draw, min_places=0):
    """0-6 places with tokens up to 10**6 and optional capacities, 0-6
    transitions with weights up to 10**9, and arcs drawn freely: a
    transition may have no input arc (a source) or share a place
    between its inputs and outputs (a self-loop).  Most counts are
    small multiples of one per-net scale, so that large weights still
    enable some firings."""
    net = PetriNet("wide")
    scale = draw(st.sampled_from((1, 1000, 250_000)))
    counts = st.integers(0, 4).map(lambda k: k * scale) | st.integers(0, 10**6)
    places = draw(st.integers(min_places, 6))
    for index in range(places):
        tokens = draw(counts)
        capacity = draw(st.none() | counts.map(lambda extra: tokens + extra))
        net.add_place(f"p{index}", tokens=tokens, capacity=capacity)
    weights = st.integers(1, 3).map(lambda k: k * scale) | st.integers(1, 10**9)
    arcs = st.lists(st.integers(0, max(places - 1, 0)), max_size=3, unique=True)
    for index in range(draw(st.integers(0, 6))):
        transition = f"t{index}"
        net.add_transition(transition)
        if not places:
            continue
        for place in draw(arcs):
            net.add_arc(f"p{place}", transition, weight=draw(weights))
        for place in draw(arcs):
            net.add_arc(transition, f"p{place}", weight=draw(weights))
    return net


class TestExplorerMatchesOracle:
    """The same ``states``, ``succ``, ``parent`` and ``complete`` as the
    counts-tuple explorer, at every budget, and the same ``stop`` calls
    and early stop."""

    @pytest.mark.parametrize(
        "factory",
        [factory for __, factory in repo_nets()],
        ids=[name for name, __ in repo_nets()],
    )
    def test_repo_nets(self, factory):
        assert_same_exploration(factory())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(net=small_nets(), stop_at=st.integers(0, 40))
    def test_small_nets(self, net, stop_at):
        assert_same_exploration(net, stop_at)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(net=wide_nets(), stop_at=st.integers(0, 40))
    def test_wide_nets(self, net, stop_at):
        assert_same_exploration(net, stop_at)

    def test_nets_without_places_or_transitions(self):
        empty = PetriNet("empty")
        idle = PetriNet("idle")
        idle.add_transition("tick")
        marked = PetriNet("marked")
        marked.add_place("p", tokens=10**6)
        for net in (empty, idle, marked):
            assert_same_exploration(net)
            exploration = explore(CompiledNet(net), HUGE_BUDGET)
            assert len(exploration.states) == 1 and exploration.complete

    def test_counts_past_the_initial_width_stay_exact(self):
        # The initial marking (1, 0) fits in one bit a place; keyed that
        # narrow, (2, 0) and (0, 1) would share a key.
        net = PetriNet("pump")
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_transition("more")
        net.add_transition("move")
        net.add_arc("a", "more")
        net.add_arc("more", "a", weight=2)
        net.add_arc("a", "move")
        net.add_arc("move", "b")
        assert_same_exploration(net)
        exploration = explore(CompiledNet(net), 6)
        assert exploration.states == [(1, 0), (2, 0), (0, 1), (3, 0), (1, 1), (4, 0)]
        assert not exploration.complete

    def test_capacity_readers_are_retested(self):
        # Firing ``fill`` changes no input place of ``emit``, only the
        # capacity-checked output place it shares with ``fill``.
        net = PetriNet("capacity")
        net.add_place("src", tokens=2)
        net.add_place("out", capacity=1)
        net.add_place("gen", tokens=1)
        net.add_transition("fill")
        net.add_transition("emit")
        net.add_arc("src", "fill")
        net.add_arc("fill", "out")
        net.add_arc("gen", "emit")
        net.add_arc("emit", "gen")
        net.add_arc("emit", "out")
        compiled = CompiledNet(net)
        assert compiled.affected == [(0, 1), (0, 1)]
        assert_same_exploration(net)
        exploration = explore(compiled, 100)
        assert exploration.succ == [[(0, 1), (1, 2)], [], []]


# The two Gauss-Jordan copies place_invariants and
# transition_invariants ran before they shared one null-space routine.


def oracle_place_invariants(net):
    """Gauss-Jordan on C^T: the left null space of the incidence matrix."""
    place_names, transition_names, matrix = incidence_matrix(net)
    n_places = len(place_names)
    n_transitions = len(transition_names)
    if n_places == 0:
        return []
    # Solve y^T C = 0  <=>  C^T y = 0. Build C^T as rows of Fractions.
    rows = [
        [Fraction(matrix[p][t]) for p in range(n_places)]
        for t in range(n_transitions)
    ]
    # Gauss-Jordan elimination on C^T.
    pivot_cols = []
    rank = 0
    for col in range(n_places):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot_value = rows[rank][col]
        rows[rank] = [value / pivot_value for value in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [
                    value - factor * pivot
                    for value, pivot in zip(rows[r], rows[rank])
                ]
        pivot_cols.append(col)
        rank += 1
    free_cols = [c for c in range(n_places) if c not in pivot_cols]
    invariants = []
    for free in free_cols:
        vector = [Fraction(0)] * n_places
        vector[free] = Fraction(1)
        for r, pivot_col in enumerate(pivot_cols):
            vector[pivot_col] = -rows[r][free]
        invariants.append(
            {place_names[i]: vector[i] for i in range(n_places) if vector[i] != 0}
        )
    return invariants


def oracle_transition_invariants(net):
    """Gauss-Jordan on C: the right null space of the incidence matrix."""
    place_names, transition_names, matrix = incidence_matrix(net)
    n_places = len(place_names)
    n_transitions = len(transition_names)
    if n_transitions == 0:
        return []
    rows = [
        [Fraction(matrix[p][t]) for t in range(n_transitions)]
        for p in range(n_places)
    ]
    pivot_cols = []
    rank = 0
    for col in range(n_transitions):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot_value = rows[rank][col]
        rows[rank] = [value / pivot_value for value in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [
                    value - factor * pivot
                    for value, pivot in zip(rows[r], rows[rank])
                ]
        pivot_cols.append(col)
        rank += 1
    free_cols = [c for c in range(n_transitions) if c not in pivot_cols]
    invariants = []
    for free in free_cols:
        vector = [Fraction(0)] * n_transitions
        vector[free] = Fraction(1)
        for r, pivot_col in enumerate(pivot_cols):
            vector[pivot_col] = -rows[r][free]
        invariants.append(
            {
                transition_names[i]: vector[i]
                for i in range(n_transitions)
                if vector[i] != 0
            }
        )
    return invariants


def basis_items(basis):
    return [list(vector.items()) for vector in basis]


#: Every repository net but four of the five 32-item presentations:
#: the dense oracles take about a second on each of them, and one
#: (101 places x 96 transitions) is enough to pin the sparse updates.
INVARIANT_NETS = [
    (name, factory) for name, factory in repo_nets()
    if not name.startswith("random-32") or name == "random-32-0"
]


class TestInvariantOracles:
    """Same bases, vector for vector and entry order included, as the
    two elimination copies the invariant functions replaced."""

    @pytest.mark.parametrize(
        "factory",
        [factory for __, factory in INVARIANT_NETS],
        ids=[name for name, __ in INVARIANT_NETS],
    )
    def test_repo_nets(self, factory):
        net = factory()
        assert basis_items(place_invariants(net)) == basis_items(
            oracle_place_invariants(net)
        )
        assert basis_items(transition_invariants(net)) == basis_items(
            oracle_transition_invariants(net)
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(net=small_nets())
    def test_generated_nets(self, net):
        assert basis_items(place_invariants(net)) == basis_items(
            oracle_place_invariants(net)
        )
        assert basis_items(transition_invariants(net)) == basis_items(
            oracle_transition_invariants(net)
        )

    def test_net_without_transitions_or_places(self):
        places_only = PetriNet()
        places_only.add_place("a")
        places_only.add_place("b", tokens=2)
        transitions_only = PetriNet()
        transitions_only.add_transition("t")
        for net in (places_only, transitions_only, PetriNet()):
            assert place_invariants(net) == oracle_place_invariants(net)
            assert transition_invariants(net) == (
                oracle_transition_invariants(net)
            )


class TestIncidenceAndInvariants:
    def test_incidence_matrix_shape_and_values(self):
        places, transitions, matrix = incidence_matrix(cycle_net())
        assert places == ["p1", "p2"]
        assert transitions == ["t1", "t2"]
        # t1 moves p1->p2, t2 moves p2->p1.
        assert matrix == [[-1, 1], [1, -1]]

    def test_cycle_has_token_conservation_invariant(self):
        invariants = place_invariants(cycle_net())
        assert len(invariants) == 1
        weights = invariants[0]
        assert weights["p1"] == weights["p2"]

    def test_invariant_holds_along_execution(self):
        net = cycle_net(tokens=2)
        invariants = place_invariants(net)
        weights = invariants[0]

        def weighted(marking):
            return sum(weights.get(p, Fraction(0)) * n for p, n in marking.items())

        initial = weighted(net.marking())
        net.fire("t1")
        assert weighted(net.marking()) == initial
        net.fire("t2")
        assert weighted(net.marking()) == initial

    def test_conservative_weights_for_cycle(self):
        weights = conservative_weights(cycle_net())
        assert weights is not None
        assert all(w > 0 for w in weights.values())

    def test_pump_net_is_not_conservative(self):
        assert conservative_weights(unbounded_net()) is None

    def test_empty_net_has_no_invariants(self):
        assert place_invariants(PetriNet()) == []


class TestTransitionInvariants:
    def test_cycle_has_t_invariant(self):
        from repro.petri.analysis import transition_invariants

        invariants = transition_invariants(cycle_net())
        assert len(invariants) == 1
        weights = invariants[0]
        # Firing t1 and t2 equally often reproduces the marking.
        assert weights["t1"] == weights["t2"]

    def test_linear_net_has_no_t_invariant(self):
        from repro.petri.analysis import transition_invariants

        assert transition_invariants(linear_net()) == []

    def test_t_invariant_reproduces_marking(self):
        from repro.petri.analysis import transition_invariants

        net = cycle_net(tokens=2)
        invariants = transition_invariants(net)
        weights = invariants[0]
        start = net.marking()
        # Fire each transition `weights[t]` times (scaled to integers).
        scale = 1
        for value in weights.values():
            scale = max(scale, value.denominator)
        for __ in range(scale):
            for transition, count in weights.items():
                for __ in range(int(count * scale) // scale):
                    net.fire(transition)
        assert net.marking() == start

    def test_one_shot_presentation_has_no_t_invariants(self):
        from repro.petri.analysis import transition_invariants
        from repro.workload.presentations import figure1_presentation

        assert transition_invariants(figure1_presentation().net) == []

    def test_empty_net(self):
        from repro.petri.analysis import transition_invariants
        from repro.petri.net import PetriNet

        assert transition_invariants(PetriNet()) == []
