"""Analysis of place/transition nets.

The paper uses Petri nets both as a specification notation and as a
verifiable model ("users can dynamically modify and verify different
kinds of conditions during the presentation").  This module provides the
verification side:

* :class:`CompiledNet` / :func:`explore` — the one state-space
  search: a net lowered once to index arrays, breadth-first, with
  parent pointers for firing traces.  Markings are interned by one
  packed integer each (every count in a field wide enough for any
  count the budget can reach, so a firing's successor key is one
  addition), and each state carries its enabled transitions as a bit
  mask that a firing updates only where it can change it; the
  states themselves are kept as fixed-place-order counts tuples.
  Every verdict below runs on it, and so does
  :mod:`repro.check.explicit`, whose property checks are a ``stop``
  callback on the same search;
* :func:`reachability_graph` — the ``Marking`` view of one
  exploration: the full graph as ``Marking`` dicts and labelled edges,
  with a node budget;
* :func:`is_bounded` / :func:`bound_of` — coverability-based
  unboundedness detection (Karp–Miller style cut-off);
* :func:`find_deadlocks` — reachable dead markings, with
  ``complete``/``explored`` provenance on the result;
* :func:`is_live` — whether every transition can always fire again
  (checked over the explored graph, undecided on a truncated one);
* :func:`incidence_matrix`, :func:`place_invariants` — structural
  analysis via the incidence matrix over the rationals.

Two facts keep the verdicts cheap.  A net is live (L4) iff every
*bottom* strongly connected component of its complete reachability
graph — one no edge leaves — carries an edge of every transition
(Murata 1989): every marking reaches some bottom component, and inside
one every edge is reachable again.  So :func:`is_live` is one Tarjan
pass, O(V+E).  And a marking strictly covers another only with a
strictly larger token sum, so :func:`is_bounded` skips the ancestor
scan of any marking whose sum is at most the smallest on its chain.

:class:`MarkingCodec` is the canonical fixed-place-order encoder the
hot paths intern markings through (``Marking.frozen()`` re-sorts the
items on every call; the codec reads places in net declaration order,
so building a key is one pass with no sort).

Every budget is an ``int`` >= 1 (not a ``bool``), checked before any
work.  All functions leave the net's own marking untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence

from ..errors import PetriNetError, UnknownNodeError
from .net import Marking, PetriNet

__all__ = [
    "MarkingCodec",
    "CompiledNet",
    "Exploration",
    "explore",
    "check_budget",
    "ReachabilityGraph",
    "reachability_graph",
    "is_bounded",
    "bound_of",
    "DeadlockResult",
    "find_deadlocks",
    "LivenessResult",
    "is_live",
    "dead_transitions",
    "incidence_matrix",
    "place_invariants",
    "transition_invariants",
    "conservative_weights",
]

_MarkingKey = tuple[int, ...]


def check_budget(
    value: object, name: str = "max_nodes", error: type[Exception] = PetriNetError
) -> int:
    """``value`` as a state budget: an ``int`` >= 1 that is not a ``bool``.

    Raises
    ------
    PetriNetError
        (or ``error``) naming ``name`` for anything else — ``0``, a
        float such as ``nan`` (which no size ever reaches), a ``bool``.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise error(f"{name} must be an int >= 1, got {value!r}")
    return value


class MarkingCodec:
    """Canonical marking keys/encodings in fixed place order.

    The codec snapshots a net's place order once; every key is then a
    plain tuple of counts in that order — no per-marking sorting, which
    is what made ``Marking.frozen()`` the interning hot spot.
    """

    __slots__ = ("places", "_index", "_getter")

    def __init__(self, net: PetriNet) -> None:
        self.places: tuple[str, ...] = tuple(net.places)
        self._index: dict[str, int] = {
            place: i for i, place in enumerate(self.places)
        }
        # itemgetter reads all counts in one C call on the (dense)
        # markings the analysers produce; sparse markings fall back to
        # a per-place get in key().
        if len(self.places) > 1:
            self._getter = itemgetter(*self.places)
        elif self.places:
            single = self.places[0]
            self._getter = lambda marking: (marking[single],)
        else:
            self._getter = lambda marking: ()

    def __len__(self) -> int:
        return len(self.places)

    def index_of(self, place: str) -> int:
        """Position of ``place`` in the fixed order.

        Raises
        ------
        PetriNetError
            For a place the codec's net does not have.
        """
        try:
            return self._index[place]
        except KeyError:
            raise PetriNetError(f"codec knows no place {place!r}") from None

    def key(self, marking: Mapping[str, int]) -> _MarkingKey:
        """Hashable canonical key (counts tuple in fixed place order).

        Unlike ``Marking.frozen()`` this never sorts; dense markings
        (every place present — what the analysers produce) take a
        single C-level multi-get.
        """
        try:
            return self._getter(marking)
        except KeyError:
            return tuple(marking.get(place, 0) for place in self.places)

    def marking(self, counts: Sequence[int]) -> Marking:
        """Rebuild a :class:`~repro.petri.net.Marking` from counts."""
        return Marking(zip(self.places, counts))


class CompiledNet:
    """A net lowered to integer index arrays for fast firing.

    Compilation happens once per analysis; after that, enabledness is a
    few list lookups and firing is sparse addition — no ``Marking``
    dicts, no name hashing, no re-validation.
    """

    __slots__ = (
        "net",
        "codec",
        "transitions",
        "pre",
        "delta",
        "capacity_checks",
        "affected",
    )

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.codec = MarkingCodec(net)
        self.transitions: tuple[str, ...] = tuple(net.transitions)
        #: per transition: ``[(place_index, required_tokens), ...]``
        self.pre: list[list[tuple[int, int]]] = []
        #: per transition: ``[(place_index, token_change), ...]`` nonzero
        self.delta: list[list[tuple[int, int]]] = []
        #: per transition: ``[(place_index, inflow, capacity), ...]``
        self.capacity_checks: list[list[tuple[int, int, int]]] = []
        index_of = {place: i for i, place in enumerate(self.codec.places)}
        places = net.places
        for transition in self.transitions:
            inputs = net.inputs(transition)
            outputs = net.outputs(transition)
            self.pre.append(
                [(index_of[place], weight) for place, weight in inputs.items()]
            )
            delta: dict[int, int] = {}
            for place, weight in inputs.items():
                delta[index_of[place]] = -weight
            for place, weight in outputs.items():
                index = index_of[place]
                delta[index] = delta.get(index, 0) + weight
            self.delta.append(
                [(index, change) for index, change in delta.items() if change]
            )
            checks = []
            for place, weight in outputs.items():
                capacity = places[place].capacity
                if capacity is None:
                    continue
                stays_minus = inputs.get(place, 0)
                checks.append((index_of[place], weight - stays_minus, capacity))
            self.capacity_checks.append(checks)
        # A transition's enabledness reads its input places and its
        # capacity-checked output places, and nothing else.
        readers: list[list[int]] = [[] for __ in self.codec.places]
        for transition_index, (pre, checks) in enumerate(
            zip(self.pre, self.capacity_checks)
        ):
            for index, __ in pre:
                readers[index].append(transition_index)
            for index, __, __ in checks:
                readers[index].append(transition_index)
        #: per transition: the transitions whose enabledness its firing
        #: can change (the readers of the places it changes), ascending
        self.affected: list[tuple[int, ...]] = [
            tuple(sorted({other for index, __ in delta for other in readers[index]}))
            for delta in self.delta
        ]

    def initial_counts(self) -> tuple[int, ...]:
        """The net's current marking as a counts tuple."""
        return self.codec.key(self.net.marking())

    def enabled(self, counts: Sequence[int], transition_index: int) -> bool:
        """Whether transition ``transition_index`` may fire in ``counts``
        (token sufficiency plus capacity headroom, matching
        :meth:`~repro.petri.net.PetriNet.is_enabled`)."""
        for index, required in self.pre[transition_index]:
            if counts[index] < required:
                return False
        for index, inflow, capacity in self.capacity_checks[transition_index]:
            if counts[index] + inflow > capacity:
                return False
        return True

    def fire(
        self, counts: Sequence[int], transition_index: int
    ) -> tuple[int, ...]:
        """Successor counts of firing an *enabled* transition."""
        successor = list(counts)
        for index, change in self.delta[transition_index]:
            successor[index] += change
        return tuple(successor)


@dataclass
class Exploration:
    """Raw exploration output: interned states and adjacency.

    ``states`` holds counts tuples in discovery (BFS) order;
    ``succ`` is the adjacency list (``(transition_index, target)``
    pairs); ``parent`` maps each non-initial state to the
    ``(source, transition_index)`` edge that discovered it, which is
    how counterexample traces are reconstructed without storing paths.
    """

    codec: MarkingCodec
    transitions: tuple[str, ...]
    states: list[tuple[int, ...]] = field(default_factory=list)
    succ: list[list[tuple[int, int]]] = field(default_factory=list)
    parent: list[tuple[int, int]] = field(default_factory=list)
    complete: bool = True
    compiled: "CompiledNet | None" = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.states)

    def trace_to(self, index: int) -> tuple[str, ...]:
        """Transition names firing from the initial marking to state
        ``index``."""
        names: list[str] = []
        while index != 0:
            source, transition_index = self.parent[index]
            names.append(self.transitions[transition_index])
            index = source
        names.reverse()
        return tuple(names)

    def marking_of(self, index: int) -> Marking:
        """State ``index`` as a :class:`~repro.petri.net.Marking`."""
        return self.codec.marking(self.states[index])

    def deadlock_indices(self) -> list[int]:
        """Genuinely dead states (no transition enabled).

        On a budget-truncated exploration, frontier states whose
        successors were never interned have empty edge lists without
        being dead — they are re-checked for enabledness rather than
        misreported."""
        candidates = [i for i, out in enumerate(self.succ) if not out]
        if self.complete:
            return candidates
        compiled = self.compiled
        return [
            i
            for i in candidates
            if not any(
                compiled.enabled(self.states[i], t)
                for t in range(len(self.transitions))
            )
        ]

    def to_reachability_graph(self) -> ReachabilityGraph:
        """The :class:`ReachabilityGraph` view of this exploration
        (same node order, same edges)."""
        graph = ReachabilityGraph(complete=self.complete)
        graph.nodes = [self.marking_of(i) for i in range(len(self.states))]
        graph.edges.extend(
            (source, self.transitions[transition_index], target)
            for source, out in enumerate(self.succ)
            for transition_index, target in out
        )
        return graph


def _enabled_bits(
    counts: Sequence[int],
    tests: list[tuple[int, list[tuple[int, int]], list[tuple[int, int, int]]]],
) -> int:
    """The OR of the bits of the ``(bit, inputs, capacity checks)``
    tests that ``counts`` passes (:meth:`CompiledNet.enabled` inlined)."""
    mask = 0
    for bit, pre, checks in tests:
        for index, required in pre:
            if counts[index] < required:
                break
        else:
            for index, inflow, capacity in checks:
                if counts[index] + inflow > capacity:
                    break
            else:
                mask |= bit
    return mask


def explore(
    compiled: CompiledNet,
    max_states: int,
    stop: Callable[[Exploration, int], bool] | None = None,
) -> Exploration:
    """Breadth-first exploration of up to ``max_states`` markings.

    States are expanded in discovery order, each one's successors in
    transition-index order.  An edge to a marking that no longer fits
    the budget is dropped and the result is marked ``complete=False``.

    ``stop(exploration, index)`` is called before state ``index`` is
    expanded, for ``index`` = 0, 1, 2, …: states below ``index`` are
    expanded, and ``exploration.states`` holds every state found so
    far.  A true result ends the search with ``complete=False``.  A
    search that runs out of states makes one last call, with
    ``len(states)``, whose result is ignored.

    A firing costs only what it changes.  Each marking is interned by
    one integer that packs its counts, place ``i`` in the ``width``
    bits from bit ``width * i``, and a firing's successor key is the
    source key plus the transition's packed change.  ``width`` is the
    bit length of ``max(initial) + max_states * gain``, where ``gain``
    is the largest increase one firing makes at one place.  No field
    can overflow into the next: a state within the budget is reached
    by fewer than ``max_states`` firings, so no count of it, or of a
    successor of it (even one dropped for the budget), exceeds that
    bound; and only enabled transitions fire, so no count goes below
    zero.  Each state also carries its enabled transitions as a bit
    mask.  A new state inherits its parent's mask and re-tests only the
    transitions that read a place the firing changed
    (:attr:`CompiledNet.affected`).  The counts tuple is built only for
    a state seen for the first time.

    Raises
    ------
    PetriNetError
        On a budget that is not an ``int`` >= 1.
    """
    check_budget(max_states, "max_states")
    exploration = Exploration(
        codec=compiled.codec, transitions=compiled.transitions, compiled=compiled
    )
    states = exploration.states
    succ = exploration.succ
    parent = exploration.parent
    initial = compiled.initial_counts()
    gain = max(
        (change for delta in compiled.delta for __, change in delta if change > 0),
        default=0,
    )
    width = (max(initial, default=0) + max_states * gain).bit_length()
    steps = [
        sum(change << width * index for index, change in delta)
        for delta in compiled.delta
    ]
    bits = [1 << transition_index for transition_index in range(len(steps))]
    tests = list(zip(bits, compiled.pre, compiled.capacity_checks))
    # Per transition, what a new state found by it needs: the counts
    # change, the mask of the bits the firing leaves alone, and the
    # enabledness tests of the transitions it can affect.
    news = [
        (
            delta,
            ~sum(bits[other] for other in affected),
            [tests[other] for other in affected],
        )
        for delta, affected in zip(compiled.delta, compiled.affected)
    ]
    key = sum(count << width * index for index, count in enumerate(initial))
    index_of: dict[int, int] = {key: 0}
    index_get = index_of.get
    keys = [key]
    masks = [_enabled_bits(initial, tests)]
    states.append(initial)
    succ.append([])
    parent.append((-1, -1))
    # States are appended in discovery order and expanded first in,
    # first out, so the BFS queue is just the next index to expand.
    current_index = 0
    while current_index < len(states):
        if stop is not None and stop(exploration, current_index):
            exploration.complete = False
            return exploration
        current_key = keys[current_index]
        current_mask = masks[current_index]
        out = succ[current_index]
        pending = current_mask
        while pending:
            bit = pending & -pending
            pending ^= bit
            transition_index = bit.bit_length() - 1
            key = current_key + steps[transition_index]
            target = index_get(key)
            if target is None:
                if len(states) >= max_states:
                    exploration.complete = False
                    continue
                target = len(states)
                index_of[key] = target
                keys.append(key)
                delta, keep, retests = news[transition_index]
                successor = list(states[current_index])
                for index, change in delta:
                    successor[index] += change
                masks.append(current_mask & keep | _enabled_bits(successor, retests))
                states.append(tuple(successor))
                succ.append([])
                parent.append((current_index, transition_index))
            out.append((transition_index, target))
        current_index += 1
    if stop is not None:
        stop(exploration, current_index)
    return exploration


def _explore_net(net: PetriNet, max_nodes: int) -> Exploration:
    check_budget(max_nodes)
    return explore(CompiledNet(net), max_nodes)


@dataclass
class ReachabilityGraph:
    """Explicit reachability graph of a net from its current marking.

    Attributes
    ----------
    nodes:
        All discovered markings in discovery (BFS) order.
    edges:
        ``(source_index, transition, target_index)`` triples.
    complete:
        ``False`` when exploration stopped at ``max_nodes`` and states
        may be missing.
    """

    nodes: list[Marking] = field(default_factory=list)
    edges: list[tuple[int, str, int]] = field(default_factory=list)
    complete: bool = True

    def __len__(self) -> int:
        return len(self.nodes)

    def successors(self, index: int) -> Iterator[tuple[str, int]]:
        """Yield ``(transition, target_index)`` pairs for a node."""
        for source, transition, target in self.edges:
            if source == index:
                yield transition, target

    def deadlock_indices(self) -> list[int]:
        """Indices of nodes with no outgoing edge."""
        sources = {source for source, __, __ in self.edges}
        return [i for i in range(len(self.nodes)) if i not in sources]

    def transitions_seen(self) -> set[str]:
        """All transitions that label at least one edge."""
        return {transition for __, transition, __ in self.edges}


def reachability_graph(net: PetriNet, max_nodes: int = 10_000) -> ReachabilityGraph:
    """Explore the state space of ``net`` from its current marking.

    The :func:`explore` search as ``Marking`` dicts and labelled edges:
    it stops after ``max_nodes`` distinct markings, setting
    ``complete=False`` on the result.

    Raises
    ------
    PetriNetError
        On a budget that is not an ``int`` >= 1.
    """
    return _explore_net(net, max_nodes).to_reachability_graph()


def is_bounded(net: PetriNet, max_nodes: int = 10_000) -> bool:
    """Coverability-based boundedness check.

    Walks the reachability tree depth-first keeping each branch's
    ancestor chain; if a marking strictly covers one of its ancestors
    the net is unbounded (a pumpable firing sequence exists).  A net
    whose exploration drains within ``max_nodes`` without such a cover
    is bounded; exceeding the budget without a verdict raises.

    Each chain link records the smallest token sum on the chain up to
    it.  A strict cover needs a strictly larger token sum, so a marking
    whose sum is at most that minimum skips the scan, and a scan stops
    at the first link whose minimum reaches the marking's sum.

    Raises
    ------
    PetriNetError
        On a budget that is not an ``int`` >= 1, or when the budget is
        exhausted before a verdict.
    """
    check_budget(max_nodes)
    compiled = CompiledNet(net)
    transition_indices = range(len(compiled.transitions))
    # A link is (counts, token sum, smallest sum on the chain up to and
    # including it, parent link); a stack entry is (counts, the link of
    # the marking that pushed it).
    stack: list[tuple[_MarkingKey, tuple | None]] = [
        (compiled.initial_counts(), None)
    ]
    seen: set[_MarkingKey] = set()
    while stack:
        counts, chain = stack.pop()
        if counts in seen:
            continue
        seen.add(counts)
        if len(seen) > max_nodes:
            raise PetriNetError(
                f"boundedness undecided within {max_nodes} nodes"
            )
        total = sum(counts)
        floor = total
        if chain is not None:
            link = chain
            while link is not None and link[2] < total:
                if link[1] < total and all(
                    mine >= theirs for mine, theirs in zip(counts, link[0])
                ):
                    return False
                link = link[3]
            floor = min(total, chain[2])
        node = (counts, total, floor, chain)
        for transition_index in transition_indices:
            if compiled.enabled(counts, transition_index):
                successor = compiled.fire(counts, transition_index)
                # A marking already seen would be skipped on pop.
                if successor not in seen:
                    stack.append((successor, node))
    return True


def bound_of(net: PetriNet, place: str, max_nodes: int = 10_000) -> int:
    """Maximum token count ``place`` reaches over the explored graph.

    Only meaningful on bounded nets (check :func:`is_bounded` first);
    on incomplete exploration this is a lower bound.

    Raises
    ------
    UnknownNodeError
        For a place the net does not have, before any exploration.
    PetriNetError
        On a budget that is not an ``int`` >= 1.
    """
    check_budget(max_nodes)
    if place not in net.places:
        raise UnknownNodeError(f"unknown place {place!r} in {net.name!r}")
    compiled = CompiledNet(net)
    index = compiled.codec.index_of(place)
    states = explore(compiled, max_nodes).states
    return max(counts[index] for counts in states)


class DeadlockResult(list):
    """Reachable dead markings plus exploration provenance.

    Behaves exactly like the plain ``list[Marking]`` it used to be,
    with two extra attributes: ``complete`` (``False`` when the state
    budget truncated exploration, so deadlocks may be missing) and
    ``explored`` (how many distinct markings were visited).  An empty
    result with ``complete=False`` is *not* a deadlock-freedom proof.
    """

    def __init__(
        self,
        deadlocks: Sequence[Marking] = (),
        complete: bool = True,
        explored: int = 0,
    ) -> None:
        super().__init__(deadlocks)
        self.complete = complete
        self.explored = explored


def find_deadlocks(net: PetriNet, max_nodes: int = 10_000) -> DeadlockResult:
    """All reachable dead markings (no transition enabled).

    The result carries ``complete``/``explored`` so a truncated search
    cannot masquerade as a definitive all-clear.  On a truncated graph
    the edge-less frontier nodes (whose successors were simply never
    interned) are re-checked for enabledness, so only genuinely dead
    markings are reported.
    """
    exploration = _explore_net(net, max_nodes)
    return DeadlockResult(
        [exploration.marking_of(i) for i in exploration.deadlock_indices()],
        complete=exploration.complete,
        explored=len(exploration),
    )


def dead_transitions(net: PetriNet, max_nodes: int = 10_000) -> set[str]:
    """Transitions that never fire anywhere in the explored graph (L0-dead).

    Raises
    ------
    PetriNetError
        When the budget truncated the exploration before every
        transition was seen to fire: the rest may fire further on.
    """
    exploration = _explore_net(net, max_nodes)
    fired = {t for out in exploration.succ for t, __ in out}
    dead = {
        name
        for index, name in enumerate(exploration.transitions)
        if index not in fired
    }
    if dead and not exploration.complete:
        raise PetriNetError(
            f"dead transitions undecided within {max_nodes} markings: "
            f"{sorted(dead)} did not fire before the budget ran out"
        )
    return dead


@dataclass(frozen=True)
class LivenessResult:
    """Tri-state liveness verdict with exploration provenance.

    ``live`` is ``None`` when the state budget truncated exploration
    before a verdict; ``complete``/``explored`` say how far the search
    got.  Using an undecided result as a boolean raises, so truncation
    can never silently pass for a definitive answer — inspect ``live``
    (or ``decided``) to handle the undecided case explicitly.
    """

    live: bool | None
    complete: bool
    explored: int

    @property
    def decided(self) -> bool:
        """Whether exploration reached a definitive verdict."""
        return self.live is not None

    def __bool__(self) -> bool:
        if self.live is None:
            raise PetriNetError(
                f"liveness undecided: state space exceeded the budget "
                f"after {self.explored} markings"
            )
        return self.live


def is_live(net: PetriNet, max_nodes: int = 10_000) -> LivenessResult:
    """Liveness over the explored graph (L4 in Murata's hierarchy).

    Every transition must be fireable again from every reachable
    marking.  On the complete graph that holds iff every bottom
    strongly connected component has an edge of every transition,
    decided in one Tarjan pass.  On a truncated exploration the result
    is undecided (``LivenessResult(live=None, complete=False, ...)``)
    rather than a guess; truthiness of an undecided result raises.
    """
    exploration = _explore_net(net, max_nodes)
    explored = len(exploration)
    if not exploration.complete:
        return LivenessResult(live=None, complete=False, explored=explored)
    live = _bottom_components_fire_all(
        exploration.succ, len(exploration.transitions)
    )
    return LivenessResult(live=live, complete=True, explored=explored)


def _bottom_components_fire_all(
    succ: list[list[tuple[int, int]]], transition_count: int
) -> bool:
    """Whether every bottom SCC of the graph carries an edge of each of
    ``transition_count`` transitions (iterative Tarjan; every node is
    reachable from node 0)."""
    order = [-1] * len(succ)  # DFS discovery number
    low = [0] * len(succ)
    component = [-1] * len(succ)  # set once the node's SCC is popped
    on_path = [0]  # Tarjan's stack of nodes without a component yet
    order[0] = 0
    counter = 1
    components = 0
    work = [(0, iter(succ[0]))]
    while work:
        node, edges = work[-1]
        for __, target in edges:
            if order[target] < 0:
                order[target] = low[target] = counter
                counter += 1
                on_path.append(target)
                work.append((target, iter(succ[target])))
                break
            if component[target] < 0 and order[target] < low[node]:
                low[node] = order[target]
        else:
            work.pop()
            if work:
                caller = work[-1][0]
                if low[node] < low[caller]:
                    low[caller] = low[node]
            if low[node] != order[node]:
                continue
            members = []
            while True:
                member = on_path.pop()
                component[member] = components
                members.append(member)
                if member == node:
                    break
            # Components pop in reverse topological order: an edge out
            # of this one ends in a component that is already numbered.
            fired: set[int] = set()
            bottom = True
            for member in members:
                for transition_index, target in succ[member]:
                    if component[target] != components:
                        bottom = False
                        break
                    fired.add(transition_index)
                if not bottom:
                    break
            if bottom and len(fired) < transition_count:
                return False
            components += 1
    return True


def incidence_matrix(net: PetriNet) -> tuple[list[str], list[str], list[list[int]]]:
    """The incidence matrix ``C[p][t] = O(t)(p) - I(t)(p)``.

    Returns ``(place_names, transition_names, matrix)`` with rows indexed
    by place and columns by transition, both in insertion order.
    """
    place_names = list(net.places)
    transition_names = list(net.transitions)
    matrix = []
    for place in place_names:
        row = []
        for transition in transition_names:
            produced = net.outputs(transition).get(place, 0)
            consumed = net.inputs(transition).get(place, 0)
            row.append(produced - consumed)
        matrix.append(row)
    return place_names, transition_names, matrix


def _null_space(
    matrix: list[list[int]], names: list[str]
) -> list[dict[str, Fraction]]:
    """A basis of ``{x : matrix · x = 0}`` over the rationals, by
    Gauss-Jordan elimination.

    ``names`` label the columns; each basis vector is a dict of its
    nonzero entries, one per free column in column order.  No columns,
    no basis.
    """
    columns = len(names)
    if columns == 0:
        return []
    rows = [[Fraction(value) for value in row] for row in matrix]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(columns):
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
        # Incidence matrices are sparse: only the pivot row's nonzero
        # columns can change another row.
        pivot = [(c, value) for c, value in enumerate(rows[rank]) if value != 0]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != rank and factor != 0:
                for c, value in pivot:
                    row[c] -= factor * value
        pivot_cols.append(col)
        rank += 1
    pivot_set = set(pivot_cols)
    basis = []
    for free in (c for c in range(columns) if c not in pivot_set):
        vector = [Fraction(0)] * columns
        vector[free] = Fraction(1)
        for r, pivot_col in enumerate(pivot_cols):
            vector[pivot_col] = -rows[r][free]
        basis.append(
            {names[i]: vector[i] for i in range(columns) if vector[i] != 0}
        )
    return basis


def place_invariants(net: PetriNet) -> list[dict[str, Fraction]]:
    """A basis of place invariants (left null space of the incidence
    matrix) over the rationals.

    Each invariant is a weighting ``y`` of places with
    ``y · C = 0``; for any reachable marking ``m``,
    ``y · m == y · m0``.  Used to prove token conservation of the
    OCPN constructions.
    """
    place_names, transition_names, matrix = incidence_matrix(net)
    # y^T C = 0  <=>  C^T y = 0.
    transposed = [
        [row[t] for row in matrix] for t in range(len(transition_names))
    ]
    return _null_space(transposed, place_names)


def transition_invariants(net: PetriNet) -> list[dict[str, Fraction]]:
    """A basis of transition invariants (right null space of the
    incidence matrix) over the rationals.

    A T-invariant ``x`` satisfies ``C · x = 0``: firing each transition
    ``t`` exactly ``x[t]`` times (in some realizable order) reproduces
    the starting marking.  Cyclic presentation structures (loops, token
    round-trips) show up here; a one-shot OCPN typically has none.
    """
    __, transition_names, matrix = incidence_matrix(net)
    return _null_space(matrix, transition_names)


def conservative_weights(net: PetriNet) -> dict[str, Fraction] | None:
    """A strictly positive place invariant, if one exists.

    A net with such a weighting is *conservative*: the weighted token
    count is constant under any firing.  Returns ``None`` when no
    strictly positive combination of the invariant basis is found by the
    simple summation heuristic.
    """
    basis = place_invariants(net)
    if not basis:
        return None
    combined: dict[str, Fraction] = {}
    for invariant in basis:
        for place, weight in invariant.items():
            combined[place] = combined.get(place, Fraction(0)) + weight
    if len(combined) == len(net.places) and all(w > 0 for w in combined.values()):
        return combined
    return None
