"""Explicit-state model checking with counterexample traces.

Property checking built on the compiled explorer of
:mod:`repro.petri.analysis`: the same
:class:`~repro.petri.analysis.CompiledNet` index arrays, the same
breadth-first discovery order and the same
:class:`~repro.petri.analysis.Exploration` output (states interned
here as :class:`~repro.petri.analysis.MarkingCodec` byte encodings).
This module adds evaluating properties on the fly as each state is
discovered: a violation surfaces with a replayable firing trace
without materialising the whole graph, and the search stops once
every property is decided.  :meth:`ExplicitEngine.explore` is the
plain exploration, :func:`repro.petri.analysis.explore`.

Verdicts are never silently truncated: a safety property unviolated
within an *incomplete* exploration is ``UNKNOWN``, only a complete
sweep upgrades it to ``PROVED``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import CheckError, NotEnabledError
from ..petri.analysis import CompiledNet, Exploration, check_budget, explore
from ..petri.net import Marking, PetriNet
from .props import DeadlockFree, EventuallyFires, Property, Verdict

__all__ = [
    "CompiledNet",
    "Counterexample",
    "PropertyVerdict",
    "Exploration",
    "ExplicitEngine",
    "CheckReport",
    "check_explicit",
]


@dataclass(frozen=True)
class Counterexample:
    """A replayable witness: fire ``trace`` from ``start`` (the marking
    exploration began at) to reach the violating ``marking``."""

    trace: tuple[str, ...]
    marking: Marking
    start: Marking = field(default_factory=Marking)

    def replay(self, net: PetriNet) -> Marking:
        """Fire the trace from the recorded start marking and return
        the marking reached (also asserts it matches); the net's live
        marking is restored afterwards.

        Raises
        ------
        CheckError
            If the trace does not replay to the recorded marking —
            including a trace with an unfireable step.
        """
        saved = net.marking()
        try:
            net.set_marking(self.start)
            reached = net.fire_sequence(self.trace)
        except NotEnabledError as error:
            raise CheckError(
                f"counterexample does not replay: {error}"
            ) from None
        finally:
            net.set_marking(saved)
        if reached != self.marking:
            raise CheckError(
                f"counterexample does not replay: reached {reached!r}, "
                f"recorded {self.marking!r}"
            )
        return reached


@dataclass(frozen=True)
class PropertyVerdict:
    """One property's outcome: verdict, deciding method, and evidence.

    ``method`` names what decided it (``"invariant"``,
    ``"state-equation"``, ``"explicit"``); ``counterexample`` is set on
    ``VIOLATED``, ``witness`` on a ``PROVED`` liveness property;
    ``states`` is how many markings the deciding exploration visited
    (0 for purely structural proofs); ``note`` carries the certificate
    or the budget caveat.
    """

    prop: Property
    verdict: Verdict
    method: str
    counterexample: Counterexample | None = None
    witness: tuple[str, ...] | None = None
    states: int = 0
    note: str = ""


class ExplicitEngine:
    """Breadth-first explicit-state engine over a compiled net."""

    def __init__(self, net: PetriNet, max_states: int = 100_000) -> None:
        check_budget(max_states, "max_states", CheckError)
        self.compiled = CompiledNet(net)
        self.max_states = max_states

    def explore(self) -> Exploration:
        """Enumerate up to ``max_states`` reachable markings.

        Pure exploration (no properties) — the raw-throughput path the
        E13 benchmark measures against the legacy analyser.
        """
        return explore(self.compiled, self.max_states)

    def check(self, properties: Iterable[Property]) -> "CheckReport":
        """Explore with on-the-fly evaluation of ``properties``.

        Safety predicates are evaluated on every discovered marking;
        the search keeps going until every property is decided or the
        state budget runs out, so one sweep serves the whole batch.
        """
        props = tuple(properties)
        compiled_net = self.compiled.net
        for prop in props:
            prop.validate_against(compiled_net)
        exploration, verdicts = self._run(props)
        return CheckReport(
            net_name=compiled_net.name,
            verdicts=verdicts,
            explored=len(exploration),
            complete=exploration.complete,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run(
        self, props: tuple[Property, ...]
    ) -> tuple[Exploration, tuple[PropertyVerdict, ...]]:
        compiled = self.compiled
        codec = compiled.codec
        encode = codec.encode
        transition_count = len(compiled.transitions)
        exploration = Exploration(
            codec=codec, transitions=compiled.transitions, compiled=compiled
        )
        states = exploration.states
        succ = exploration.succ
        parent = exploration.parent

        # Property bookkeeping.  Linear safety properties get compiled
        # coefficient lists (index, coeff) so the per-state test is a
        # sparse dot product, not a dict lookup by name.
        safety: list[tuple[int, Property, list[tuple[int, int]] | None, int]] = []
        deadlock_props: list[int] = []
        # transition index -> every property slot awaiting that firing
        # (a list: duplicate EventuallyFires must all get the verdict)
        eventually: dict[int, list[int]] = {}
        verdicts: list[PropertyVerdict | None] = [None] * len(props)
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

        def violated(state: Sequence[int]) -> list[int]:
            slots = []
            marking = None  # built once per state, only if some
            # non-linear property still needs a dict view
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

        def undecided_remaining() -> bool:
            return any(verdict is None for verdict in verdicts)

        initial = compiled.initial_counts()
        index_of: dict[bytes, int] = {encode(initial): 0}
        states.append(initial)
        succ.append([])
        parent.append((-1, -1))

        def record_violation_slots(
            slots: list[int], trace: tuple[str, ...], marking: Marking
        ) -> None:
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

        def record_violations(state_index: int, slots: list[int]) -> None:
            if not slots:
                return  # trace reconstruction is O(depth); skip it
            record_violation_slots(
                slots,
                exploration.trace_to(state_index),
                exploration.marking_of(state_index),
            )

        if safety:
            record_violations(0, violated(initial))
        # The BFS below is the hot loop: transition data and containers
        # are bound to locals, and enabledness/firing are inlined
        # rather than routed through CompiledNet's methods, as in
        # repro.petri.analysis.explore, whose node order it keeps.
        pre_lists = compiled.pre
        delta_lists = compiled.delta
        capacity_lists = compiled.capacity_checks
        max_states = self.max_states
        index_get = index_of.get
        watch_props = bool(props)
        watch_safety = bool(safety)
        watch_eventually = bool(eventually)
        queue: deque[int] = deque([0])
        queue_pop = queue.popleft
        queue_push = queue.append
        while queue:
            if watch_props and not undecided_remaining():
                # Every property is decided; stop burning budget.  The
                # exploration is marked incomplete because states may
                # remain — callers must not read it as exhaustive.
                exploration.complete = False
                break
            current_index = queue_pop()
            current = states[current_index]
            out = succ[current_index]
            any_enabled = False
            for transition_index in range(transition_count):
                enabled = True
                for index, required in pre_lists[transition_index]:
                    if current[index] < required:
                        enabled = False
                        break
                if not enabled:
                    continue
                for index, inflow, capacity in capacity_lists[transition_index]:
                    if current[index] + inflow > capacity:
                        enabled = False
                        break
                if not enabled:
                    continue
                any_enabled = True
                if watch_eventually:
                    # The firing itself is the witness — record it even
                    # when the successor will not fit the state budget.
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
                successor = list(current)
                for index, change in delta_lists[transition_index]:
                    successor[index] += change
                key = encode(successor)
                target = index_get(key)
                if target is None:
                    if len(states) >= max_states:
                        exploration.complete = False
                        if watch_safety:
                            # The violating marking is already in hand;
                            # an over-budget successor must yield its
                            # VIOLATED verdict, not an UNKNOWN.
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
                    queue_push(target)
                    if watch_safety:
                        record_violations(target, violated(successor))
                out.append((transition_index, target))
            # Deadlock = no transition *enabled*, not "no edge recorded":
            # budget pressure can suppress edges to un-interned states.
            if not any_enabled and deadlock_props:
                slots = [
                    slot for slot in deadlock_props if verdicts[slot] is None
                ]
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
                verdicts[slot] = PropertyVerdict(
                    prop=prop,
                    verdict=verdict,
                    method="explicit",
                    states=explored,
                    note=note,
                )
            else:
                verdicts[slot] = PropertyVerdict(
                    prop=prop,
                    verdict=Verdict.UNKNOWN,
                    method="explicit",
                    states=explored,
                    note=(
                        f"undecided within the {self.max_states}-state "
                        f"budget ({explored} explored)"
                    ),
                )
        return exploration, tuple(v for v in verdicts if v is not None)


@dataclass(frozen=True)
class CheckReport:
    """Verdicts of one engine run over one net."""

    net_name: str
    verdicts: tuple[PropertyVerdict, ...]
    explored: int
    complete: bool

    def verdict_for(self, name: str) -> PropertyVerdict:
        """Look up one property's verdict by property name.

        Raises
        ------
        CheckError
            On an unknown property name (the message lists what
            exists).
        """
        for verdict in self.verdicts:
            if verdict.prop.name == name:
                return verdict
        known = [verdict.prop.name for verdict in self.verdicts]
        raise CheckError(f"no verdict for {name!r}; checked: {known}")

    @property
    def all_proved(self) -> bool:
        """Every property PROVED."""
        return all(v.verdict is Verdict.PROVED for v in self.verdicts)

    @property
    def any_violated(self) -> bool:
        """At least one property VIOLATED."""
        return any(v.verdict is Verdict.VIOLATED for v in self.verdicts)


def check_explicit(
    net: PetriNet,
    properties: Iterable[Property],
    max_states: int = 100_000,
) -> CheckReport:
    """One-call explicit check of ``properties`` against ``net``."""
    return ExplicitEngine(net, max_states=max_states).check(properties)
