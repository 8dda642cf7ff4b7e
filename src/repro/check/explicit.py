"""Explicit-state model checking with counterexample traces.

Property checking is a ``stop`` callback on the one explorer of
:mod:`repro.petri.analysis`, :func:`~repro.petri.analysis.explore`.
Before each expansion the callback evaluates the properties on what
the search gained since its last call: safety on every newly found
state, deadlock, firings and over-budget successors on the state just
expanded.  A newly found state is tested only against the undecided
safety properties its discovering firing can raise: a linear one when
that firing adds to its weighted sum, a non-linear one always.  The
initial state and the over-budget successors are tested against all
of them.  A violation surfaces with a replayable firing trace without
materialising the whole graph, and the search stops once every
property is decided.  :meth:`ExplicitEngine.explore` is the plain
exploration.

Verdicts are never silently truncated: a safety property unviolated
within an *incomplete* exploration is ``UNKNOWN``, only a complete
sweep upgrades it to ``PROVED``.
"""

from __future__ import annotations

from bisect import bisect_left
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
        E13 benchmark measures against its dict-BFS baseline.
        """
        return explore(self.compiled, self.max_states)

    def check(self, properties: Iterable[Property]) -> "CheckReport":
        """Explore with on-the-fly evaluation of ``properties``.

        Safety predicates are decided on every discovered marking.  A
        marking is tested only against the undecided ones its
        discovering firing can raise (a linear property when the firing
        adds to its weighted sum, an ``Invariant`` always): its parent
        was tested earlier against every one still undecided, and a
        firing that does not raise a linear sum cannot push it past its
        bound, so verdicts and evidence are those of testing them all.
        The search keeps going until every property is decided or the
        state budget runs out, so one sweep serves the whole batch.
        """
        props = tuple(properties)
        compiled = self.compiled
        for prop in props:
            prop.validate_against(compiled.net)
        codec = compiled.codec
        transitions = compiled.transitions
        max_states = self.max_states
        verdicts: list[PropertyVerdict | None] = [None] * len(props)
        # The undecided safety properties (``violate`` drops decided
        # ones).  Linear ones get compiled coefficient lists
        # (index, coeff) so the per-state test is a sparse dot product,
        # not a dict lookup by name.
        safety: list[tuple[int, Property, list[tuple[int, int]] | None, int]] = []
        deadlock_slots: list[int] = []
        # transition index -> every property slot awaiting that firing
        # (a list: duplicate EventuallyFires must all get the verdict)
        eventually: dict[int, list[int]] = {}
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
        # transition index -> the undecided safety entries its firing
        # can raise, in ``safety`` order: a linear one when the firing
        # adds to its weighted sum, any other one always.  A new state
        # is tested only against those of the firing that found it.
        coefficients = [
            None if sparse is None else dict(sparse) for __, __, sparse, __ in safety
        ]
        raised = [
            [
                entry
                for entry, coeffs in zip(safety, coefficients)
                if coeffs is None
                or sum(coeffs.get(index, 0) * change for index, change in delta) > 0
            ]
            for delta in compiled.delta
        ]
        undecided = len(props)
        found = 0  # states already checked for safety

        def violated(state: Sequence[int], entries: list) -> list[int]:
            slots = []
            marking = None  # built once per state, only if some
            # non-linear property still needs a dict view
            for slot, prop, sparse, bound in entries:
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

        def decide(slot: int, verdict: Verdict, states: int, **evidence) -> None:
            nonlocal undecided
            verdicts[slot] = PropertyVerdict(
                prop=props[slot],
                verdict=verdict,
                method="explicit",
                states=states,
                **evidence,
            )
            undecided -= 1

        def violate(
            exploration: Exploration,
            slots: list[int],
            trace: tuple[str, ...],
            marking: Marking,
            states: int,
        ) -> None:
            counterexample = Counterexample(
                trace=trace, marking=marking, start=exploration.marking_of(0)
            )
            for slot in slots:
                decide(slot, Verdict.VIOLATED, states, counterexample=counterexample)
            safety[:] = [entry for entry in safety if verdicts[entry[0]] is None]
            for entries in raised:
                entries[:] = [entry for entry in entries if verdicts[entry[0]] is None]

        def settle(exploration: Exploration, index: int) -> None:
            # State ``index`` has just been expanded.  Deadlock means no
            # transition *enabled*, not "no edge recorded": budget
            # pressure can hide edges to un-interned states.
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
            # The firing itself is the witness, even when its successor
            # did not fit the budget.  Parent edges strictly increase in
            # (source, transition), so the bisect counts the markings
            # known when ``t`` fired from ``index``.
            for t in [t for t in eventually if compiled.enabled(current, t)]:
                witness = exploration.trace_to(index) + (transitions[t],)
                states = bisect_left(exploration.parent, (index, t))
                for slot in eventually.pop(t):
                    decide(slot, Verdict.PROVED, states, witness=witness)
            # Once the budget is full, the enabled transitions missing
            # from ``out`` are the firings that did not fit.  Their
            # successors are in hand: a violation there is VIOLATED,
            # not UNKNOWN.
            if safety and len(exploration.states) >= max_states:
                fired = {t for t, __ in out}
                for t in range(len(transitions)):
                    if t in fired or not compiled.enabled(current, t):
                        continue
                    successor = compiled.fire(current, t)
                    slots = violated(successor, safety)
                    if slots:
                        violate(
                            exploration,
                            slots,
                            exploration.trace_to(index) + (transitions[t],),
                            codec.marking(successor),
                            len(exploration.states),
                        )

        def stop(exploration: Exploration, index: int) -> bool:
            nonlocal found
            states = exploration.states
            if safety:
                # The state that found state ``j`` was tested earlier
                # against every entry still undecided, and a firing that
                # does not raise a linear sum cannot push it past its
                # bound: only the initial state needs every entry.
                parent = exploration.parent
                for j in range(found, len(states)):
                    entries = raised[parent[j][1]] if j else safety
                    if not entries:
                        continue
                    slots = violated(states[j], entries)
                    if slots:  # trace reconstruction is O(depth)
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

        exploration = explore(compiled, max_states, stop if props else None)
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
            net_name=compiled.net.name,
            verdicts=tuple(verdicts),
            explored=explored,
            complete=complete,
        )


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
