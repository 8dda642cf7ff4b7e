"""Classic place/transition Petri nets.

This module implements the paper's Section 2.1 definition::

    C = (P, T, I, O)

with ``P`` a finite set of places, ``T`` a finite set of transitions
(the paper writes "transactions"), and ``I``/``O`` mapping each
transition to a *bag* (multiset) of input/output places.  Bags are
represented as integer arc weights.

The net object is mutable during construction and is then typically
executed either directly (:meth:`PetriNet.fire`) or through the timed /
prioritized engines built on top (:mod:`repro.petri.timed`,
:mod:`repro.petri.priority`).

Example
-------
>>> net = PetriNet("producer-consumer")
>>> __ = net.add_place("buffer", tokens=0)
>>> __ = net.add_place("ready", tokens=1)
>>> __ = net.add_transition("produce")
>>> net.add_arc("ready", "produce")
>>> net.add_arc("produce", "buffer")
>>> net.enabled_transitions()
['produce']
>>> net.fire("produce")
>>> net.marking()["buffer"]
1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import (
    DuplicateNodeError,
    NotEnabledError,
    PetriNetError,
    UnknownNodeError,
)

__all__ = ["Place", "Transition", "Marking", "PetriNet"]


def _check_count(value: object, what: str) -> None:
    """Refuse anything but an ``int`` that is not a ``bool``: token
    counts, capacities and arc weights are whole numbers, and a float
    or NaN would silently break every firing and search built on them.

    Raises
    ------
    PetriNetError
        Naming ``what`` and the value.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise PetriNetError(f"{what} must be an int, got {value!r}")


@dataclass
class Place:
    """A place (condition / resource holder) in the net.

    Attributes
    ----------
    name:
        Unique identifier within the net.
    tokens:
        Current token count (the net's marking stores the live value;
        this field holds the *initial* marking).
    capacity:
        Optional maximum token count; ``None`` means unbounded.
    label:
        Free-form annotation (e.g. the media object a place represents).
    """

    name: str
    tokens: int = 0
    capacity: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        _check_count(self.tokens, f"place {self.name!r}: tokens")
        if self.capacity is not None:
            _check_count(self.capacity, f"place {self.name!r}: capacity")
        if self.tokens < 0:
            raise PetriNetError(f"place {self.name!r}: negative tokens")
        if self.capacity is not None and self.capacity < self.tokens:
            raise PetriNetError(
                f"place {self.name!r}: initial tokens exceed capacity"
            )


@dataclass
class Transition:
    """A transition (event) in the net.

    Attributes
    ----------
    name:
        Unique identifier within the net.
    label:
        Free-form annotation (e.g. "start video").
    """

    name: str
    label: str | None = None


class Marking(dict):
    """A marking: mapping of place name to token count.

    Subclasses ``dict`` so it prints and compares naturally, and adds
    multiset helpers used by the reachability analyser.
    """

    def covers(self, other: Mapping[str, int]) -> bool:
        """``True`` when this marking has at least ``other``'s tokens
        everywhere (the ⊒ relation used for unboundedness detection)."""
        return all(self.get(place, 0) >= count for place, count in other.items())

    def strictly_covers(self, other: Mapping[str, int]) -> bool:
        """Covers and differs in at least one place."""
        return self.covers(other) and any(
            self.get(place, 0) > count for place, count in other.items()
        )

    def total_tokens(self) -> int:
        """Sum of tokens over all places."""
        return sum(self.values())

    def frozen(self) -> tuple[tuple[str, int], ...]:
        """Hashable canonical form (sorted items)."""
        return tuple(sorted(self.items()))


class PetriNet:
    """A mutable place/transition net with weighted arcs.

    Arc weights realize the paper's "bags of places": an input arc of
    weight *w* from place *p* to transition *t* means *t* consumes *w*
    tokens from *p*; an output arc produces *w* tokens.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: dict[str, Place] = {}
        self._transitions: dict[str, Transition] = {}
        # arc weight maps: transition -> {place -> weight}
        self._inputs: dict[str, dict[str, int]] = {}
        self._outputs: dict[str, dict[str, int]] = {}
        self._marking: Marking = Marking()
        self._fire_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_place(
        self,
        name: str,
        tokens: int = 0,
        capacity: int | None = None,
        label: str | None = None,
    ) -> Place:
        """Add a place; returns the created :class:`Place`.

        Raises
        ------
        DuplicateNodeError
            If a place or transition of that name already exists.
        """
        self._check_fresh(name)
        place = Place(name, tokens=tokens, capacity=capacity, label=label)
        self._places[name] = place
        self._marking[name] = tokens
        return place

    def add_transition(self, name: str, label: str | None = None) -> Transition:
        """Add a transition; returns the created :class:`Transition`."""
        self._check_fresh(name)
        transition = Transition(name, label=label)
        self._transitions[name] = transition
        self._inputs[name] = {}
        self._outputs[name] = {}
        return transition

    def add_arc(self, source: str, target: str, weight: int = 1) -> None:
        """Add an arc from ``source`` to ``target``.

        Exactly one endpoint must be a place and the other a transition.
        Adding an arc that already exists accumulates its weight.

        Raises
        ------
        PetriNetError
            On a weight that is not an ``int`` >= 1, or an arc that
            does not join a place and a transition.
        UnknownNodeError
            When an endpoint does not exist.
        """
        _check_count(weight, "arc weight")
        if weight < 1:
            raise PetriNetError(f"arc weight must be >= 1, got {weight!r}")
        if source in self._places and target in self._transitions:
            arcs = self._inputs[target]
            arcs[source] = arcs.get(source, 0) + weight
            return
        if source in self._transitions and target in self._places:
            arcs = self._outputs[source]
            arcs[target] = arcs.get(target, 0) + weight
            return
        if source not in self._places and source not in self._transitions:
            raise UnknownNodeError(f"unknown node {source!r}")
        if target not in self._places and target not in self._transitions:
            raise UnknownNodeError(f"unknown node {target!r}")
        raise PetriNetError(
            f"arc must connect a place and a transition, got "
            f"{source!r} -> {target!r}"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def places(self) -> dict[str, Place]:
        """All places by name (live view; do not mutate)."""
        return self._places

    @property
    def transitions(self) -> dict[str, Transition]:
        """All transitions by name (live view; do not mutate)."""
        return self._transitions

    def inputs(self, transition: str) -> dict[str, int]:
        """Input bag ``I(t)`` of a transition as {place: weight}."""
        self._check_transition(transition)
        return dict(self._inputs[transition])

    def outputs(self, transition: str) -> dict[str, int]:
        """Output bag ``O(t)`` of a transition as {place: weight}."""
        self._check_transition(transition)
        return dict(self._outputs[transition])

    def preset_of_place(self, place: str) -> list[str]:
        """Transitions with an output arc into ``place``."""
        self._check_place(place)
        return [t for t, arcs in self._outputs.items() if place in arcs]

    def postset_of_place(self, place: str) -> list[str]:
        """Transitions with an input arc from ``place``."""
        self._check_place(place)
        return [t for t, arcs in self._inputs.items() if place in arcs]

    def marking(self) -> Marking:
        """A copy of the current marking."""
        return Marking(self._marking)

    def tokens(self, place: str) -> int:
        """Current token count of ``place``."""
        self._check_place(place)
        return self._marking[place]

    @property
    def fire_count(self) -> int:
        """Total number of firings executed on this net instance."""
        return self._fire_count

    # ------------------------------------------------------------------
    # Marking manipulation
    # ------------------------------------------------------------------
    def set_marking(self, marking: Mapping[str, int]) -> None:
        """Replace the current marking (places absent from the mapping
        get zero tokens).

        Raises
        ------
        PetriNetError
            On a count that is not an ``int`` >= 0.
        """
        for place, count in marking.items():
            self._check_place(place)
            _check_count(count, f"tokens for place {place!r}")
            if count < 0:
                raise PetriNetError(f"negative tokens for place {place!r}")
        self._marking = Marking({name: 0 for name in self._places})
        self._marking.update(marking)

    def reset(self) -> None:
        """Restore every place to its initial token count."""
        self._marking = Marking(
            {name: place.tokens for name, place in self._places.items()}
        )
        self._fire_count = 0

    def put_token(self, place: str, count: int = 1) -> None:
        """Inject ``count`` tokens into ``place`` (external event).

        Raises
        ------
        PetriNetError
            On a count that is not an ``int`` >= 0.
        """
        self._check_place(place)
        _check_count(count, "token count")
        if count < 0:
            raise PetriNetError("cannot put a negative number of tokens")
        self._marking[place] += count

    def take_token(self, place: str, count: int = 1) -> None:
        """Remove ``count`` tokens from ``place``.

        Raises
        ------
        PetriNetError
            On a count that is not an ``int`` >= 0, or if the place
            holds fewer than ``count`` tokens.
        """
        self._check_place(place)
        _check_count(count, "token count")
        if count < 0:
            raise PetriNetError("cannot take a negative number of tokens")
        if self._marking[place] < count:
            raise PetriNetError(
                f"place {place!r} holds {self._marking[place]} tokens, "
                f"cannot take {count}"
            )
        self._marking[place] -= count

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def is_enabled(self, transition: str, marking: Mapping[str, int] | None = None) -> bool:
        """Whether ``transition`` may fire in ``marking`` (default: current).

        A transition is enabled when every input place holds at least the
        arc weight and firing would not overflow any capacitated output
        place.
        """
        self._check_transition(transition)
        current = self._marking if marking is None else marking
        for place, weight in self._inputs[transition].items():
            if current.get(place, 0) < weight:
                return False
        for place, weight in self._outputs[transition].items():
            capacity = self._places[place].capacity
            if capacity is None:
                continue
            stays = current.get(place, 0) - self._inputs[transition].get(place, 0)
            if stays + weight > capacity:
                return False
        return True

    def enabled_transitions(self, marking: Mapping[str, int] | None = None) -> list[str]:
        """Names of all enabled transitions, in insertion order."""
        return [t for t in self._transitions if self.is_enabled(t, marking)]

    def fire(self, transition: str) -> Marking:
        """Fire ``transition``, updating and returning the new marking.

        Raises
        ------
        NotEnabledError
            If the transition is not enabled in the current marking.
        """
        if not self.is_enabled(transition):
            raise NotEnabledError(
                f"transition {transition!r} is not enabled in {self.name!r}"
            )
        for place, weight in self._inputs[transition].items():
            self._marking[place] -= weight
        for place, weight in self._outputs[transition].items():
            self._marking[place] += weight
        self._fire_count += 1
        return self.marking()

    def fire_sequence(self, transitions: Iterable[str]) -> Marking:
        """Fire a sequence of transitions in order; returns final marking."""
        for transition in transitions:
            self.fire(transition)
        return self.marking()

    def successor_marking(
        self, marking: Mapping[str, int], transition: str
    ) -> Marking:
        """The marking reached by firing ``transition`` from ``marking``,
        without touching the net's own state (used by the analyser)."""
        if not self.is_enabled(transition, marking):
            raise NotEnabledError(
                f"transition {transition!r} is not enabled in given marking"
            )
        result = Marking({name: marking.get(name, 0) for name in self._places})
        for place, weight in self._inputs[transition].items():
            result[place] -= weight
        for place, weight in self._outputs[transition].items():
            result[place] += weight
        return result

    def conflict_set(self, transition: str) -> list[str]:
        """Other enabled transitions competing for a shared input place.

        The prioritized fire rule (paper Section 2.2) resolves such
        conflicts in favour of priority arcs; the plain net just reports
        them.
        """
        self._check_transition(transition)
        if not self.is_enabled(transition):
            return []
        mine = set(self._inputs[transition])
        rivals = []
        for other in self._transitions:
            if other == transition:
                continue
            if not self.is_enabled(other):
                continue
            if mine & set(self._inputs[other]):
                rivals.append(other)
        return rivals

    def is_deadlocked(self) -> bool:
        """No transition is enabled in the current marking."""
        return not any(self.is_enabled(t) for t in self._transitions)

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Return a list of structural warnings (empty = clean).

        Checks for isolated nodes and transitions with no inputs (source
        transitions are legal but usually a spec mistake in presentation
        nets, where every transition should be driven by time or
        interaction).
        """
        warnings = []
        for name in self._places:
            used_as_input = any(name in arcs for arcs in self._inputs.values())
            used_as_output = any(name in arcs for arcs in self._outputs.values())
            if not used_as_input and not used_as_output:
                warnings.append(f"place {name!r} is isolated")
        for name in self._transitions:
            if not self._inputs[name] and not self._outputs[name]:
                warnings.append(f"transition {name!r} is isolated")
            elif not self._inputs[name]:
                warnings.append(f"transition {name!r} has no input places")
        return warnings

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_fresh(self, name: str) -> None:
        if name in self._places or name in self._transitions:
            raise DuplicateNodeError(f"node {name!r} already exists in {self.name!r}")

    def _check_place(self, name: str) -> None:
        if name not in self._places:
            raise UnknownNodeError(f"unknown place {name!r} in {self.name!r}")

    def _check_transition(self, name: str) -> None:
        if name not in self._transitions:
            raise UnknownNodeError(f"unknown transition {name!r} in {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PetriNet({self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)}, "
            f"tokens={self._marking.total_tokens()})"
        )
