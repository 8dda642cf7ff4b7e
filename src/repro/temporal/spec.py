"""Presentation specifications: media items plus Allen constraints.

Authors describe a presentation declaratively::

    spec = PresentationSpec("lecture")
    spec.add(video("talk", 300.0))
    spec.add(image("slide1", 60.0))
    spec.relate("slide1", "talk", Relation.DURING, offset=30.0)

and the compiler (:mod:`repro.temporal.compiler`) turns the spec into an
executable OCPN.  The spec layer validates names and relation
feasibility early, so authoring errors surface before execution — the
paper's "users can dynamically modify and verify different kinds of
conditions during the presentation".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InconsistentSpecError, TemporalError
from ..media.objects import MediaObject
from ..petri.ocpn import EPSILON
from .intervals import Relation

__all__ = ["Constraint", "PresentationSpec"]


@dataclass(frozen=True)
class Constraint:
    """One temporal constraint: ``first relation second`` (+ offset)."""

    first: str
    second: str
    relation: Relation
    offset: float = 0.0


class PresentationSpec:
    """A named set of media items and pairwise Allen constraints.

    The spec forms a *constraint forest*: each media item may appear as
    the ``second`` operand of at most one constraint (its anchor), which
    keeps the structure compilable into a hierarchical OCPN without a
    general constraint solver.  Unconstrained items play sequentially
    after the constrained structure, in insertion order.
    """

    def __init__(self, name: str = "presentation") -> None:
        self.name = name
        self._media: dict[str, MediaObject] = {}
        self._constraints: list[Constraint] = []

    # ------------------------------------------------------------------
    # Authoring
    # ------------------------------------------------------------------
    def add(self, media: MediaObject) -> MediaObject:
        """Register a media item.

        Raises
        ------
        TemporalError
            On duplicate names.
        """
        if media.name in self._media:
            raise TemporalError(f"media {media.name!r} already in spec")
        self._media[media.name] = media
        return media

    def relate(
        self, first: str, second: str, relation: Relation, offset: float = 0.0
    ) -> Constraint:
        """Constrain two registered media items.

        Raises
        ------
        TemporalError
            If a name is unknown or an item is constrained twice in a
            way that breaks the forest property.
        InconsistentSpecError
            If durations cannot realize the relation (early check
            mirroring the OCPN construction guards).
        """
        for name in (first, second):
            if name not in self._media:
                raise TemporalError(f"unknown media {name!r} in constraint")
        if first == second:
            raise TemporalError(f"cannot relate media {first!r} to itself")
        self._check_feasible(first, second, relation, offset)
        constraint = Constraint(first=first, second=second, relation=relation, offset=offset)
        self._constraints.append(constraint)
        self._check_forest()
        return constraint

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def media(self) -> dict[str, MediaObject]:
        """All registered media by name (a copy)."""
        return dict(self._media)

    def media_object(self, name: str) -> MediaObject:
        """Look up one media item (raises on unknown names)."""
        if name not in self._media:
            raise TemporalError(f"unknown media {name!r}")
        return self._media[name]

    def constraints(self) -> list[Constraint]:
        """All constraints in authoring order (a copy)."""
        return list(self._constraints)

    def constrained_names(self) -> set[str]:
        """Media appearing in at least one constraint."""
        names: set[str] = set()
        for constraint in self._constraints:
            names.add(constraint.first)
            names.add(constraint.second)
        return names

    def unconstrained_names(self) -> list[str]:
        """Media not mentioned by any constraint."""
        constrained = self.constrained_names()
        return [name for name in self._media if name not in constrained]

    def total_ideal_duration(self) -> float:
        """Upper bound on presentation length (sum of durations +
        offsets) — used to size scheduler run budgets."""
        total = sum(media.duration for media in self._media.values())
        total += sum(abs(constraint.offset) for constraint in self._constraints)
        return total

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_feasible(
        self, first: str, second: str, relation: Relation, offset: float
    ) -> None:
        """Refuse what :meth:`OCPN.relate` would refuse, by the same
        :data:`~repro.petri.ocpn.EPSILON` margin, on the same differences."""
        da = self._media[first].duration
        db = self._media[second].duration
        base, swapped = relation.normalized()
        if swapped:
            da, db = db, da
        if base is Relation.EQUALS and abs(da - db) > EPSILON:
            raise InconsistentSpecError(
                f"{first!r} EQUALS {second!r} needs equal durations "
                f"({da} vs {db})"
            )
        if base in (Relation.STARTS, Relation.FINISHES) and da >= db - EPSILON:
            raise InconsistentSpecError(
                f"{first!r} {base.value} {second!r} needs the contained "
                f"item to be shorter ({da} vs {db})"
            )
        if base is Relation.DURING and (offset <= 0 or db - da - offset <= EPSILON):
            raise InconsistentSpecError(
                f"DURING needs 0 < offset and offset + inner < outer "
                f"(offset={offset}, inner={da}, outer={db})"
            )
        if base is Relation.OVERLAPS and not (
            0 < offset < da - EPSILON and db - (da - offset) > EPSILON
        ):
            raise InconsistentSpecError(
                f"OVERLAPS needs 0 < offset < {da} and second longer than "
                f"the shared tail (offset={offset}, db={db})"
            )
        if base is Relation.BEFORE and offset <= 0:
            raise InconsistentSpecError("BEFORE needs a positive gap offset")

    def _check_forest(self) -> None:
        """Each media may anchor (appear as ``second``) at most once,
        and may appear as ``first`` at most once."""
        seen_first: set[str] = set()
        seen_second: set[str] = set()
        for constraint in self._constraints:
            if constraint.first in seen_first:
                self._constraints.pop()
                raise TemporalError(
                    f"media {constraint.first!r} already constrained as first operand"
                )
            if constraint.second in seen_second:
                self._constraints.pop()
                raise TemporalError(
                    f"media {constraint.second!r} already constrained as second operand"
                )
            seen_first.add(constraint.first)
            seen_second.add(constraint.second)
