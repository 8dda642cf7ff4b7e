"""Object Composition Petri Nets (Little & Ghafoor 1990).

OCPN is "a comprehensive model for specifying timing relations among
multimedia data" (paper, Section 1).  An OCPN is a timed Petri net whose
places are either *media places* (a media object playing for its
duration) or *delay places* (pure time fillers), and whose transitions
are instantaneous synchronization points.

This module builds OCPNs compositionally:

* :class:`OCPN` — a net plus its duration map and media labelling;
* :class:`Block` — a subnet delimited by an entry and an exit
  transition;
* :meth:`OCPN.media_block`, :meth:`OCPN.delay_block`,
  :meth:`OCPN.seq`, :meth:`OCPN.par` — the block algebra;
* :meth:`OCPN.relate` — the canonical construction for each of Allen's
  seven base relations, including the interval-splitting construction
  for ``OVERLAPS`` (a media place is split into consecutive *segments*
  that the playout layer re-joins into one continuous interval).

The result executes on :class:`~repro.petri.timed.TimedExecutor` (or its
prioritized/distributed descendants) and its trace can be validated
against the originating spec — the round trip exercised by the E7
benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from typing import TYPE_CHECKING

from ..errors import PetriNetError, TemporalError
from .net import PetriNet
from .timed import TimedPlaceMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..temporal.intervals import Relation

__all__ = ["Block", "EPSILON", "OCPN"]

#: Durations at or below this count as zero: shorter delay places are
#: elided, and :meth:`OCPN.relate` refuses a relation that leaves no
#: more slack than this.  ``PresentationSpec.relate`` refuses by the
#: same margin, so it never accepts durations that the compiler refuses.
EPSILON = 1e-12


@dataclass(frozen=True)
class Block:
    """A subnet with a unique entry and exit transition.

    Firing ``entry`` starts the block's content; ``exit`` fires when the
    content completes.  Blocks compose with :meth:`OCPN.seq` and
    :meth:`OCPN.par`.
    """

    entry: str
    exit: str


class OCPN:
    """An Object Composition Petri Net under construction.

    Attributes
    ----------
    net:
        The underlying place/transition net.
    durations:
        Place durations (media playout times and delays).
    media_of_place:
        Maps each media place to ``(media_name, segment_index)``;
        segments arise from the ``OVERLAPS`` construction and are
        re-joined by :meth:`media_intervals`.
    """

    def __init__(self, name: str = "ocpn") -> None:
        self.net = PetriNet(name)
        self.durations = TimedPlaceMap()
        self.media_of_place: dict[str, tuple[str, int]] = {}
        self._ids = itertools.count()
        self._segment_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Primitive blocks
    # ------------------------------------------------------------------
    def media_block(self, media: str, duration: float) -> Block:
        """A block that plays ``media`` for ``duration`` seconds."""
        if duration < 0:
            raise TemporalError(f"media {media!r}: negative duration {duration!r}")
        return self._segment_chain(media, [duration])

    def delay_block(self, delay: float) -> Block:
        """A block that consumes ``delay`` seconds of pure time."""
        if delay < 0:
            raise TemporalError(f"negative delay {delay!r}")
        entry = self._new_transition("t_in")
        exit_ = self._new_transition("t_out")
        place = self._new_place("delay", delay)
        self.net.add_arc(entry, place)
        self.net.add_arc(place, exit_)
        return Block(entry, exit_)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def seq(self, *blocks: Block) -> Block:
        """Sequential composition: each block starts when the previous
        one exits (zero-duration link places between them)."""
        if not blocks:
            raise PetriNetError("seq() needs at least one block")
        for left, right in zip(blocks, blocks[1:]):
            link = self._new_place("link", 0.0)
            self.net.add_arc(left.exit, link)
            self.net.add_arc(link, right.entry)
        return Block(blocks[0].entry, blocks[-1].exit)

    def par(self, *blocks: Block) -> Block:
        """Parallel composition: a fork transition starts all blocks, a
        join transition waits for all of them (OCPN's "master" sync)."""
        if not blocks:
            raise PetriNetError("par() needs at least one block")
        if len(blocks) == 1:
            return blocks[0]
        fork = self._new_transition("t_fork")
        join = self._new_transition("t_join")
        for block in blocks:
            lead_in = self._new_place("fork", 0.0)
            lead_out = self._new_place("join", 0.0)
            self.net.add_arc(fork, lead_in)
            self.net.add_arc(lead_in, block.entry)
            self.net.add_arc(block.exit, lead_out)
            self.net.add_arc(lead_out, join)
        return Block(fork, join)

    # ------------------------------------------------------------------
    # Allen relation constructions
    # ------------------------------------------------------------------
    def relate(
        self,
        media_a: str,
        duration_a: float,
        media_b: str,
        duration_b: float,
        relation: "Relation",
        offset: float = 0.0,
    ) -> Block:
        """Build the canonical OCPN for ``media_a relation media_b``.

        ``offset`` parameterizes the relations that need one:

        * ``BEFORE`` — the gap between A's end and B's start;
        * ``OVERLAPS`` — how long A plays before B starts
          (``0 < offset < duration_a`` and
          ``duration_a - offset < duration_b`` must hold);
        * ``DURING`` — how long B plays before A starts
          (``offset >= 0`` and ``offset + duration_a <= duration_b``).

        Inverse relations are normalized by swapping operands.

        Raises
        ------
        TemporalError
            If the durations/offset cannot realize the relation.
        """
        from ..temporal.intervals import Relation  # local: avoids cycle

        base, swapped = relation.normalized()
        if swapped:
            media_a, media_b = media_b, media_a
            duration_a, duration_b = duration_b, duration_a
        if base is Relation.BEFORE:
            return self._build_before(media_a, duration_a, media_b, duration_b, offset)
        if base is Relation.MEETS:
            return self.seq(
                self.media_block(media_a, duration_a),
                self.media_block(media_b, duration_b),
            )
        if base is Relation.EQUALS:
            if abs(duration_a - duration_b) > EPSILON:
                raise TemporalError(
                    f"EQUALS requires equal durations, got "
                    f"{duration_a!r} and {duration_b!r}"
                )
            return self.par(
                self.media_block(media_a, duration_a),
                self.media_block(media_b, duration_b),
            )
        if base is Relation.STARTS:
            return self._build_starts(media_a, duration_a, media_b, duration_b)
        if base is Relation.FINISHES:
            return self._build_finishes(media_a, duration_a, media_b, duration_b)
        if base is Relation.DURING:
            return self._build_during(media_a, duration_a, media_b, duration_b, offset)
        if base is Relation.OVERLAPS:
            return self._build_overlaps(media_a, duration_a, media_b, duration_b, offset)
        raise TemporalError(f"unsupported relation {relation!r}")  # pragma: no cover

    def _build_before(
        self, media_a: str, da: float, media_b: str, db: float, gap: float
    ) -> Block:
        if gap <= 0:
            raise TemporalError(f"BEFORE requires a positive gap, got {gap!r}")
        return self.seq(
            self.media_block(media_a, da),
            self.delay_block(gap),
            self.media_block(media_b, db),
        )

    def _build_starts(self, media_a: str, da: float, media_b: str, db: float) -> Block:
        if da >= db - EPSILON:
            raise TemporalError(
                f"STARTS requires duration_a < duration_b, got {da!r} >= {db!r}"
            )
        padded_a = self.seq(self.media_block(media_a, da), self.delay_block(db - da))
        return self.par(padded_a, self.media_block(media_b, db))

    def _build_finishes(self, media_a: str, da: float, media_b: str, db: float) -> Block:
        if da >= db - EPSILON:
            raise TemporalError(
                f"FINISHES requires duration_a < duration_b, got {da!r} >= {db!r}"
            )
        delayed_a = self.seq(self.delay_block(db - da), self.media_block(media_a, da))
        return self.par(delayed_a, self.media_block(media_b, db))

    def _build_during(
        self, media_a: str, da: float, media_b: str, db: float, offset: float
    ) -> Block:
        if offset <= 0:
            raise TemporalError(f"DURING requires a positive offset, got {offset!r}")
        tail = db - da - offset
        if tail <= EPSILON:
            raise TemporalError(
                f"DURING requires offset + duration_a < duration_b "
                f"({offset!r} + {da!r} vs {db!r})"
            )
        framed_a = self.seq(
            self.delay_block(offset),
            self.media_block(media_a, da),
            self.delay_block(tail),
        )
        return self.par(framed_a, self.media_block(media_b, db))

    def _build_overlaps(
        self, media_a: str, da: float, media_b: str, db: float, offset: float
    ) -> Block:
        """Little & Ghafoor's interval-splitting construction.

        A is split into ``a1`` (length ``offset``) and ``a2``
        (``da - offset``); B into ``b1`` (``da - offset``, concurrent
        with ``a2``) and ``b2`` (the remainder)::

            t0 -> a1 -> t1 -> { a2 || b1 } -> t2 -> b2 -> t3
        """
        if not (0 < offset < da - EPSILON):
            raise TemporalError(
                f"OVERLAPS requires 0 < offset < duration_a, got "
                f"offset={offset!r}, duration_a={da!r}"
            )
        shared = da - offset
        tail = db - shared
        if tail <= EPSILON:
            raise TemporalError(
                f"OVERLAPS requires duration_b > duration_a - offset "
                f"({db!r} vs {da!r} - {offset!r})"
            )
        a1 = self._segment_chain(media_a, [offset])
        a2 = self._segment_chain(media_a, [shared])
        b1 = self._segment_chain(media_b, [shared])
        b2 = self._segment_chain(media_b, [tail])
        middle = self.par(a2, b1)
        return self.seq(a1, middle, b2)

    # ------------------------------------------------------------------
    # Root wiring and reconstruction helpers
    # ------------------------------------------------------------------
    def set_root(self, block: Block) -> None:
        """Mark ``block`` as the presentation root: adds the initial
        ``start`` place (one token) and the terminal ``done`` place."""
        if "start" in self.net.places or "done" in self.net.places:
            raise PetriNetError("root already set")
        self.net.add_place("start", tokens=1)
        self.net.add_place("done")
        self.net.add_arc("start", block.entry)
        self.net.add_arc(block.exit, "done")

    def media_intervals(
        self, intervals: dict[str, list[tuple[float, float]]]
    ) -> dict[str, tuple[float, float]]:
        """Re-join per-place activity intervals into one continuous
        interval per media object.

        ``intervals`` is :attr:`FiringTrace.intervals` from an executor
        run.  Segments produced by ``OVERLAPS`` splitting are merged;
        a gap between segments of the same media raises, because the
        construction guarantees continuity.
        """
        spans: dict[str, list[tuple[float, float]]] = {}
        for place, (media, __) in self.media_of_place.items():
            for span in intervals.get(place, []):
                spans.setdefault(media, []).append(span)
        merged: dict[str, tuple[float, float]] = {}
        for media, pieces in spans.items():
            pieces.sort()
            start, end = pieces[0]
            for piece_start, piece_end in pieces[1:]:
                if piece_start > end + 1e-6:
                    raise TemporalError(
                        f"media {media!r} has a playout gap at t={end!r}"
                    )
                end = max(end, piece_end)
            merged[media] = (start, end)
        return merged

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _segment_chain(self, media: str, segment_durations: list[float]) -> Block:
        """A seq chain of media segments for ``media``."""
        entry = self._new_transition("t_in")
        previous = entry
        for duration in segment_durations:
            index = self._segment_counts.get(media, 0)
            self._segment_counts[media] = index + 1
            place = self._new_place(f"m_{media}", duration, media=(media, index))
            self.net.add_arc(previous, place)
            next_transition = self._new_transition("t_out")
            self.net.add_arc(place, next_transition)
            previous = next_transition
        return Block(entry, previous)

    def _new_place(
        self,
        prefix: str,
        duration: float,
        media: tuple[str, int] | None = None,
    ) -> str:
        name = f"{prefix}#{next(self._ids)}"
        label = media[0] if media else None
        self.net.add_place(name, label=label)
        if duration > EPSILON:
            self.durations.set(name, duration)
        if media is not None:
            self.media_of_place[name] = media
        return name

    def _new_transition(self, prefix: str) -> str:
        name = f"{prefix}#{next(self._ids)}"
        self.net.add_transition(name)
        return name
