"""Discrete-event network simulator.

The paper's DMPS ran over a campus LAN; its synchronization argument
rests only on *bounded delay* ("A communication tool which be held
'Synchronous' one is because of the bonded delay time", Section 3).
This simulator makes the delay distribution an explicit, seeded
experimental variable:

* a :class:`Host` has a name and a message handler;
* a :class:`Link` carries messages with ``base_latency`` plus uniform
  ``jitter``, an optional drop probability and optional serialization
  delay from a bandwidth limit;
* the :class:`Network` routes a message over the configured link and
  schedules delivery on the shared virtual clock.

Delivery on a single link is FIFO (reordering across different links is
possible, as in a real switched LAN).

Link parameters are mutable *during* a run: :mod:`repro.net.dynamics`
drives them over virtual time (delay ramps, bursty loss, partitions),
which is how the "what if the bounded-delay premise breaks mid-session"
experiments are expressed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..clock.virtual import VirtualClock
from ..errors import NetworkError, UnknownHostError

__all__ = ["Host", "Link", "Network", "DeliveryStats"]

Handler = Callable[[str, Any], None]


@dataclass
class Host:
    """A network endpoint.

    ``handler(sender, payload)`` is invoked on delivery; ``up`` models
    the connection light of Figure 3 — messages to a downed host are
    counted as lost.
    """

    name: str
    handler: Handler
    up: bool = True


@dataclass
class Link:
    """A unidirectional link with latency, jitter, loss and bandwidth.

    Parameters
    ----------
    base_latency:
        Fixed propagation delay (seconds).
    jitter:
        Uniform extra delay in ``[0, jitter]`` seconds.
    loss_probability:
        Independent drop probability per message.
    bandwidth_kbps:
        Optional serialization rate; ``None`` means infinitely fast.
    up:
        Whether the wire is connected; messages over a downed link are
        counted as ``blocked`` (how partitions are modelled — see
        :meth:`repro.net.dynamics.NetworkDynamics.partition`).
    """

    base_latency: float = 0.01
    jitter: float = 0.0
    loss_probability: float = 0.0
    bandwidth_kbps: float | None = None
    up: bool = True
    #: Time at which the link finishes serializing its last message.
    _busy_until: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.base_latency < 0:
            raise NetworkError(f"negative base latency: {self.base_latency!r}")
        if self.jitter < 0:
            raise NetworkError(f"negative jitter: {self.jitter!r}")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise NetworkError(
                f"loss probability must be in [0, 1], got {self.loss_probability!r}"
            )
        if self.bandwidth_kbps is not None and self.bandwidth_kbps <= 0:
            raise NetworkError(
                f"bandwidth must be positive, got {self.bandwidth_kbps!r}"
            )

    def clone(self) -> "Link":
        """A fresh copy carrying the configured parameters only.

        Transient per-direction state (the serialization backlog in
        ``_busy_until``) is reset, so a template link that already
        carried traffic never hands its backlog to new directions.
        """
        link = replace(self)
        link._busy_until = 0.0
        return link


@dataclass
class DeliveryStats:
    """Counters a :class:`Network` maintains for the experiments."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    to_down_host: int = 0
    blocked: int = 0
    total_latency: float = 0.0

    @property
    def mean_latency(self) -> float:
        if self.delivered == 0:
            return 0.0
        return self.total_latency / self.delivered

    @property
    def loss_rate(self) -> float:
        if self.sent == 0:
            return 0.0
        return (self.dropped + self.to_down_host + self.blocked) / self.sent


class Network:
    """Routes messages between hosts over configured links.

    All randomness comes from the ``rng`` passed at construction, so a
    seeded run is fully reproducible.
    """

    def __init__(self, clock: VirtualClock, rng: random.Random | None = None) -> None:
        self.clock = clock
        self.rng = rng if rng is not None else random.Random(0)
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self.stats = DeliveryStats()
        self._default_link: Link | None = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_host(self, name: str, handler: Handler) -> Host:
        """Register an endpoint with its delivery handler."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(name=name, handler=handler)
        self._hosts[name] = host
        return host

    def connect(self, source: str, target: str, link: Link | None = None) -> None:
        """Create a unidirectional link; use :meth:`connect_both` for a
        symmetric pair."""
        self._check_host(source)
        self._check_host(target)
        self._links[(source, target)] = link if link is not None else Link()

    def connect_both(self, a: str, b: str, link: Link | None = None) -> None:
        """Create a symmetric pair of links between two hosts.

        Each direction gets its own full copy of the template link, so
        per-direction state (serialization backlog) is never shared and
        every ``Link`` field — including ones added later — carries
        over.  Transient state is reset on each copy (see
        :meth:`Link.clone`).
        """
        template = link if link is not None else Link()
        self.connect(a, b, template.clone())
        self.connect(b, a, template.clone())

    def set_default_link(self, link: Link) -> None:
        """Fallback link parameters for unconfigured host pairs."""
        self._default_link = link

    def link(self, source: str, target: str) -> Link:
        """The configured link of one direction.

        Only explicitly connected pairs resolve here — the shared
        default link is deliberately excluded, since mutating it would
        silently change every unconfigured pair at once.

        Raises
        ------
        NetworkError
            When the pair was never connected.
        """
        self._check_host(source)
        self._check_host(target)
        pair = (source, target)
        if pair not in self._links:
            raise NetworkError(f"no configured link from {source!r} to {target!r}")
        return self._links[pair]

    def links(self) -> dict[tuple[str, str], Link]:
        """Every configured directional link, keyed ``(source, target)``
        (a copy of the mapping; the links themselves are live)."""
        return dict(self._links)

    def host(self, name: str) -> Host:
        """Look up a host record by name."""
        self._check_host(name)
        return self._hosts[name]

    def hosts(self) -> list[str]:
        """All registered host names."""
        return list(self._hosts)

    def set_host_up(self, name: str, up: bool) -> None:
        """Model a client disconnect/reconnect (Figure 3's red light)."""
        self._check_host(name)
        self._hosts[name].up = up

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        source: str,
        target: str,
        payload: Any,
        size_bytes: int = 256,
    ) -> bool:
        """Send ``payload`` from ``source`` to ``target``.

        Returns ``True`` if the message was scheduled for delivery,
        ``False`` if it was dropped (loss, a downed link, or a downed
        target — senders do not learn which, as on a real network).
        """
        hosts = self._hosts
        if source not in hosts:
            raise UnknownHostError(f"unknown host {source!r}")
        host = hosts.get(target)
        if host is None:
            raise UnknownHostError(f"unknown host {target!r}")
        if size_bytes < 0:
            raise NetworkError(f"negative message size: {size_bytes!r}")
        link = self._links.get((source, target), self._default_link)
        if link is None:
            raise NetworkError(f"no link from {source!r} to {target!r}")
        stats = self.stats
        stats.sent += 1
        if not link.up:
            # The wire is cut (partition): the message never leaves.
            stats.blocked += 1
            return False
        if not host.up:
            stats.to_down_host += 1
            return False
        if link.loss_probability > 0 and self.rng.random() < link.loss_probability:
            stats.dropped += 1
            return False
        delay = link.base_latency
        if link.jitter > 0:
            delay += self.rng.uniform(0.0, link.jitter)
        clock = self.clock
        now = clock.now()
        if link.bandwidth_kbps is not None:
            serialization = (size_bytes * 8) / (link.bandwidth_kbps * 1000.0)
            start = max(now, link._busy_until)
            link._busy_until = start + serialization
            delay += (start - now) + serialization
        # Deliveries are never cancelled, so they take the handle-free
        # path; the Host record itself rides along (hosts are never
        # removed), sparing a lookup at delivery.
        clock.schedule(now + delay, self._deliver, source, host, payload, delay)
        return True

    def broadcast(
        self, source: str, payload: Any, size_bytes: int = 256
    ) -> int:
        """Send to every other host; returns how many sends were
        scheduled (not dropped)."""
        scheduled = 0
        for name in self._hosts:
            if name == source:
                continue
            if self.send(source, name, payload, size_bytes=size_bytes):
                scheduled += 1
        return scheduled

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deliver(self, source: str, host: Host, payload: Any, delay: float) -> None:
        stats = self.stats
        if not host.up:
            # Host went down while the message was in flight.
            stats.to_down_host += 1
            return
        stats.delivered += 1
        stats.total_latency += delay
        host.handler(source, payload)

    def _check_host(self, name: str) -> None:
        if name not in self._hosts:
            raise UnknownHostError(f"unknown host {name!r}")
