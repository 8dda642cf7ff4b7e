"""Per-layer attribution for the traced rep.

The traced rep installs one :class:`repro.trace.timing.Profiler` and
wraps the public entry points of each ``src/repro`` layer with spans,
from this file: no hook is added inside ``src/``.  The nine in-program
hooks (``server.*``, ``arbitrate.*``, ``bus.dispatch``, ``engine.*``,
``metrics.fold``, ``fleet.merge``, ``serve.*``) nest into the same
profiler.  A span's self time is its duration minus its nested spans;
self time sums per layer, and the wall time no span covers is
``other``.

Only synchronous functions are wrapped, so no span is held across an
``await``.  Each name is patched where its callers look it up: on the
class, or as the global of each module that imported it.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Any, Callable, Iterator

LAYERS = (
    "clock", "net", "session", "api", "core", "engine", "events",
    "metrics", "fabric", "serve", "petri", "check", "trace",
)

#: Layer of each in-program hook, by the hook name's first component.
HOOK_LAYERS = {
    "server": "core", "arbitrate": "core", "bus": "events",
    "engine": "engine", "metrics": "metrics", "fleet": "fabric",
    "serve": "serve",
}

#: ``(layer, module, class or None for module globals, attributes)``.
WRAPPED = (
    ("clock", "repro.clock.virtual", "VirtualClock", ("step", "call_at")),
    ("net", "repro.net.simnet", "Network", ("send", "broadcast")),
    ("session", "repro.session.presence", "PresenceMonitor", ("heartbeat",)),
    ("api", "repro.api.session", "Session", ("request_floor", "release_floor", "post")),
    ("core", "repro.core.server", "FloorControlServer",
     ("request_floor", "request_floor_batch", "release_floor")),
    ("core", "repro.core.arbitrator", "Arbitrator", ("arbitrate", "arbitrate_batch")),
    ("engine", "repro.engine.compiled", "CompiledEngine", ("request", "release", "request_batch")),
    ("events", "repro.events.bus", "EventBus", ("append", "publish")),
    ("events", "repro.events.transcript", None, ("load_transcript",)),
    ("events", "repro.events.replay", None,
     ("load_transcript", "check_transcript", "transcript_metrics")),
    ("metrics", "repro.metrics.fold", "MetricsFold", ("add", "requested", "serve")),
    ("fabric", "repro.fabric.shard", "Shard", ("advance",)),
    ("fabric", "repro.fabric.fleet", "Fleet", ("snapshot",)),
    ("serve", "repro.serve.server", None, ("encode_frame", "decode_frame")),
    ("serve", "repro.serve.client", None, ("encode_frame", "decode_frame", "event_from_frame")),
    ("serve", "repro.serve.soak", None, ("event_from_frame",)),
    ("petri", "repro.petri.analysis", None,
     ("reachability_graph", "find_deadlocks", "is_live", "is_bounded")),
    ("check", "repro.check.explicit", "ExplicitEngine", ("check", "explore")),
    ("check", "repro.check.induct", "InductiveEngine", ("check",)),
    ("trace", "repro.trace.causal", "CausalTracer", ("from_events", "spans")),
)

#: Per-layer metrics: ``(name, unit, better)``, in output order.
PER_LAYER = (
    *(
        (f"{layer}.{suffix}", unit, "lower")
        for layer in LAYERS
        for suffix, unit in (("calls", "count"), ("self_s", "s"), ("share", "fraction"))
    ),
    ("other.share", "fraction", "lower"),
    ("net.sent", "count", "lower"),
    ("net.delivered", "count", "higher"),
    ("net.dropped", "count", "lower"),
    ("events.evicted", "count", "lower"),
    ("serve.frames_out", "count", "lower"),
    ("serve.coalesced", "count", "lower"),
    ("serve.rtt_p50_ms", "ms", "lower"),
    ("serve.rtt_p99_ms", "ms", "lower"),
    ("serve.rtt_n", "count", "higher"),
    ("check.states", "count", "lower"),
    ("petri.states", "count", "lower"),
    ("trace.spans", "count", "higher"),
    ("setup.import_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("host.calib_s", "s", "lower"),
)


def layer_of(span_name: str) -> str:
    """The layer a span belongs to, from its first name component."""
    head = span_name.split(".", 1)[0]
    if head in LAYERS:
        return head
    return HOOK_LAYERS.get(head, "other")


def _spanned(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    from repro.trace import timing

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        profiler = timing.active()
        if profiler is None:
            return fn(*args, **kwargs)
        with profiler.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap(original: Any, name: str) -> Any:
    if isinstance(original, classmethod):
        return classmethod(_spanned(original.__func__, name))
    return _spanned(original, name)


def targets() -> Iterator[tuple[Any, str, str]]:
    """Every ``(owner, attribute, span name)`` the traced rep patches."""
    for layer, module_name, class_name, attributes in WRAPPED:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        label = class_name or module_name.rsplit(".", 1)[1]
        for attribute in attributes:
            yield owner, attribute, f"{layer}.{label}.{attribute}"


def snapshot() -> list[Any]:
    """The objects currently bound at every patched name, in order."""
    from repro.net.simnet import Network

    return [vars(owner)[attribute] for owner, attribute, _ in targets()] + [
        vars(Network)["add_host"]
    ]


@contextmanager
def wrapped() -> Iterator[None]:
    """Patch every target with a span wrapper; restore the originals on exit.

    Spans record only while a profiler is active, so the rep's build
    can run inside this block untimed.  Message handlers registered
    through ``Network.add_host`` are wrapped as the ``session`` layer.
    """
    from repro.net.simnet import Network

    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name in targets():
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(original, name))
        add_host = vars(Network)["add_host"]
        saved.append((Network, "add_host", add_host))

        def spanned_add_host(self, name, handler):
            return add_host(self, name, _spanned(handler, "session.handler"))

        Network.add_host = spanned_add_host
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def per_layer(aggregates: dict[str, dict[str, float]], wall: float) -> dict[str, float]:
    """``<layer>.calls|self_s|share`` plus ``other.share`` from profiler
    aggregates over a traced region of ``wall`` seconds."""
    calls = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, slot in aggregates.items():
        layer = layer_of(name)
        if layer in calls:
            calls[layer] += slot["calls"]
            self_s[layer] += slot["self"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall
    out["other.share"] = 1.0 - sum(self_s.values()) / wall
    return out
