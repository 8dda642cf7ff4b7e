"""repro — reproduction of Shih et al., "Using the Floor Control
Mechanism in Distributed Multimedia Presentation System" (ICDCS 2001).

The package provides:

* :mod:`repro.api` — the high-level facade: session builder, the
  ``Session`` object, scripted scenarios, and the pluggable floor
  policy registry (start here);
* :mod:`repro.core` — the floor control mechanism (the paper's primary
  contribution): four modes, the FCM-Arbitrate and Media-Suspend
  algorithms, groups/invitations, the server-side manager;
* :mod:`repro.check` — the verification subsystem: property specs
  (mutex/bounds/invariants), the explicit-state engine,
  induction-backed proofs (place invariants + state equation), and
  live session monitors;
* :mod:`repro.events` — the typed event bus: structured payloads per
  event kind, indexed queries, filtered subscriptions, and
  deterministic transcript record/replay;
* :mod:`repro.petri` — the Petri net substrate: classic nets, timed
  nets, prioritized nets (Yang et al.), OCPN, XOCPN, and DOCPN with
  global-clock admission;
* :mod:`repro.temporal` — Allen relations, presentation specs, the
  spec-to-net compiler, schedule computation (synchronous sets), and
  verification;
* :mod:`repro.media` — typed media objects, QoS channels, streams,
  playout skew measurement;
* :mod:`repro.net` — the discrete-event network simulator and a
  reliable transport;
* :mod:`repro.clock` — virtual time, drifting clocks, Cristian sync,
  and the global-clock admission rule;
* :mod:`repro.session` — the DMPS server/client endpoints, whiteboard,
  presence lights, and the asyncio real-time bridge;
* :mod:`repro.workload` — seeded scenario generators and synthetic
  presentations.

Quickstart (the :mod:`repro.api` facade)::

    from repro.api import Session

    with Session.build("alice", chair="teacher") as s:
        s.post("alice", "hello class")
        s.run_until(2.0)
        assert [e.content for e in s.board()] == ["hello class"]

The raw layers stay importable for finer-grained wiring — see the
docstring of :mod:`repro.session`.
"""

__version__ = "1.0.0"

import importlib

from .errors import ReproError

__all__ = [
    "ReproError",
    "__version__",
    "api",
    "check",
    "clock",
    "core",
    "events",
    "media",
    "net",
    "petri",
    "session",
    "temporal",
    "workload",
]


def __getattr__(name: str):
    """Import a subpackage of ``__all__`` on first use (PEP 562), so
    ``import repro.check`` loads what the checker needs and not, say,
    the asyncio session bridge."""
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
