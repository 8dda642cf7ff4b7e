"""repro.fabric — sharded multi-session fleet runner.

The paper models *one* DMPS classroom; the ROADMAP's north star is
heavy traffic from millions of users.  This package hosts N
independent DMPS sessions at once:

* :class:`~repro.fabric.config.FleetConfig` /
  :class:`~repro.fabric.config.FleetBuilder` describe a fleet the way
  :class:`~repro.api.config.SessionBuilder` describes one session;
* :class:`~repro.fabric.fleet.Fleet` advances every session through
  the same tick deadlines of one logical clock
  (:meth:`~repro.fabric.config.FleetConfig.ticks`), batching
  arbitration decisions per tick; a shard takes its sessions one at a
  time through every deadline, since sessions share nothing;
* sessions are sharded across worker processes (shared-nothing,
  assignment stable under fleet growth, per-session seeds derived from
  the root seed exactly like the sweep engine), and
  :func:`~repro.fabric.fleet.run_fleet` folds per-shard summaries into
  one streaming :class:`~repro.metrics.aggregate.FleetMetrics` — nothing
  ever buffers O(fleet × events);
* per-session memory is bounded by EventBus ring mode
  (:mod:`repro.events.bus`), so a fleet can run for arbitrarily long
  simulated spans at flat footprint;
* three per-session engines (:mod:`repro.fabric.session`): ``"batch"``
  drives the built-in reference policies through the batch
  arbitration seam,
  ``"compiled"`` drives the array-compiled policies of
  :mod:`repro.engine` (fastest; byte-identical folds), and
  ``"facade"`` runs the full :class:`~repro.api.session.Session`
  stack per session (the soak path).

Results are byte-identical between serial execution and sharded
workers for the same root seed — the same bar the sweep engine holds.
"""

from ..metrics import FleetMetrics, LatencyHistogram
from .config import FleetBuilder, FleetConfig
from .fleet import Fleet, FleetResult, run_fleet, run_fleet_cell
from .persist import fleet_result_to_sweep, write_fleet_json
from .session import FleetSession
from .shard import Shard, run_shard
from .workload import stream_workload

__all__ = [
    "Fleet",
    "FleetBuilder",
    "FleetConfig",
    "FleetMetrics",
    "FleetResult",
    "FleetSession",
    "LatencyHistogram",
    "Shard",
    "fleet_result_to_sweep",
    "run_fleet",
    "run_fleet_cell",
    "run_shard",
    "stream_workload",
    "write_fleet_json",
]
