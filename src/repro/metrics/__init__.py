"""One streaming metrics kernel for every surface of the toolkit.

The paper's stated future work is "focus[ing] on the performance of
the system"; the persisted ``BENCH_*.json`` / transcript-meta numbers
are this reproduction's performance story, and this package is the one
place they are computed.  Sweep cells, fleets, transcript replay, and
live session reports all fold the same
:class:`~repro.metrics.fold.MetricsFold` — in **exact** mode (retained
samples, nearest-rank percentiles, byte-identical to the batch
helpers it replaced) or **fold** mode (binned histogram + integer
moment state with an exact commutative ``merge`` for sharded runs) —
and read one shared ``to_metrics()`` schema.

Layout:

* :mod:`repro.metrics.stats` — percentiles and both Jain-fairness
  entry points (shares list, moment triple) with pinned conventions;
* :mod:`repro.metrics.histogram` — the 72-bin geometric
  :class:`LatencyHistogram`;
* :mod:`repro.metrics.fold` — the streaming :class:`MetricsFold`;
* :mod:`repro.metrics.aggregate` — the mergeable cross-session
  :class:`FleetMetrics`.

Sweep cells, fleets, replay and live sessions all import the kernel
from here; there is no second import surface.
"""

from .aggregate import FleetMetrics
from .fold import SESSION_FOLD_KINDS, MetricsFold
from .histogram import LatencyHistogram
from .stats import (
    jain_fairness,
    jain_fairness_from_moments,
    latency_summary,
    percentile,
)

__all__ = [
    "FleetMetrics",
    "LatencyHistogram",
    "MetricsFold",
    "SESSION_FOLD_KINDS",
    "jain_fairness",
    "jain_fairness_from_moments",
    "latency_summary",
    "percentile",
]
