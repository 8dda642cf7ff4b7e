"""``repro.engine`` — the array-compiled simulation core.

Fleets and policy cells run their floor-control simulation on one of
two engines:

* ``"reference"`` — the paper-shaped object graph (:mod:`repro.core`,
  :mod:`repro.api.policies`): registries, resource vectors, token and
  grant dataclasses, frozen events.  Maximally inspectable; the
  semantic ground truth.
* ``"compiled"`` — this package: the same decisions over interned
  member ids, integer queues and columnar event storage
  (:mod:`repro.engine.log`), materializing events only when a
  transcript is read.  ≥5x the reference engine's steps/sec on the
  arbitration-scaling workload (bench E16 pins the floor).

The two are interchangeable by contract, not by convention: for any
operation sequence the compiled policies return the same decisions,
expose the same ``speakers()``/``waiting()`` views, fold the same
arbitration counters, and materialize *byte-identical* transcripts
(``repro replay`` verifies the canonical JSON, and bench E16 re-checks
it for all four FCM modes plus both baselines on every run).

The seam sits where a simulation batches floor requests: the fleet's
``FleetConfig.engine`` / ``repro fleet --engine compiled`` and the
``engine`` sweep parameter of the policy cell runner, both through
:func:`make_engine_policy`, the built-in policy factory fleets and
policy cells share.  Facade sessions arbitrate one message at a time
on the reference stack whatever their ``engine`` setting says.  The
knob is an *execution* parameter: it is excluded from seed derivation
(:data:`repro.experiments.spec.EXECUTION_PARAMS`), so switching
engines never changes the simulated workload.
"""

from __future__ import annotations

from ..errors import ReproError
from .compiled import (
    CompiledEngine,
    CompiledFIFO,
    CompiledFreeForAll,
    compile_policy,
    compiled_policy_names,
)
from .log import ColumnarLog

__all__ = [
    "ENGINES",
    "ColumnarLog",
    "CompiledEngine",
    "CompiledFIFO",
    "CompiledFreeForAll",
    "compile_policy",
    "compiled_policy_names",
    "make_engine_policy",
]

#: The two policy engines the seam selects between.
ENGINES = ("reference", "compiled")


def make_engine_policy(name: str, engine: str = "reference", **kwargs):
    """Instantiate built-in floor policy ``name`` on the selected engine.

    ``engine="reference"`` builds it from the policy registry
    (:func:`repro.api.policies.make_policy`), ``engine="compiled"`` its
    array-compiled twin (:func:`compile_policy`).  Either way the name
    must be one of the six built-ins (:func:`compiled_policy_names`):
    this is the factory of fleets and policy cells, which drive the
    shared policy surface.  Custom registered policies go through
    ``make_policy`` directly.  Keyword arguments pass through to the
    policy factory.

    Raises
    ------
    ReproError
        For an unknown engine or a policy that is not built in.
    """
    if engine not in ENGINES:
        raise ReproError(
            f"unknown policy engine {engine!r}; one of {list(ENGINES)}"
        )
    if name not in compiled_policy_names():
        raise ReproError(
            f"policy {name!r} has no compiled engine; fleets and policy "
            f"cells run only the built-in policies {compiled_policy_names()}"
        )
    if engine == "compiled":
        return compile_policy(name, **kwargs)
    from ..api.policies import make_policy

    return make_policy(name, **kwargs)
