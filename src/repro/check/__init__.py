"""Property specs, model-checking engines, and live session monitors.

The paper claims Petri-net-modeled presentations let "users
dynamically modify and verify different kinds of conditions during the
presentation"; this package is that verification side, grown past
schedule checking into a real subsystem:

* :mod:`repro.check.props` — the condition language: ``Mutex``,
  ``PlaceBound``, ``Invariant``, ``EventuallyFires``,
  ``DeadlockFree`` — serializable values checkable against any
  :class:`~repro.petri.net.PetriNet`;
* :mod:`repro.check.explicit` — an explicit-state engine checking
  properties on the fly as a ``stop`` callback on the compiled
  explorer, with replayable counterexample traces;
* :mod:`repro.check.induct` — inductive proofs in exact ``Fraction``
  arithmetic (place invariants + the state-equation k-induction base),
  falling back to bounded explicit search; verdicts are
  ``PROVED | VIOLATED(trace) | UNKNOWN``, never silently truncated;
* :mod:`repro.check.nets` — the four FCM modes' floor-control channels
  as provable nets, plus scalable exploration workloads;
* :mod:`repro.check.monitor` — live invariants attached to a running
  :class:`~repro.api.session.Session`, checked on every floor event;
* :mod:`repro.check.suites` — named property suites behind the
  ``repro check`` CLI and the CI smoke lane.

Quickstart::

    from repro.check import check_net, floor_model

    model = floor_model("equal_control", members=4)
    report = check_net(model.net, model.properties)
    assert report.verdict_for(model.mutex.name).verdict.value == "proved"
"""

from .explicit import (
    CheckReport,
    CompiledNet,
    Counterexample,
    ExplicitEngine,
    Exploration,
    PropertyVerdict,
    check_explicit,
)
from .induct import (
    InductiveEngine,
    check_net,
    feasible_point,
    prove_by_invariant,
    refute_by_state_equation,
)
from .monitor import (
    SessionMonitor,
    Violation,
    evaluate_invariant,
    invariant_names,
    register_invariant,
    unregister_invariant,
)
from .nets import FloorModel, floor_model, member_places, product_cycles
from .props import (
    DeadlockFree,
    EventuallyFires,
    Invariant,
    Mutex,
    PlaceBound,
    Property,
    Verdict,
    property_from_dict,
)
from .suites import (
    CheckCase,
    CheckSuite,
    SuiteResult,
    check_filename,
    named_suite,
    register_suite,
    run_suite,
    suite_names,
    unregister_suite,
)

__all__ = [
    "CheckCase",
    "CheckReport",
    "CheckSuite",
    "CompiledNet",
    "Counterexample",
    "DeadlockFree",
    "EventuallyFires",
    "ExplicitEngine",
    "Exploration",
    "FloorModel",
    "InductiveEngine",
    "Invariant",
    "Mutex",
    "PlaceBound",
    "Property",
    "PropertyVerdict",
    "SessionMonitor",
    "SuiteResult",
    "Verdict",
    "Violation",
    "check_explicit",
    "check_filename",
    "check_net",
    "evaluate_invariant",
    "feasible_point",
    "floor_model",
    "invariant_names",
    "member_places",
    "named_suite",
    "product_cycles",
    "property_from_dict",
    "prove_by_invariant",
    "refute_by_state_equation",
    "register_invariant",
    "register_suite",
    "run_suite",
    "suite_names",
    "unregister_invariant",
    "unregister_suite",
]
