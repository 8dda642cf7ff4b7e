"""Induction-backed safety proofs in pure ``Fraction`` arithmetic.

SMPT-style engines prove safety of place/transition nets *without*
enumerating states: a linear property ``sum(coeff[p] * m[p]) <= k``
holds on every reachable marking when either

* **place invariants** — some nonnegative rational weighting ``y`` of
  places satisfies ``y · C = 0`` (so ``y · m`` is constant under any
  firing), dominates the property's coefficients pointwise, and starts
  at ``y · m0 <= k``; the weighting is an inductive certificate; or
* **the state equation** — the constraint system
  ``m = m0 + C·x, m >= 0, x >= 0, coeff·m >= k+1`` has no rational
  solution; every reachable marking satisfies the state equation, so
  no reachable marking can be bad.  This is the k-induction base
  (k = 0) the SMPT tool chain discharges with an SMT solver; here it is
  an exact-arithmetic linear program instead, so the repository stays
  dependency-free.

Both reduce to LP feasibility, solved by :func:`feasible_point` — a
small phase-I simplex over :class:`fractions.Fraction` with Bland's
rule (no cycling, no floating-point drift, verdicts are exact).

:class:`InductiveEngine` ties it together: prove what induction can,
fall back to bounded explicit search
(:mod:`repro.check.explicit`) for the rest, and return
``PROVED | VIOLATED(trace) | UNKNOWN`` — never a silently truncated
answer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ..errors import CheckError
from ..petri.analysis import check_budget, incidence_matrix
from ..petri.net import PetriNet
from .explicit import CheckReport, ExplicitEngine, PropertyVerdict
from .props import Property, Verdict

__all__ = [
    "feasible_point",
    "prove_by_invariant",
    "refute_by_state_equation",
    "InductiveEngine",
    "check_net",
]

_Zero = Fraction(0)
_One = Fraction(1)


def feasible_point(
    num_vars: int,
    constraints: Sequence[tuple[Mapping[int, Fraction], str, Fraction]],
) -> list[Fraction] | None:
    """A nonnegative rational solution of a linear system, or ``None``.

    Variables are ``x_0 .. x_{num_vars-1}``, all implicitly ``>= 0``.
    Each constraint is ``(coefficients, relation, rhs)`` with
    ``coefficients`` a sparse ``{variable_index: coefficient}`` map and
    ``relation`` one of ``"<="``, ``">="``, ``"=="``.  Solved by a
    phase-I simplex with Bland's rule over exact ``Fraction``s:
    feasible systems return a vertex solution, infeasible ones return
    ``None`` — there is no numeric tolerance to tune.
    """
    if num_vars < 0:
        raise CheckError(f"num_vars must be >= 0, got {num_vars!r}")
    # Normalize: dense rows, rhs >= 0.
    rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhs: list[Fraction] = []
    for coeffs, relation, bound in constraints:
        if relation not in ("<=", ">=", "=="):
            raise CheckError(f"unknown constraint relation {relation!r}")
        row = [_Zero] * num_vars
        for index, value in coeffs.items():
            if not 0 <= index < num_vars:
                raise CheckError(
                    f"constraint names variable {index}, have {num_vars}"
                )
            row[index] += Fraction(value)
        bound = Fraction(bound)
        if bound < 0:
            row = [-value for value in row]
            bound = -bound
            relation = {"<=": ">=", ">=": "<=", "==": "=="}[relation]
        rows.append(row)
        rels.append(relation)
        rhs.append(bound)

    # Equality form: one slack per inequality, one artificial where the
    # slack cannot serve as the initial basic variable.
    num_rows = len(rows)
    slack_of: list[int | None] = [None] * num_rows
    artificial_of: list[int | None] = [None] * num_rows
    next_col = num_vars
    for i, relation in enumerate(rels):
        if relation in ("<=", ">="):
            slack_of[i] = next_col
            next_col += 1
        if relation in (">=", "=="):
            artificial_of[i] = next_col
            next_col += 1
    total = next_col

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i, row in enumerate(rows):
        full = row + [_Zero] * (total - num_vars) + [rhs[i]]
        if slack_of[i] is not None:
            full[slack_of[i]] = _One if rels[i] == "<=" else -_One
        if artificial_of[i] is not None:
            full[artificial_of[i]] = _One
            basis.append(artificial_of[i])
        else:
            basis.append(slack_of[i])  # "<=" row: slack starts basic
        tableau.append(full)

    artificials = {col for col in artificial_of if col is not None}
    if not artificials:
        # Already feasible at the slack basis.
        solution = [_Zero] * num_vars
        for i, column in enumerate(basis):
            if column < num_vars:
                solution[column] = tableau[i][-1]
        return solution

    # Phase-I objective: minimize the sum of artificials.  Reduced-cost
    # row starts as minus the sum of the artificial-basic rows.
    objective = [_Zero] * (total + 1)
    for i, column in enumerate(basis):
        if column in artificials:
            for j in range(total + 1):
                objective[j] -= tableau[i][j]

    while True:
        entering = -1
        for j in range(total):
            if j in artificials:
                continue  # never re-enter an artificial
            if objective[j] < 0:
                entering = j
                break  # Bland: smallest index
        if entering < 0:
            break
        leaving = -1
        best: Fraction | None = None
        for i in range(num_rows):
            coefficient = tableau[i][entering]
            if coefficient > 0:
                ratio = tableau[i][-1] / coefficient
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            # Unbounded phase-I direction cannot happen (costs >= 0),
            # but guard against it rather than looping.
            return None
        pivot = tableau[leaving][entering]
        tableau[leaving] = [value / pivot for value in tableau[leaving]]
        # Rows are mostly zero: subtract only the pivot row's nonzero
        # columns, in place (every tableau row is its own list).
        nonzero = [(j, value) for j, value in enumerate(tableau[leaving]) if value]
        for i in range(num_rows):
            row = tableau[i]
            factor = row[entering]
            if i != leaving and factor != 0:
                for j, pivot_value in nonzero:
                    row[j] -= factor * pivot_value
        factor = objective[entering]
        if factor != 0:
            for j, pivot_value in nonzero:
                objective[j] -= factor * pivot_value
        basis[leaving] = entering

    infeasibility = -objective[-1]
    if infeasibility != 0:
        return None
    solution = [_Zero] * num_vars
    for i, column in enumerate(basis):
        if column < num_vars:
            solution[column] = tableau[i][-1]
    return solution


def _linear_data(net: PetriNet):
    places, transitions, matrix = incidence_matrix(net)
    place_index = {place: i for i, place in enumerate(places)}
    initial = net.marking()
    return places, transitions, matrix, place_index, initial


def prove_by_invariant(
    net: PetriNet,
    coeffs: Mapping[str, int],
    bound: int,
    _data=None,
) -> dict[str, Fraction] | None:
    """An inductive place-invariant certificate for
    ``sum(coeff[p] * m[p]) <= bound``, or ``None``.

    Searches (by LP feasibility) for a nonnegative weighting ``y`` with
    ``y · C = 0``, ``y >= coeff`` pointwise, and ``y · m0 <= bound``.
    Such a ``y`` makes ``y · m`` constant under every firing, so for
    any reachable ``m``: ``coeff · m <= y · m = y · m0 <= bound``.
    The returned certificate maps each place with nonzero weight to its
    rational weight.  ``_data`` lets a caller checking many properties
    reuse one :func:`incidence_matrix` build.
    """
    places, transitions, matrix, place_index, initial = (
        _data if _data is not None else _linear_data(net)
    )
    n = len(places)
    constraints: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for t in range(len(transitions)):
        column = {
            p: Fraction(matrix[p][t]) for p in range(n) if matrix[p][t] != 0
        }
        if column:
            constraints.append((column, "==", _Zero))
    for place, coefficient in coeffs.items():
        if place not in place_index:
            raise CheckError(f"unknown place {place!r} in net {net.name!r}")
        constraints.append(
            ({place_index[place]: _One}, ">=", Fraction(coefficient))
        )
    constraints.append(
        (
            {
                i: Fraction(initial.get(place, 0))
                for i, place in enumerate(places)
                if initial.get(place, 0)
            },
            "<=",
            Fraction(bound),
        )
    )
    solution = feasible_point(n, constraints)
    if solution is None:
        return None
    return {
        places[i]: solution[i] for i in range(n) if solution[i] != 0
    }


def refute_by_state_equation(
    net: PetriNet,
    coeffs: Mapping[str, int],
    bound: int,
    _data=None,
) -> bool:
    """Whether the state equation rules out every marking violating
    ``sum(coeff[p] * m[p]) <= bound``.

    Builds the rational relaxation ``m = m0 + C·x`` with ``m, x >= 0``
    and ``coeff · m >= bound + 1``; if it is infeasible the property is
    proved (reachable markings are integer solutions of the state
    equation, a subset of the relaxation).  ``False`` means only that
    this method is inconclusive — a potentially-reachable bad marking
    exists in the relaxation.  ``_data`` lets a caller checking many
    properties reuse one :func:`incidence_matrix` build.
    """
    places, transitions, matrix, place_index, initial = (
        _data if _data is not None else _linear_data(net)
    )
    n = len(places)
    t_count = len(transitions)
    # Variables: m_0..m_{n-1}, then x_0..x_{t_count-1}.
    constraints: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for p in range(n):
        row: dict[int, Fraction] = {p: _One}
        for t in range(t_count):
            if matrix[p][t] != 0:
                row[n + t] = Fraction(-matrix[p][t])
        constraints.append((row, "==", Fraction(initial.get(places[p], 0))))
    bad: dict[int, Fraction] = {}
    for place, coefficient in coeffs.items():
        if place not in place_index:
            raise CheckError(f"unknown place {place!r} in net {net.name!r}")
        bad[place_index[place]] = Fraction(coefficient)
    constraints.append((bad, ">=", Fraction(bound + 1)))
    return feasible_point(n + t_count, constraints) is None


def _certificate_note(certificate: Mapping[str, Fraction], bound: int) -> str:
    terms = " + ".join(
        (f"{weight}*{place}" if weight != 1 else place)
        for place, weight in certificate.items()
    )
    return f"invariant certificate: {terms} <= {bound} holds inductively"


class InductiveEngine:
    """Prove linear safety by induction, fall back to explicit search.

    The engine never truncates silently: linear safety properties the
    invariant/state-equation arguments cannot discharge — and every
    non-linear or liveness property — go through one shared bounded
    explicit exploration, whose verdicts are ``VIOLATED`` with a
    replayable trace, ``PROVED`` only on a complete sweep, and
    ``UNKNOWN`` otherwise.
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net

    def check(
        self, properties: Iterable[Property], budget: int = 50_000
    ) -> CheckReport:
        """Check ``properties``; returns one verdict per property, in
        order.  ``budget`` caps the explicit fallback's state count.

        Raises
        ------
        CheckError
            On a ``budget`` that is not an ``int`` >= 1, even when
            induction decides every property and no search runs.
        """
        check_budget(budget, "budget", CheckError)
        props = tuple(properties)
        for prop in props:
            prop.validate_against(self.net)
        verdicts: dict[int, PropertyVerdict] = {}
        fallback: list[int] = []
        # One incidence-matrix build serves every linear property (and
        # both proof methods) of this check.
        data = None
        for slot, prop in enumerate(props):
            linear = prop.linear_bound() if prop.kind == "safety" else None
            if linear is None:
                fallback.append(slot)
                continue
            if data is None:
                data = _linear_data(self.net)
            coeffs, bound = linear
            certificate = prove_by_invariant(
                self.net, coeffs, bound, _data=data
            )
            if certificate is not None:
                verdicts[slot] = PropertyVerdict(
                    prop=prop,
                    verdict=Verdict.PROVED,
                    method="invariant",
                    note=_certificate_note(certificate, bound),
                )
                continue
            if refute_by_state_equation(self.net, coeffs, bound, _data=data):
                verdicts[slot] = PropertyVerdict(
                    prop=prop,
                    verdict=Verdict.PROVED,
                    method="state-equation",
                    note=(
                        "no rational solution of the state equation "
                        "reaches a violating marking (k-induction base)"
                    ),
                )
                continue
            fallback.append(slot)
        explored = 0
        complete = True
        if fallback:
            report = ExplicitEngine(self.net, max_states=budget).check(
                props[slot] for slot in fallback
            )
            explored = report.explored
            complete = report.complete
            for slot, verdict in zip(fallback, report.verdicts):
                verdicts[slot] = verdict
        return CheckReport(
            net_name=self.net.name,
            verdicts=tuple(verdicts[slot] for slot in range(len(props))),
            explored=explored,
            complete=complete,
        )


def check_net(
    net: PetriNet, properties: Iterable[Property], budget: int = 50_000
) -> CheckReport:
    """Check ``properties`` against ``net`` with the full engine stack:
    induction first, bounded explicit search as the fallback."""
    return InductiveEngine(net).check(properties, budget=budget)
