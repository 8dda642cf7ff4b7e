"""Tests for the inductive prover: the exact LP core, invariant and
state-equation proofs, the explicit fallback, and randomized
cross-validation of the two engines against each other."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import induct, run_suite
from repro.check.explicit import check_explicit
from repro.check.induct import (
    InductiveEngine,
    check_net,
    feasible_point,
    prove_by_invariant,
    refute_by_state_equation,
)
from repro.check.nets import floor_model, product_cycles
from repro.check.props import DeadlockFree, Mutex, PlaceBound, Verdict
from repro.core.modes import FCMMode
from repro.errors import CheckError
from repro.petri.net import PetriNet
from test_petri_analysis import repo_nets

F = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


class TestFeasiblePoint:
    def test_simple_feasible_system(self):
        # x0 + x1 == 2, x0 >= 1  -> e.g. (1, 1) or (2, 0)
        point = feasible_point(
            2, [({0: F(1), 1: F(1)}, "==", F(2)), ({0: F(1)}, ">=", F(1))]
        )
        assert point is not None
        assert point[0] + point[1] == 2
        assert point[0] >= 1

    def test_infeasible_system(self):
        # x0 <= 1 and x0 >= 2 cannot hold together.
        point = feasible_point(
            1, [({0: F(1)}, "<=", F(1)), ({0: F(1)}, ">=", F(2))]
        )
        assert point is None

    def test_nonnegativity_is_implicit(self):
        # x0 + x1 == -1 is impossible for nonnegative variables.
        assert feasible_point(2, [({0: F(1), 1: F(1)}, "==", F(-1))]) is None

    def test_negative_rhs_normalization(self):
        # -x0 <= -3  <=>  x0 >= 3.
        point = feasible_point(1, [({0: F(-1)}, "<=", F(-3))])
        assert point is not None and point[0] >= 3

    def test_exact_fractions_no_drift(self):
        point = feasible_point(
            1, [({0: F(3)}, "==", F(1))]
        )
        assert point == [F(1, 3)]

    def test_rejects_bad_input(self):
        with pytest.raises(CheckError):
            feasible_point(1, [({0: F(1)}, "<>", F(0))])
        with pytest.raises(CheckError):
            feasible_point(1, [({5: F(1)}, "<=", F(0))])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_systems_agree_with_brute_force_grid(self, seed):
        # Small random integer systems over 2 vars: if some integer
        # grid point satisfies everything, the LP must be feasible.
        rng = random.Random(seed)
        constraints = []
        for __ in range(rng.randint(1, 4)):
            coeffs = {
                0: F(rng.randint(-3, 3)),
                1: F(rng.randint(-3, 3)),
            }
            rel = rng.choice(["<=", ">=", "=="])
            constraints.append((coeffs, rel, F(rng.randint(-4, 4))))
        grid_feasible = any(
            all(
                (
                    (c[0] * x + c[1] * y <= rhs)
                    if rel == "<="
                    else (c[0] * x + c[1] * y >= rhs)
                    if rel == ">="
                    else (c[0] * x + c[1] * y == rhs)
                )
                for c, rel, rhs in constraints
            )
            for x in range(0, 9)
            for y in range(0, 9)
        )
        lp = feasible_point(2, constraints)
        if grid_feasible:
            assert lp is not None
        if lp is not None:
            # The returned point itself must satisfy every constraint.
            x, y = lp
            for c, rel, rhs in constraints:
                value = c[0] * x + c[1] * y
                assert (
                    value <= rhs
                    if rel == "<="
                    else value >= rhs
                    if rel == ">="
                    else value == rhs
                )


class TestInvariantProof:
    def test_token_ring_mutex_certificate(self):
        model = floor_model(FCMMode.EQUAL_CONTROL, members=3)
        coeffs, bound = model.mutex.linear_bound()
        certificate = prove_by_invariant(model.net, coeffs, bound)
        assert certificate is not None
        # The certificate dominates the property's coefficients and
        # starts within the bound.
        for place, coeff in coeffs.items():
            assert certificate.get(place, F(0)) >= coeff
        initial = model.net.marking()
        weighted = sum(
            weight * initial.get(place, 0)
            for place, weight in certificate.items()
        )
        assert weighted <= bound

    def test_no_certificate_for_violable_property(self):
        net = product_cycles(cycles=2, length=2)
        # Cross-cycle mutex is violable, so no invariant can prove it.
        assert prove_by_invariant(net, {"c0_p0": 1, "c1_p1": 1}, 1) is None

    def test_unknown_place_rejected(self):
        with pytest.raises(CheckError):
            prove_by_invariant(product_cycles(2, 2), {"ghost": 1}, 1)


class TestStateEquationRefutation:
    def test_refutes_unreachable_overflow(self):
        # A single cycle conserves its one token: two tokens anywhere
        # is excluded by the state equation alone.
        net = product_cycles(cycles=1, length=3)
        assert refute_by_state_equation(net, {"c0_p0": 1, "c0_p1": 1}, 1)

    def test_cannot_refute_reachable_marking(self):
        net = product_cycles(cycles=2, length=2)
        # c0_p0=1, c1_p1=1 is genuinely reachable.
        assert not refute_by_state_equation(net, {"c0_p0": 1, "c1_p1": 1}, 1)

    def test_proves_without_invariant_certificate(self):
        # start -> t -> sink: sink <= 1 has no *dominating* nonnegative
        # place invariant (the t column is not null), but the state
        # equation m_sink = x_t <= m0_start = 1 discharges it.
        net = PetriNet("oneshot")
        net.add_place("start", tokens=1)
        net.add_place("sink")
        net.add_transition("t")
        net.add_arc("start", "t")
        net.add_arc("t", "sink")
        report = InductiveEngine(net).check([PlaceBound("sink", 1)])
        verdict = report.verdicts[0]
        assert verdict.verdict is Verdict.PROVED
        assert verdict.method in ("invariant", "state-equation")


class TestEngineOrchestration:
    def test_all_floor_models_mutex_proved_inductively(self):
        for mode in FCMMode:
            model = floor_model(mode, members=5)
            report = InductiveEngine(model.net).check(model.properties)
            verdict = report.verdict_for(model.mutex.name)
            assert verdict.verdict is Verdict.PROVED
            assert verdict.method in ("invariant", "state-equation"), (
                f"{mode.value}: mutex must be proved inductively, "
                f"not by {verdict.method}"
            )

    def test_fallback_finds_violations_with_traces(self):
        net = product_cycles(cycles=2, length=2)
        report = check_net(net, [Mutex(("c0_p0", "c1_p1"))])
        verdict = report.verdicts[0]
        assert verdict.verdict is Verdict.VIOLATED
        replayed = verdict.counterexample.replay(net)
        assert replayed["c0_p0"] + replayed["c1_p1"] == 2

    def test_unknown_on_truncated_fallback(self):
        net = product_cycles(cycles=4, length=4)
        # DeadlockFree is not linear; budget 10 < 256 states.
        report = check_net(net, [DeadlockFree()], budget=10)
        assert report.verdicts[0].verdict is Verdict.UNKNOWN
        assert not report.complete

    def test_verdicts_keep_property_order(self):
        model = floor_model(FCMMode.EQUAL_CONTROL, members=3)
        report = InductiveEngine(model.net).check(model.properties)
        assert [v.prop for v in report.verdicts] == list(model.properties)

    @pytest.mark.parametrize(
        "budget", [0, -5, float("nan"), True, "x"], ids=repr
    )
    def test_bad_budget_rejected_when_induction_decides_all(self, budget):
        # Regression: the budget was only checked when the explicit
        # fallback ran, so an all-inductive check accepted any value.
        model = floor_model(FCMMode.EQUAL_CONTROL, members=3)
        with pytest.raises(CheckError, match="^budget must be an int >= 1"):
            check_net(model.net, [model.mutex], budget=budget)


def random_net(rng: random.Random) -> PetriNet:
    """A small random net: bounded by construction (transitions move
    tokens, sources are excluded) so explicit exploration terminates."""
    net = PetriNet("random")
    places = [f"p{i}" for i in range(rng.randint(2, 5))]
    for place in places:
        net.add_place(place, tokens=rng.randint(0, 2))
    for t in range(rng.randint(1, 5)):
        name = f"t{t}"
        net.add_transition(name)
        inputs = rng.sample(places, rng.randint(1, min(2, len(places))))
        outputs = rng.sample(places, rng.randint(1, min(2, len(places))))
        for place in inputs:
            net.add_arc(place, name)
        for place in outputs:
            net.add_arc(name, place)
    return net


class TestCrossValidation:
    """On randomized small nets the two engines must agree: a property
    the prover PROVES is never violated in the full state space, and
    every explicit VIOLATED verdict replays to a violating marking."""

    @pytest.mark.parametrize("seed", range(40))
    def test_prover_and_explicit_agree(self, seed):
        rng = random.Random(seed)
        net = random_net(rng)
        places = list(net.places)
        targets = rng.sample(places, rng.randint(1, min(2, len(places))))
        prop = Mutex(tuple(targets), bound=rng.randint(0, 2))
        coeffs, bound = prop.linear_bound()

        explicit = check_explicit(net, [prop], max_states=20_000)
        explicit_verdict = explicit.verdicts[0]

        if prove_by_invariant(net, coeffs, bound) is not None:
            assert explicit_verdict.verdict is not Verdict.VIOLATED, (
                f"seed {seed}: invariant proof contradicts explicit "
                f"counterexample {explicit_verdict.counterexample}"
            )
        if refute_by_state_equation(net, coeffs, bound):
            assert explicit_verdict.verdict is not Verdict.VIOLATED, (
                f"seed {seed}: state-equation proof contradicts explicit "
                f"counterexample {explicit_verdict.counterexample}"
            )
        if explicit_verdict.verdict is Verdict.VIOLATED:
            reached = explicit_verdict.counterexample.replay(net)
            assert prop.violated_by(reached)

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_full_engine_verdicts_match_explicit_truth(self, seed):
        rng = random.Random(seed)
        net = random_net(rng)
        place = rng.choice(list(net.places))
        prop = PlaceBound(place, rng.randint(0, 2))
        inductive = InductiveEngine(net).check([prop], budget=20_000)
        explicit = check_explicit(net, [prop], max_states=20_000)
        lhs = inductive.verdicts[0].verdict
        rhs = explicit.verdicts[0].verdict
        if Verdict.UNKNOWN not in (lhs, rhs):
            assert lhs is rhs, f"seed {seed}: {lhs} vs {rhs}"


# ----------------------------------------------------------------------
# Sparse pivots against the dense simplex they replaced
# ----------------------------------------------------------------------
def dense_feasible_point(num_vars, constraints):
    """The phase-I simplex as it was before sparse pivots: every pivot
    rewrites every column of every row.  Kept as the oracle."""
    if num_vars < 0:
        raise CheckError(f"num_vars must be >= 0, got {num_vars!r}")
    # Normalize: dense rows, rhs >= 0.
    rows = []
    rels = []
    rhs = []
    for coeffs, relation, bound in constraints:
        if relation not in ("<=", ">=", "=="):
            raise CheckError(f"unknown constraint relation {relation!r}")
        row = [ZERO] * num_vars
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
    slack_of = [None] * num_rows
    artificial_of = [None] * num_rows
    next_col = num_vars
    for i, relation in enumerate(rels):
        if relation in ("<=", ">="):
            slack_of[i] = next_col
            next_col += 1
        if relation in (">=", "=="):
            artificial_of[i] = next_col
            next_col += 1
    total = next_col

    tableau = []
    basis = []
    for i, row in enumerate(rows):
        full = row + [ZERO] * (total - num_vars) + [rhs[i]]
        if slack_of[i] is not None:
            full[slack_of[i]] = ONE if rels[i] == "<=" else -ONE
        if artificial_of[i] is not None:
            full[artificial_of[i]] = ONE
            basis.append(artificial_of[i])
        else:
            basis.append(slack_of[i])  # "<=" row: slack starts basic
        tableau.append(full)

    artificials = {col for col in artificial_of if col is not None}
    if not artificials:
        # Already feasible at the slack basis.
        solution = [ZERO] * num_vars
        for i, column in enumerate(basis):
            if column < num_vars:
                solution[column] = tableau[i][-1]
        return solution

    # Phase-I objective: minimize the sum of artificials.  Reduced-cost
    # row starts as minus the sum of the artificial-basic rows.
    objective = [ZERO] * (total + 1)
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
        best = None
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
        for i in range(num_rows):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [
                    value - factor * pivot_value
                    for value, pivot_value in zip(tableau[i], tableau[leaving])
                ]
        if objective[entering] != 0:
            factor = objective[entering]
            objective = [
                value - factor * pivot_value
                for value, pivot_value in zip(objective, tableau[leaving])
            ]
        basis[leaving] = entering

    infeasibility = -objective[-1]
    if infeasibility != 0:
        return None
    solution = [ZERO] * num_vars
    for i, column in enumerate(basis):
        if column < num_vars:
            solution[column] = tableau[i][-1]
    return solution


def recorded_lps(monkeypatch, run):
    """Every ``(num_vars, constraints)`` system ``run()`` hands to
    :func:`feasible_point`."""
    systems = []
    solve = induct.feasible_point

    def recording(num_vars, constraints):
        systems.append((num_vars, list(constraints)))
        return solve(num_vars, constraints)

    with monkeypatch.context() as patch:
        patch.setattr(induct, "feasible_point", recording)
        run()
    return systems


def place_bound_lps(monkeypatch, net):
    """The invariant and state-equation LPs of a 1-bound on about four
    places spread over the net, and of the initial token total on all
    places."""
    places = list(net.places)
    properties = [({place: 1}, 1) for place in places[:: max(1, len(places) // 4)]]
    properties.append(({place: 1 for place in places}, sum(net.marking().values())))
    data = induct._linear_data(net)

    def run():
        for coeffs, bound in properties:
            prove_by_invariant(net, coeffs, bound, _data=data)
            refute_by_state_equation(net, coeffs, bound, _data=data)

    return recorded_lps(monkeypatch, run)


#: Repository nets for the dense oracle.  Two compiled 8-item
#: presentations stand for the five (the oracle takes about a second
#: on each); it takes minutes on a 32-item one (101 places).
LP_NETS = [(name, factory) for name, factory in repo_nets()
           if not name.startswith("random-") or name in ("random-8-0", "random-8-1")]


@st.composite
def lp_systems(draw):
    """1-6 variables, 1-6 sparse integer constraints of any relation."""
    num_vars = draw(st.integers(1, 6))
    constraint = st.tuples(
        st.dictionaries(st.integers(0, num_vars - 1), st.integers(-3, 3),
                        max_size=num_vars),
        st.sampled_from(("<=", ">=", "==")),
        st.integers(-4, 4),
    )
    return num_vars, draw(st.lists(constraint, min_size=1, max_size=6))


class TestSparsePivotOracle:
    """The same vertex, not only the same verdict, as the dense body."""

    @pytest.mark.parametrize(
        "factory",
        [factory for __, factory in LP_NETS],
        ids=[name for name, __ in LP_NETS],
    )
    def test_repo_net_lps(self, factory, monkeypatch):
        systems = place_bound_lps(monkeypatch, factory())
        assert systems
        for num_vars, constraints in systems:
            assert feasible_point(num_vars, constraints) == dense_feasible_point(
                num_vars, constraints
            )

    @pytest.mark.parametrize(
        "suite, members", [("figure1", 3), ("floor_safety", 3), ("floor_safety", 6)]
    )
    def test_suite_lps(self, suite, members, monkeypatch):
        systems = recorded_lps(monkeypatch, lambda: run_suite(suite, members=members))
        assert any(feasible_point(*system) is not None for system in systems)
        for num_vars, constraints in systems:
            assert feasible_point(num_vars, constraints) == dense_feasible_point(
                num_vars, constraints
            )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(system=lp_systems())
    def test_generated_systems(self, system):
        assert feasible_point(*system) == dense_feasible_point(*system)
