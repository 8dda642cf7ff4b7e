"""Tests for the inductive prover: the exact LP core, invariant and
state-equation proofs, the explicit fallback, and randomized
cross-validation of the two engines against each other."""

import random
from fractions import Fraction

import pytest

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

F = Fraction


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
