"""Tests for presentation specs, compilation, scheduling (synchronous
sets), and verification."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InconsistentSpecError, ScheduleError, TemporalError
from repro.media.objects import audio, image, text, video
from repro.petri.ocpn import OCPN
from repro.temporal.compiler import compile_spec
from repro.temporal.intervals import Relation, relation_between
from repro.temporal.schedule import compute_schedule
from repro.temporal.spec import PresentationSpec
from repro.temporal.verify import (
    reverify_after_edit,
    verify_against_spec,
    verify_resources,
)


def lecture_spec():
    """talk video with slides shown DURING it, then a quiz image."""
    spec = PresentationSpec("lecture")
    spec.add(video("talk", 60.0))
    spec.add(image("slides", 40.0))
    spec.add(image("quiz", 10.0))
    spec.relate("slides", "talk", Relation.DURING, offset=10.0)
    return spec


class TestSpecAuthoring:
    def test_duplicate_media_rejected(self):
        spec = PresentationSpec()
        spec.add(video("v", 10.0))
        with pytest.raises(TemporalError):
            spec.add(audio("v", 5.0))

    def test_unknown_media_in_constraint_rejected(self):
        spec = PresentationSpec()
        spec.add(video("v", 10.0))
        with pytest.raises(TemporalError):
            spec.relate("v", "ghost", Relation.MEETS)

    def test_self_relation_rejected(self):
        spec = PresentationSpec()
        spec.add(video("v", 10.0))
        with pytest.raises(TemporalError):
            spec.relate("v", "v", Relation.MEETS)

    def test_infeasible_equals_rejected_early(self):
        spec = PresentationSpec()
        spec.add(video("v", 10.0))
        spec.add(audio("a", 5.0))
        with pytest.raises(InconsistentSpecError):
            spec.relate("v", "a", Relation.EQUALS)

    def test_infeasible_during_rejected_early(self):
        spec = PresentationSpec()
        spec.add(video("outer", 10.0))
        spec.add(image("inner", 8.0))
        with pytest.raises(InconsistentSpecError):
            spec.relate("inner", "outer", Relation.DURING, offset=5.0)

    @pytest.mark.parametrize("relation", [Relation.STARTS, Relation.FINISHES])
    def test_near_equal_contained_item_rejected_early(self, relation):
        # 2e-16 apart: inside the compiler's margin, so compile_spec
        # would refuse it; relate must refuse it first.
        spec = PresentationSpec()
        spec.add(video("A", 1.0))
        spec.add(video("B", 1.0000000000000002))
        with pytest.raises(InconsistentSpecError):
            spec.relate("A", "B", relation)

    def test_before_requires_positive_gap(self):
        spec = PresentationSpec()
        spec.add(video("a", 5.0))
        spec.add(video("b", 5.0))
        with pytest.raises(InconsistentSpecError):
            spec.relate("a", "b", Relation.BEFORE, offset=0.0)

    def test_double_anchor_rejected(self):
        spec = PresentationSpec()
        spec.add(video("a", 5.0))
        spec.add(video("b", 5.0))
        spec.add(video("c", 5.0))
        spec.relate("a", "b", Relation.MEETS)
        with pytest.raises(TemporalError):
            spec.relate("c", "b", Relation.MEETS)

    def test_unconstrained_names(self):
        spec = lecture_spec()
        assert spec.unconstrained_names() == ["quiz"]

    def test_inverse_relation_feasibility_uses_swapped_durations(self):
        spec = PresentationSpec()
        spec.add(video("long", 20.0))
        spec.add(image("short", 5.0))
        # long CONTAINS short: fine with offset 2.
        spec.relate("long", "short", Relation.CONTAINS, offset=2.0)


class TestCompilation:
    def test_single_pair_compiles_and_schedules(self):
        spec = lecture_spec()
        schedule = compute_schedule(compile_spec(spec))
        assert schedule.start_of("slides") == pytest.approx(10.0)
        assert schedule.end_of("talk") == pytest.approx(60.0)
        # quiz plays after the constrained component (sequential).
        assert schedule.start_of("quiz") == pytest.approx(60.0)

    def test_parallel_arrangement(self):
        spec = PresentationSpec()
        spec.add(video("a", 10.0))
        spec.add(audio("b", 4.0))
        schedule = compute_schedule(compile_spec(spec, arrangement="parallel"))
        assert schedule.start_of("a") == schedule.start_of("b") == pytest.approx(0.0)

    def test_unknown_arrangement_rejected(self):
        with pytest.raises(TemporalError):
            compile_spec(lecture_spec(), arrangement="diagonal")

    def test_empty_spec_rejected(self):
        with pytest.raises(TemporalError):
            compile_spec(PresentationSpec())

    def test_meets_chain_compiles(self):
        spec = PresentationSpec()
        for index in range(4):
            spec.add(text(f"t{index}", 2.0))
        spec.relate("t0", "t1", Relation.MEETS)
        spec.relate("t1", "t2", Relation.MEETS)
        spec.relate("t2", "t3", Relation.BEFORE, offset=1.0)
        schedule = compute_schedule(compile_spec(spec))
        assert schedule.start_of("t1") == pytest.approx(2.0)
        assert schedule.start_of("t2") == pytest.approx(4.0)
        assert schedule.start_of("t3") == pytest.approx(7.0)

    def test_chain_with_inverse_links(self):
        spec = PresentationSpec()
        spec.add(text("a", 2.0))
        spec.add(text("b", 2.0))
        spec.relate("b", "a", Relation.MET_BY)  # a meets b
        schedule = compute_schedule(compile_spec(spec))
        assert schedule.start_of("b") == pytest.approx(2.0)

    def test_mixed_chain_rejected_with_guidance(self):
        spec = PresentationSpec()
        spec.add(video("a", 10.0))
        spec.add(video("b", 10.0))
        spec.add(image("c", 4.0))
        spec.relate("a", "b", Relation.MEETS)
        spec.relate("c", "a", Relation.DURING, offset=1.0)
        with pytest.raises(TemporalError, match="OCPN block API"):
            compile_spec(spec)


class TestScheduleQueries:
    def test_makespan(self):
        schedule = compute_schedule(compile_spec(lecture_spec()))
        assert schedule.makespan() == pytest.approx(70.0)

    def test_active_at(self):
        schedule = compute_schedule(compile_spec(lecture_spec()))
        assert schedule.active_at(5.0) == ["talk"]
        assert schedule.active_at(15.0) == ["slides", "talk"]
        assert schedule.active_at(65.0) == ["quiz"]

    def test_peak_concurrency(self):
        schedule = compute_schedule(compile_spec(lecture_spec()))
        assert schedule.peak_concurrency() == 2

    def test_unknown_media_query_raises(self):
        schedule = compute_schedule(compile_spec(lecture_spec()))
        with pytest.raises(ScheduleError):
            schedule.start_of("ghost")

    def test_synchronous_sets_order_and_grouping(self):
        spec = PresentationSpec()
        spec.add(video("v", 10.0))
        spec.add(audio("a", 10.0))
        spec.add(image("i", 5.0))
        spec.relate("v", "a", Relation.EQUALS)
        schedule = compute_schedule(compile_spec(spec))
        sets = schedule.synchronous_sets()
        assert sets[0].media == ("a", "v")
        assert sets[0].time == pytest.approx(0.0)
        assert sets[1].media == ("i",)
        assert sets[1].time == pytest.approx(10.0)

    def test_unrooted_ocpn_rejected(self):
        from repro.petri.ocpn import OCPN

        ocpn = OCPN()
        ocpn.media_block("v", 5.0)
        with pytest.raises(ScheduleError):
            compute_schedule(ocpn)


class TestVerification:
    def test_clean_spec_verifies(self):
        spec = lecture_spec()
        schedule = compute_schedule(compile_spec(spec))
        assert verify_against_spec(spec, schedule).ok

    def test_bandwidth_violation_detected(self):
        spec = PresentationSpec()
        spec.add(video("v1", 10.0))   # 1500 kbps
        spec.add(video("v2", 10.0))   # 1500 kbps
        spec.relate("v1", "v2", Relation.EQUALS)
        schedule = compute_schedule(compile_spec(spec))
        report = verify_resources(spec, schedule, bandwidth_budget_kbps=2000.0)
        assert not report.ok
        assert report.violations[0].kind == "bandwidth"

    def test_bandwidth_within_budget_ok(self):
        spec = lecture_spec()
        schedule = compute_schedule(compile_spec(spec))
        assert verify_resources(spec, schedule, bandwidth_budget_kbps=5000.0).ok

    def test_bad_budget_rejected(self):
        spec = lecture_spec()
        schedule = compute_schedule(compile_spec(spec))
        with pytest.raises(ScheduleError):
            verify_resources(spec, schedule, bandwidth_budget_kbps=0.0)

    def test_reverify_after_edit_success(self):
        spec = lecture_spec()
        edited, schedule, report = reverify_after_edit(spec, "quiz", 20.0)
        assert report.ok
        assert schedule.duration_of("quiz") == pytest.approx(20.0)
        # Original untouched.
        assert spec.media_object("quiz").duration == 10.0

    def test_reverify_infeasible_edit_raises(self):
        spec = lecture_spec()
        # slides grown past the talk: DURING becomes impossible.
        with pytest.raises((InconsistentSpecError, TemporalError)):
            reverify_after_edit(spec, "slides", 70.0)


class TestCompileExecuteClassifyProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        da=st.floats(min_value=1.0, max_value=40.0),
        db=st.floats(min_value=1.0, max_value=40.0),
        relation=st.sampled_from(
            [Relation.MEETS, Relation.BEFORE, Relation.EQUALS, Relation.STARTS,
             Relation.FINISHES]
        ),
        gap=st.floats(min_value=0.5, max_value=5.0),
    )
    def test_property_compiled_schedule_realizes_relation(self, da, db, relation, gap):
        if relation is Relation.EQUALS:
            db = da
        # STARTS/FINISHES need B longer than A by more than the 1e-6
        # tolerance the classification below reads endpoints with;
        # closer durations would read as EQUALS.
        if relation in (Relation.STARTS, Relation.FINISHES) and db - da <= 1e-6:
            da, db = min(da, db / 2), db
        spec = PresentationSpec()
        spec.add(video("A", da))
        spec.add(video("B", db))
        offset = gap if relation is Relation.BEFORE else 0.0
        spec.relate("A", "B", relation, offset=offset)
        schedule = compute_schedule(compile_spec(spec))
        realized = relation_between(
            schedule.intervals["A"], schedule.intervals["B"], tolerance=1e-6
        )
        assert realized is relation


#: (relation, (duration, slack) -> (da, db, offset)) pairs that leave
#: the relation ``slack`` seconds of room at one of the compiler's margins.
_MARGINS = {
    "equals": (Relation.EQUALS, lambda d, s: (d, d + s, 0.0)),
    "starts": (Relation.STARTS, lambda d, s: (d, d + s, 0.0)),
    "finished_by": (Relation.FINISHED_BY, lambda d, s: (d + s, d, 0.0)),
    "during_tail": (Relation.DURING, lambda d, s: (d, d + 1.0 + s, 1.0)),
    "overlaps_offset": (Relation.OVERLAPS, lambda d, s: (d, d, d - s)),
    "overlaps_tail": (Relation.OVERLAPS, lambda d, s: (d, 0.5 + s, d - 0.5)),
}


class TestFeasibilityMatchesCompiler:
    """``relate`` refuses exactly the durations ``OCPN.relate`` refuses."""

    @pytest.mark.parametrize("case", sorted(_MARGINS))
    def test_relate_and_compile_agree_at_the_margin(self, case):
        relation, build = _MARGINS[case]
        for d in (1.0, 2.9, 17.3, 40.0):
            for slack in (0.0, 2e-16, 5e-13, 1e-12, 2e-12, 1e-9, 0.25):
                da, db, offset = build(d, slack)
                spec = PresentationSpec()
                spec.add(video("A", da))
                spec.add(video("B", db))
                try:
                    spec.relate("A", "B", relation, offset=offset)
                except InconsistentSpecError:
                    with pytest.raises(TemporalError):
                        OCPN().relate("A", da, "B", db, relation, offset=offset)
                else:
                    compile_spec(spec)
