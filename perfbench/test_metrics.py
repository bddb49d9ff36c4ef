"""Tests of the benchmark's metric arithmetic on synthetic inputs.

    python3 -m pytest -q perfbench/test_metrics.py
"""

import pytest

from metrics import (Span, Tally, at_reference_speed, covered_by_children,
                     first_pass_at_gap, host_factor, instance_medians, rel_gap,
                     self_time_by_name, self_times, summarize, time_to_gap)


def test_rel_gap_scales_by_reference_magnitude_floor_one():
    assert rel_gap(101.0, 100.0) == pytest.approx(0.01)
    assert rel_gap(0.5, 0.25) == pytest.approx(0.25)  # |f_ref| < 1: floor 1


def test_time_to_gap_first_boundary_at_or_below_target():
    f_ref = 10.0
    f = [20.0, 10.1, 10.000005, 10.000001, 10.0000001]
    elapsed = [0.0, 1.0, 2.0, 3.0, 4.0]
    # gaps: 1, 1e-2, 5e-7, 1e-7, 1e-8
    assert first_pass_at_gap(f, f_ref, 1e-6) == 2
    assert time_to_gap(elapsed, f, f_ref, 1e-6) == 2.0
    assert time_to_gap(elapsed, f, f_ref, 1e-6, call_offset=0.25) == 2.25


def test_time_to_gap_target_met_exactly_counts():
    assert first_pass_at_gap([2.0, 1.5], 1.0, 0.5) == 1


def test_time_to_gap_never_reached_is_none():
    f = [20.0, 15.0, 12.0]
    assert first_pass_at_gap(f, 10.0, 1e-6) is None
    assert time_to_gap([0.0, 1.0, 2.0], f, 10.0, 1e-6) is None


def test_time_to_gap_start_point_can_already_qualify():
    assert time_to_gap([0.5, 1.0], [10.0, 10.0], 10.0, 1e-6) == 0.5


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("solve", 0.0, 10.0, None),
        Span("run_cycle", 1.0, 6.0, 0),
        Span("refresh_cache", 2.0, 3.0, 1),   # nested in run_cycle
        Span("eval", 7.0, 8.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 1.0, 1.0])
    by_name = self_time_by_name(spans + [Span("eval", 8.5, 9.0, 0)])
    assert by_name["eval"] == pytest.approx((1.5, 2))
    # root loses the 0.5 s of the extra eval as well
    assert by_name["solve"][0] == pytest.approx(3.5)


def test_self_times_sum_to_root_duration():
    spans = [Span("a", 0.0, 5.0, None), Span("b", 1.0, 2.0, 0),
             Span("c", 1.2, 1.7, 1), Span("d", 3.0, 4.5, 0)]
    assert sum(self_times(spans)) == pytest.approx(5.0)
    # the root's direct children cover 2.5 s; the nested span adds nothing
    assert covered_by_children(spans, 0) == pytest.approx(2.5)


def test_tally_counts_failures_against_attempts():
    t = Tally()
    assert t.record([], "a")
    assert not t.record(["target gap not reached within the budget"], "b")
    assert t.record([], "c")
    assert not t.record(["solver raised", "left the polytope"], "d")
    assert (t.attempted, t.failed) == (4, 2)
    assert not t.correct
    assert t.reasons == ["b: target gap not reached within the budget",
                         "d: solver raised", "d: left the polytope"]


def test_tally_correct_needs_an_attempt():
    t = Tally()
    assert not t.correct
    t.record([], "x")
    assert t.correct


def test_summarize_matches_statistics_quartiles():
    vals = [5.0, 1.0, 3.0, 2.0, 4.0]
    s = summarize(vals)
    assert (s["median"], s["min"], s["max"], s["n"]) == (3.0, 1.0, 5.0, 5)
    assert (s["p25"], s["p75"]) == (1.5, 4.5)
    one = summarize([2.5])
    assert one["median"] == one["p25"] == one["p75"] == 2.5


def test_instance_medians_take_each_instances_median_visit():
    samples = [{"seed": 3, "t": 9.0}, {"seed": 1, "t": 2.0},
               {"seed": 3, "t": 1.0}, {"seed": 1, "t": 4.0},
               {"seed": 3, "t": 2.0}]
    # instance 1: median of 2 and 4; instance 3: median of 9, 1 and 2
    assert instance_medians(samples, "t") == [3.0, 2.0]
    # a slow visit moves its instance's median by one rank, not to itself
    assert summarize(instance_medians(samples, "t"))["median"] == 2.5


def test_host_factor_is_median_probe_in_window_over_reference():
    starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    durations = [1.0, 2.0, 6.0, 3.0, 9.0]
    # probes started at 1, 2 and 3 lie in [1, 4): median 3, reference 2
    assert host_factor(starts, durations, 1.0, 4.0, 2.0) == 1.5
    # no probe in [4.5, 4.9): the last one before 4.9, started at 4
    assert host_factor(starts, durations, 4.5, 4.9, 3.0) == 3.0
    assert host_factor([], [], 0.0, 1.0, 2.0) == 1.0


def test_at_reference_speed_divides_durations_multiplies_rates():
    # the host ran 2x slower than the reference: 4 s there is 2 s here,
    # and 100 steps/s there is 200 steps/s here
    assert at_reference_speed(4.0, 2.0) == 2.0
    assert at_reference_speed(100.0, 2.0, rate=True) == 200.0
