"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from arith import covered, median, percentile, quartile_spread, ratio, self_time, tail, timeline  # noqa: E402


class TestSelfTime:
    def test_no_children_is_the_whole_span(self):
        assert self_time(1.0, 4.0, []) == 3.0

    def test_sequential_children_are_subtracted(self):
        assert self_time(0.0, 10.0, [(1.0, 3.0), (4.0, 8.0)]) == pytest.approx(4.0)

    def test_overlapping_children_count_once(self):
        # (1, 5) and (3, 7) cover 1..7 together: 6 units, not 8.
        assert covered(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0)]) == pytest.approx(6.0)
        assert self_time(0.0, 10.0, [(3.0, 7.0), (1.0, 5.0)]) == pytest.approx(4.0)

    def test_nested_children_count_once(self):
        assert self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(4.0)

    def test_children_are_clipped_to_the_span(self):
        assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)

    def test_child_outside_the_span_is_ignored(self):
        assert self_time(2.0, 6.0, [(7.0, 9.0)]) == pytest.approx(4.0)

    def test_self_plus_children_is_the_span(self):
        children = [(0.5, 1.25), (2.0, 2.5), (3.0, 3.75)]
        own = self_time(0.0, 4.0, children)
        assert own + sum(e - s for s, e in children) == pytest.approx(4.0)


class TestTimeline:
    # Marks (start, end, slowdown): 1..2 at 2x, 5..6 at 4x.
    MARKS = [(1.0, 2.0, 2.0), (5.0, 6.0, 4.0)]

    def test_raw_time_leaves_out_marks(self):
        at = timeline(self.MARKS, scale=False)
        assert at(4.0) - at(3.0) == pytest.approx(1.0)
        # 0..7 holds two one-second marks.
        assert at(7.0) - at(0.0) == pytest.approx(5.0)
        # A reading inside a mark maps to the mark's edge.
        assert at(1.5) == at(1.0) == at(2.0)

    def test_between_marks_scales_by_their_mean_slowdown(self):
        at = timeline(self.MARKS)
        assert at(5.0) - at(2.0) == pytest.approx(3.0 / 3.0)

    def test_outside_the_marks_scales_by_the_nearest_one(self):
        at = timeline(self.MARKS)
        assert at(1.0) - at(0.0) == pytest.approx(1.0 / 2.0)
        assert at(8.0) - at(6.0) == pytest.approx(2.0 / 4.0)

    def test_a_span_across_marks_sums_its_stretches(self):
        at = timeline(self.MARKS)
        assert at(7.0) - at(0.0) == pytest.approx(1.0 / 2.0 + 3.0 / 3.0 + 1.0 / 4.0)

    def test_self_time_identity_holds_on_mapped_times(self):
        at = timeline(self.MARKS)
        step, children = (0.5, 6.5), [(0.75, 1.5), (3.0, 5.5)]
        mapped = [(at(a), at(b)) for a, b in children]
        own = self_time(at(step[0]), at(step[1]), mapped)
        assert own + sum(b - a for a, b in mapped) == pytest.approx(at(step[1]) - at(step[0]))


class TestTail:
    def test_needs_ten_samples_beyond(self):
        # With 19 samples no candidate percentile has ten samples above it
        # except the median, which has 9: nothing is reported.
        assert tail(range(19)) is None

    def test_median_with_ten_beyond(self):
        out = tail(range(21))
        assert out["percentile"] == 50.0
        assert out["beyond"] == 10
        assert out["samples"] == 21

    def test_highest_percentile_with_ten_beyond(self):
        out = tail(range(1000))
        assert out["percentile"] == 99.0
        assert out["beyond"] >= 10
        assert out["value"] == pytest.approx(percentile(range(1000), 99.0))

    def test_p999_needs_about_ten_thousand(self):
        assert tail(range(9000))["percentile"] == 99.0
        assert tail(range(10011))["percentile"] == 99.9

    def test_every_reported_tail_has_ten_beyond(self):
        for n in (20, 21, 40, 41, 100, 101, 1001):
            out = tail(range(n))
            if out is not None:
                assert sum(1 for x in range(n) if x > out["value"]) >= 10


class TestRatio:
    def test_carries_its_base(self):
        r = ratio(3, 12)
        assert r == {"value": 0.25, "num": 3, "den": 12}

    def test_empty_base_reads_zero_and_keeps_the_base(self):
        assert ratio(0, 0) == {"value": 0.0, "num": 0, "den": 0}


class TestSummaries:
    def test_percentile_is_type_7(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert percentile(xs, 50) == pytest.approx(2.5)
        assert percentile(xs, 25) == pytest.approx(1.75)

    def test_quartile_spread_matches_statistics(self):
        xs = [10.0, 11.0, 9.5, 10.2, 12.0, 10.1, 9.9, 10.4, 10.0, 11.5]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        assert quartile_spread(xs) == pytest.approx((q3 - q1) / q2)

    def test_median_rejects_nothing(self):
        with pytest.raises(ValueError):
            median([])
