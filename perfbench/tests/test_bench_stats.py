"""The benchmark's own arithmetic, on synthetic numbers."""

import pytest

import stats


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > grandchild [2, 3]; root > b [5, 7]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0]
    assert stats.self_times(starts, ends, parents)[0] == 5.0


def test_covered_clips_to_the_parent():
    assert stats.covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0
    assert stats.covered([], 0.0, 1.0) == 0.0


@pytest.mark.parametrize("n, percentile, beyond", [
    (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (100, 90.0, 10),
    (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, beyond):
    p, value, got_beyond = stats.tail_percentile([float(v) for v in range(n)])
    assert (p, got_beyond) == (percentile, beyond)
    assert value == sorted(range(n))[n - beyond - 1]


def test_tail_percentile_needs_twenty_samples():
    assert stats.tail_percentile([1.0] * 19) is None
    assert stats.tail_percentile([]) is None


def test_tail_percentile_ignores_input_order():
    values = [float(v) for v in range(100)]
    assert stats.tail_percentile(values[::-1]) == (90.0, 89.0, 10)


def test_fail_ratio():
    assert stats.fail_ratio(0, 0) == 1.0
    assert stats.fail_ratio(0, 8) == 0.0
    assert stats.fail_ratio(2, 8) == 0.25
    with pytest.raises(ValueError):
        stats.fail_ratio(3, 2)
    with pytest.raises(ValueError):
        stats.fail_ratio(-1, 2)


def test_cpu_util():
    assert stats.cpu_util(1.0, 2.0, 2) == 0.25
    assert stats.cpu_util(4.0, 2.0, 2) == 1.0
    with pytest.raises(ValueError):
        stats.cpu_util(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        stats.cpu_util(1.0, 1.0, 0)


def test_quartile_spread():
    assert stats.quartile_spread([5.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    q1, q2, q3 = stats.quantiles4(values)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        stats.median([])
