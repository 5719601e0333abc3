import pytest

from e2ebench import stats


def test_p99_refused_with_fewer_than_ten_samples_beyond():
    values = list(range(1, 1000))           # 999 samples: 9 beyond p99
    assert stats.percentile(values, 99) is None


def test_p99_reported_with_ten_samples_beyond():
    values = list(range(1, 1001))           # 1000 samples: 10 beyond p99
    assert stats.percentile(values, 99) == 990


def test_median_needs_twenty_samples():
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile(list(range(20)), 50) == 9


def test_union_length_merges_overlaps_and_skips_empty():
    assert stats.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert stats.union_length([]) == 0


def test_covered_clips_children_to_the_span():
    assert stats.covered((10, 20), [(5, 12), (15, 30)]) == 7


def test_self_time_is_duration_minus_child_cover():
    # Overlapping children count once; a child outside adds nothing.
    children = [(1, 4), (3, 6), (20, 30)]
    assert stats.self_time((0, 10), children) == pytest.approx(5.0)
    assert stats.self_time((0, 10), [(0, 10), (2, 3)]) == 0.0
