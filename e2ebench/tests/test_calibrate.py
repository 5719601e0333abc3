import os

from e2ebench import calibrate

UNITS = {"latency_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB",
         "setup_s": "s"}


def test_a_host_twice_as_slow_as_nominal_halves_times_and_doubles_rates():
    raw = {"latency_p50_ms": 8.0, "ops_per_s": 100.0, "peak_rss_mb": 70.0,
           "setup_s": 0.4}
    slow = [2 * calibrate.NOMINAL_S] * 3
    assert calibrate.scaled(raw, UNITS, slow) == {
        "latency_p50_ms": 4.0, "ops_per_s": 200.0, "peak_rss_mb": 70.0,
        "setup_s": 0.2}


def test_the_factor_uses_the_median_sample():
    samples = [calibrate.NOMINAL_S, calibrate.NOMINAL_S, 50.0]
    assert calibrate.scale(samples) == 1.0


def test_sample_restores_the_affinity():
    before = os.sched_getaffinity(0)
    assert calibrate.sample({min(before)}) > 0
    assert os.sched_getaffinity(0) == before
