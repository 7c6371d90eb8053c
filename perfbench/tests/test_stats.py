import math

from stats import harrell_davis, spread, tail_percentile


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(1000) == 99
    assert tail_percentile(100) == 90
    assert tail_percentile(40) == 75
    assert tail_percentile(20) == 50
    assert tail_percentile(10) is None
    for n in range(11, 500):
        pct = tail_percentile(n)
        rank = math.ceil(pct / 100 * n)
        assert n - rank >= 10
        assert n - math.ceil((pct + 1) / 100 * n) < 10 or pct == 99


def test_a_failed_op_makes_the_percentiles_infinite():
    latencies = [0.1] * 99 + [math.inf]
    assert harrell_davis(latencies, 0.5) == math.inf
    assert harrell_davis(latencies, tail_percentile(100) / 100) == math.inf


def test_harrell_davis_is_order_free_and_exact_on_constants():
    assert math.isclose(harrell_davis([0.25] * 40, 0.9), 0.25)
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert harrell_davis(values, 0.5) == harrell_davis(sorted(values), 0.5)
    assert math.isclose(harrell_davis(values, 0.5), 3.0)  # symmetric weights


def test_harrell_davis_tracks_the_quantile_and_blends_neighbours():
    values = [float(i) for i in range(1, 1001)]
    for p in (0.1, 0.5, 0.75, 0.99):
        assert abs(harrell_davis(values, p) - p * 1000) < 2
    # two requests of similar cost: the median lies between them, not on one
    mixed = [1.0] * 50 + [1.1] * 50
    assert 1.03 < harrell_davis(mixed, 0.5) < 1.07


def test_spread_is_interquartile_share_of_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert math.isclose(spread([9.0, 10.0, 10.0, 11.0]), 0.15)

