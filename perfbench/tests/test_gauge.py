import math

import gauge


def test_a_steady_machine_reads_as_nominal_seconds():
    readings = [gauge.NOMINAL_S * 2] * 6
    half, fifth = gauge.scaled([1.0, 0.4], [0, 3], readings)
    assert math.isclose(half, 0.5) and math.isclose(fifth, 0.2)


def test_each_op_is_scaled_by_the_two_readings_on_either_side():
    readings = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    (middle,) = gauge.scaled([1.0], [2], readings)
    assert math.isclose(middle, gauge.NOMINAL_S / 3.5)  # mean of 2, 3, 4 and 5
    first, last = gauge.scaled([1.0, 1.0], [0, 4], readings)
    assert math.isclose(first, gauge.NOMINAL_S / 2.0)  # one reading before the first op
    assert math.isclose(last, gauge.NOMINAL_S / 5.0)  # one reading after the last op


def test_the_gauge_does_fixed_work():
    assert gauge.work() == gauge.work()
    assert gauge.read() > 0
