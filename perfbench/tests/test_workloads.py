from itertools import islice
from math import comb

import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_blocks_repeat_for_a_seed_and_differ_across_seeds(name):
    first = list(islice(workloads.blocks(name, 7), 3))
    assert first == list(islice(workloads.blocks(name, 7), 3))
    assert first != list(islice(workloads.blocks(name, 8), 3))
    assert len({len(b) for b in first[1:]}) == 1


def test_crosscheck_cells_visit_1e5_to_1e6_compositions():
    assert len(workloads.CROSSCHECK_CELLS) >= 10
    for block in islice(workloads.blocks("crosscheck", 1), 5):
        for op in block:
            n = comb(op["p"] ** op["e"] - 1 + op["d"] - 1, op["d"] - 1)
            assert 10**5 <= n <= 10**6


def test_interactive_refuses_one_request_in_ten():
    block = next(workloads.blocks("interactive", 3))
    assert sum(op.get("exit") == 1 for op in block) * 10 == len(block)


@pytest.mark.parametrize("over_limit,expected", [(False, 0), (True, 1)])
def test_sequence_over_limit_requests(over_limit, expected):
    first, *rest = islice(workloads.blocks("sequence", 5, over_limit), 4)
    assert first[0]["emax"] == workloads.emax_for_digits(2, 3, 4000)
    for block in [first[1:]] + rest:
        digits = [op["emax"] * workloads.log10(float(workloads.checker.radius(op["p"], op["d"], 20)))
                  for op in block]
        assert sum(x > 4300 for x in digits) == expected
        assert all(450 < x < 6100 for x in digits)


@pytest.mark.parametrize("name", ["crosscheck", "certify", "sequence", "far-term"])
def test_a_run_repeats_its_one_draw_in_new_orders(name):
    first, *rest = islice(workloads.blocks(name, 4), 4)
    if name == "sequence":
        first = first[1:]  # the run's opening request comes once
    for block in rest:
        assert sorted(map(str, block)) == sorted(map(str, first))
    assert any(block != first for block in rest)
