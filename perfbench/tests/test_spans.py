import frobcx.cli
import pytest
from frobcx import poincare, spectral, transfer

from spans import Tracer, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("op", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0), ("b", 3.0, 5.0, 0, 0)]
    assert self_times(spans)[0] == 6.0


@pytest.fixture
def tracer():
    t = Tracer()
    yield t
    t.uninstall()


def test_wrapping_patches_import_sites_and_restores_them(tracer):
    original = poincare.build_table
    tracer.install()
    wrapped = poincare.build_table
    assert wrapped is not original
    assert transfer.build_table is wrapped and frobcx.cli.build_table is wrapped
    assert spectral.build_system is transfer.build_system
    assert frobcx.cli.perron_interval is spectral.perron_interval
    tracer.uninstall()
    assert poincare.build_table is original and transfer.build_table is original


def test_wrapping_preserves_build_table_cache(tracer):
    tracer.install()
    poincare.build_table.cache_clear()
    first = poincare.build_table(3, 5)
    assert poincare.build_table(3, 5) is first
    info = poincare.build_table.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    tracer.uninstall()
    assert poincare.build_table(3, 5) is first


def test_nested_calls_are_seen_and_counted(tracer, capsys):
    code = tracer.run_op(0, lambda: frobcx.cli.main(
        ["complexity", "--p", "2", "--d", "6", "--tol", "1e-20"]))
    capsys.readouterr()
    assert code == 0
    names = [s[0] for s in tracer.spans]
    by_name = {s[0]: i for i, s in enumerate(tracer.spans)}
    assert names[0] == "op"
    assert tracer.spans[by_name["cli.main"]][3] == 0
    assert tracer.spans[by_name["spectral.char_poly"]][3] == by_name["spectral.perron_interval"]
    assert tracer.spans[by_name["poincare.build_table"]][3] == by_name["transfer.build_system"]
    assert "spectral.log2_interval" not in names
    counters = tracer.counters[0]
    assert counters["spectral.char_poly.dim_max"] == 4
    assert counters["spectral.perron_interval.calls"] == 1
    assert counters["spectral.log2_interval.calls"] >= 2
    again = Tracer()
    again.run_op(0, lambda: frobcx.cli.main(
        ["complexity", "--p", "2", "--d", "6", "--tol", "1e-20"]))
    capsys.readouterr()
    assert again.counters[0] == counters
