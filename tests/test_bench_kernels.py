"""A smoke run of the per-call helpers of benchmarks/bench_kernels.py.

The script is not run by the suite (with --quick it takes seconds), so a
library signature change would break it silently; its helpers are run
here on two tiny graphs instead."""

import importlib.util
import sys
from pathlib import Path

import pytest

from oddwheel.graphs import Graph

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"

K3 = [0b110, 0b101, 0b011]
C4 = [0b1010, 0b0101, 0b1010, 0b0101]


@pytest.fixture(scope="module")
def bench():
    key = "bench_kernels_script"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, SCRIPT)
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def test_per_call_helpers_run(bench):
    assert bench.per_call_ms([K3, C4]) > 0
    assert bench.generators_ms([K3, C4]) > 0
    items = [(Graph(tuple(K3)), 3), (Graph(tuple(C4)), 4)]
    for call in (bench.kernel_call, bench.decision_call, bench.rule_call):
        assert [call(*item) for item in items] == [1, 1]
        assert bench.us_per_call(call, items, 1) > 0


def test_wheel_rows_run(bench):
    rows = bench.wheel_rows([22, 26])
    assert [n for n, _ in rows] == [22, 26]
    assert all(seconds > 0 for _, seconds in rows)


def test_codec_rows_run(bench):
    g = Graph(tuple(C4))
    line = bench.candidate_line(0)
    assert line.startswith("~") and len(line) == 4 + (202 * 201 // 2 + 5) // 6
    rows = bench.codec_rows([g], [bench.kernels.pack_code(K3)], line)
    assert [count for _, count, _ in rows] == [1, 1, 1, 1]
    assert all(us > 0 for _, _, us in rows)
