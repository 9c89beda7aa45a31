"""Tests of the benchmark's own arithmetic: no server, no index.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import pytest

from layers import SpanIndex, coverage, request_parts
from loadgen import Record
from metrics import END_TO_END, PER_LAYER
from stats import (
    describe,
    self_time,
    supported_percentile,
    union_length,
)

ROOT = Path(__file__).resolve().parents[2]
# The character sets BENCHMARK.json allows for metric names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize(
    "n, expected",
    [(5000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (0, None)],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_describe_states_the_sample_count_and_percentile():
    line = describe(list(range(1, 201)))
    assert line.startswith("n=200 p50=100.500 p95=")
    assert describe([1.0, 2.0]).endswith("no tail")


def test_self_time_over_nested_overlapping_and_protruding_children():
    # [1,3] and [2,4] overlap, [1.5,2.5] nests inside both, [9,12] sticks out.
    children = [(1.0, 3.0), (2.0, 4.0), (1.5, 2.5), (9.0, 12.0)]
    assert union_length(children, 0.0, 10.0) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(6.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert self_time(5.0, 6.0, [(0.0, 1.0), (7.0, 8.0)]) == pytest.approx(1.0)


def _span(sid, name, start, end, parent=None, request=None, attrs=None):
    return [sid, name, start, end, parent, request, 0, attrs]


def test_request_parts_add_up_to_client_latency():
    # One coalesced request: handler thread spans 1-5, dispatcher spans 6-7.
    spans = [
        _span(1, "server.do_POST", 10.0, 20.0, request="7"),
        _span(2, "runtime.search", 11.0, 19.0, parent=1, request="7"),
        _span(3, "cache.get", 11.5, 12.0, parent=2, request="7"),
        _span(4, "microbatch.search", 12.0, 18.0, parent=2, request="7"),
        _span(5, "cache.put", 18.0, 18.5, parent=2, request="7"),
        _span(6, "microbatch.dispatch", 14.0, 18.5, attrs={"members": ["7", "8"]}),
        _span(7, "dynamic.search_many", 14.5, 17.5, parent=6),
    ]
    record = Record(rid=7, kind="search", item=0, sent=9.0, done=22.0, status=200)
    parts = request_parts(SpanIndex(spans), [record])[0]
    assert parts["socket"] == pytest.approx(3.0)  # 13 client - 10 do_POST
    assert parts["server"] == pytest.approx(2.0)
    assert parts["runtime"] == pytest.approx(1.0)  # 8 - 0.5 get - 0.5 put - 6 coalescer
    assert parts["cache"] == pytest.approx(1.0)
    assert parts["queue"] == pytest.approx(2.0)  # 12 -> 14, before the dispatch
    assert parts["index"] == pytest.approx(3.0)
    assert parts["dispatch"] == pytest.approx(1.0)  # 14 -> 18 minus the index
    assert coverage([parts]) == pytest.approx(1.0)


def test_missing_spans_lower_coverage():
    record = Record(rid=1, kind="search", item=0, sent=0.0, done=1.0, status=200)
    assert coverage(request_parts(SpanIndex([]), [record])) == 0.0


def test_metric_names_and_units_use_the_allowed_characters():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), unit
    for bad in ("", "_lead", "a b", "x" * 65, "p99/ms"):
        assert not NAME_RE.match(bad), bad


def test_benchmark_json_matches_the_catalogue():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in config["end_to_end"]}
    layer = {m["name"]: m for m in config["per_layer"]}
    assert {n: m["unit"] for n, m in e2e.items()} == END_TO_END
    assert {n: m["unit"] for n, m in layer.items()} == PER_LAYER
    assert not set(e2e) & set(layer)
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert e2e["setup_s"]["better"] == "lower" and e2e["setup_s"]["unit"] == "s"
