"""Tests for repro.eval.harness and repro.eval.reporting."""

from __future__ import annotations

import pytest

from repro.data.datasets import load_dataset
from repro.eval.ground_truth import GroundTruth
from repro.eval.harness import (
    PAGE_LATENCY_SECONDS,
    MethodRegistry,
    build_method,
    default_registry,
    run_method,
)
from repro.eval.reporting import format_series, format_table
from repro.spec import IndexSpec


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_dataset("netflix", n=800, dim=24, n_queries=6)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestRegistry:
    def test_paper_method_names(self, registry):
        assert registry.names() == ["ProMIPS", "H2-ALSH", "Range-LSH", "PQ-Based"]

    def test_unknown_method_raises(self, registry, tiny_dataset):
        with pytest.raises(KeyError):
            registry.build("FAISS", tiny_dataset)

    def test_custom_registration(self, tiny_dataset):
        reg = MethodRegistry()
        reg.register("dummy", lambda ds: IndexSpec("exact", {"page_size": ds.page_size}))
        assert reg.names() == ["dummy"]
        assert reg.spec_for("dummy", tiny_dataset).params == {
            "page_size": tiny_dataset.page_size
        }


class TestBuildAndRun:
    @pytest.mark.parametrize("name", ["ProMIPS", "H2-ALSH", "Range-LSH", "PQ-Based"])
    def test_build_and_query_every_method(self, registry, tiny_dataset, name):
        index, report = build_method(registry, name, tiny_dataset, seed=2)
        assert report.method == name
        assert report.build_seconds >= 0
        assert report.index_bytes >= 0
        assert report.index_mb == report.index_bytes / 2**20

        gt = GroundTruth(tiny_dataset.data, tiny_dataset.queries, k_max=10)
        qr = run_method(index, tiny_dataset, gt, k=10, method=name)
        assert qr.method == name
        assert 0.0 <= qr.overall_ratio <= 1.0
        assert 0.0 <= qr.recall <= 1.0
        assert qr.pages > 0
        assert qr.cpu_ms >= 0
        # total time adds the simulated I/O cost exactly.
        assert qr.total_ms == pytest.approx(
            qr.cpu_ms + qr.pages * PAGE_LATENCY_SECONDS * 1e3
        )

    def test_all_methods_accurate_on_easy_data(self, registry, tiny_dataset):
        gt = GroundTruth(tiny_dataset.data, tiny_dataset.queries, k_max=10)
        for name in registry.names():
            index, _ = build_method(registry, name, tiny_dataset, seed=1)
            qr = run_method(index, tiny_dataset, gt, k=10, method=name)
            assert qr.overall_ratio >= 0.9, name

    def test_run_rejects_bad_k(self, registry, tiny_dataset):
        index, _ = build_method(registry, "Range-LSH", tiny_dataset)
        gt = GroundTruth(tiny_dataset.data, tiny_dataset.queries, k_max=10)
        with pytest.raises(ValueError):
            run_method(index, tiny_dataset, gt, k=0)


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(
            ["method", "ratio"], [["ProMIPS", 0.99123], ["H2-ALSH", 0.98]],
            title="Fig. 5",
        )
        lines = out.splitlines()
        assert lines[0] == "Fig. 5"
        assert "method" in lines[1]
        assert "ProMIPS" in out and "0.9912" in out

    def test_format_series_one_column_per_method(self):
        out = format_series(
            "k", [10, 20],
            {"ProMIPS": [0.99, 0.98], "PQ-Based": [0.97, 0.96]},
        )
        assert "k" in out and "ProMIPS" in out and "PQ-Based" in out
        assert "0.96" in out

    def test_format_table_string_cells(self):
        out = format_table(["a"], [["hello"]])
        assert "hello" in out
