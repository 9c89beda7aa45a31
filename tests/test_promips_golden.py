"""Golden answers and Fig. 7 counters of the ProMIPS query core.

``tests/data/promips_golden.npz`` holds, for a handful of small seeded
builds, what the per-point reference implementation of the query core
returned: ids, scores, pages, candidates, compensation rounds and the stop
reason of every query.  Any rewrite of the core (page accounting, candidate
ordering, verification) must reproduce it exactly.

The cases cover both dataset shapes, Condition A and Condition B stops,
compensation rounds (high ``p`` and ``k`` close to ``n``), exhausted
searches, and a page size that makes every vector straddle pages.

Re-record only when answers are meant to change::

    PYTHONPATH=src python tests/test_promips_golden.py --record
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.spec import build_index

GOLDEN = Path(__file__).parent / "data" / "promips_golden.npz"

# name: (dataset, n, dim, spec, k)
CASES = {
    "netflix_default": ("netflix", 3000, 32, "promips()", 10),
    "sift_default": ("sift", 3000, 32, "promips()", 10),
    "sift_compensation": ("sift", 3000, 32, "promips(p=0.9)", 100),
    "netflix_condition_a": ("netflix", 3000, 32, "promips(c=0.5, p=0.05)", 10),
    "netflix_tiny_exhausted": ("netflix", 80, 8, "promips(m=3)", 80),
    "sift_straddling_pages": ("sift", 2000, 32, "promips(page_size=100)", 10),
}
N_QUERIES = 24
N_INCREMENTAL = 4
DATA_SEED = 7
BUILD_SEED = 3


def run_case(name: str) -> dict[str, np.ndarray]:
    dataset, n, dim, spec, k = CASES[name]
    ds = load_dataset(dataset, n=n, dim=dim, n_queries=N_QUERIES, seed=DATA_SEED)
    index = build_index(spec, ds.data, rng=BUILD_SEED)
    batch = index.search_many(ds.queries, k=k)
    incremental = [index.search_incremental(q, k=k) for q in ds.queries[:N_INCREMENTAL]]
    return {
        "ids": batch.ids,
        "scores": batch.scores,
        "pages": np.array([s.pages for s in batch.stats]),
        "candidates": np.array([s.candidates for s in batch.stats]),
        "expansions": np.array([s.extras["expansions"] for s in batch.stats]),
        "stopped_by": np.array([s.extras["stopped_by"] for s in batch.stats]),
        "incremental_ids": np.stack([r.ids for r in incremental]),
        "incremental_pages": np.array([r.stats.pages for r in incremental]),
        "incremental_candidates": np.array([r.stats.candidates for r in incremental]),
    }


def record(path: Path = GOLDEN) -> None:
    arrays = {
        f"{name}/{key}": value
        for name in CASES
        for key, value in run_case(name).items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as stored:
        return {key: stored[key] for key in stored.files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_core_matches_golden(golden, name):
    got = run_case(name)
    for key, value in got.items():
        expected = golden[f"{name}/{key}"]
        assert value.shape == expected.shape, key
        assert np.array_equal(value, expected), key


def test_golden_exercises_every_stop_path(golden):
    """The fixture keeps covering every branch of the core it guards."""
    stops = np.concatenate([golden[f"{name}/stopped_by"] for name in CASES])
    assert {"condition_a", "condition_b", "exhausted"} <= set(stops.tolist())
    assert golden["sift_compensation/expansions"].sum() > 0
    assert golden["netflix_tiny_exhausted/expansions"].max() >= 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_promips_golden.py --record")
    record()
