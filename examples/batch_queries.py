"""Batch queries: answer a whole user cohort through ``search_many``.

A recommendation back-end rarely answers one user at a time — a refresh job
scores thousands of user vectors against the item catalogue at once.  This
example builds ProMIPS and the exact scan, answers a 512-user cohort through
their vectorized batch paths, verifies the batch answers are bit-identical to the
looped single-query path, and times both.

Run:  python examples/batch_queries.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import ExactMIPS, ProMIPS, ProMIPSParams, search_batch
from repro.data import make_latent_factor


def main() -> None:
    rng = np.random.default_rng(0)
    items, cohort = make_latent_factor(10_000, 64, rng, n_queries=512)

    promips = ProMIPS.build(items, ProMIPSParams(c=0.9, p=0.5), rng=1)
    exact = ExactMIPS(items)

    for name, index in [("ProMIPS", promips), ("Exact", exact)]:
        start = time.perf_counter()
        batch = index.search_many(cohort, k=10)
        batch_s = time.perf_counter() - start

        start = time.perf_counter()
        singles = [index.search(q, k=10) for q in cohort]
        loop_s = time.perf_counter() - start

        identical = all(
            np.array_equal(s.ids, batch[i].ids)
            and np.array_equal(s.scores, batch[i].scores)
            for i, s in enumerate(singles)
        )
        print(
            f"{name:8s} batch {len(cohort)/batch_s:8.0f} q/s   "
            f"loop {len(cohort)/loop_s:8.0f} q/s   "
            f"speedup {loop_s/batch_s:4.1f}x   bit-identical={identical}"
        )

    # Aggregate accounting for capacity planning.
    _, stats = search_batch(promips, cohort, k=10)
    print(
        f"\ncohort of {stats.n_queries}: mean {stats.mean_pages:.0f} pages/query, "
        f"p95 {stats.p95_pages:.0f}, {stats.total_candidates} candidates verified"
    )


if __name__ == "__main__":
    main()
