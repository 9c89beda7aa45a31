"""Tests for repro.core.quickprobe — Algorithm 2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.binary_codes import BinaryCodeGroups
from repro.core.quickprobe import ProbeOutcome, QuickProbe


@pytest.fixture(scope="module")
def probe_setup():
    gen = np.random.default_rng(31)
    data = gen.standard_normal((600, 20))
    matrix = gen.standard_normal((5, 20))
    projected = data @ matrix.T
    l1 = np.abs(data).sum(axis=1)
    groups = BinaryCodeGroups(projected, l1)
    return data, projected, l1, groups, QuickProbe(groups)


class TestProbe:
    def test_returns_valid_point(self, probe_setup):
        data, projected, l1, groups, qp = probe_setup
        q = np.random.default_rng(1).standard_normal(20)
        matrix_q = projected[0] * 0  # placeholder — use a member projection
        outcome = qp.probe_many([projected[3]], [float(np.abs(data[3]).sum())], c=0.9, p=0.5)[0]
        assert isinstance(outcome, ProbeOutcome)
        assert 0 <= outcome.point_id < len(data)
        assert outcome.groups_examined >= 1

    def test_pass_consistent_with_threshold(self, probe_setup):
        data, projected, l1, groups, qp = probe_setup
        for seed in range(8):
            q_proj = np.random.default_rng(seed).standard_normal(5) * 5
            q_l1 = float(np.random.default_rng(seed + 100).uniform(1, 30))
            for p in (0.3, 0.7):
                outcome = qp.probe_many([q_proj], [q_l1], c=0.9, p=p)[0]
                threshold = qp.chi2.ppf(p)
                if outcome.passed:
                    assert outcome.test_value >= threshold - 1e-12
                else:
                    # Fallback carries the best value seen, which must be
                    # below the threshold (otherwise it would have passed).
                    assert outcome.test_value < threshold

    def test_fallback_when_nothing_passes(self, probe_setup):
        data, projected, l1, groups, qp = probe_setup
        # A huge query 1-norm makes Test A's denominator enormous, so no
        # group can pass; the probe must fall back gracefully.
        outcome = qp.probe_many([np.zeros(5)], [1e9], c=0.9, p=0.9)[0]
        assert not outcome.passed
        assert outcome.groups_examined == groups.n_groups
        assert 0 <= outcome.point_id < len(data)

    def test_tightest_radius_among_passing_groups(self, probe_setup):
        """When Test A passes, the chosen group must be the nearest (lowest
        LB) among all groups that would pass — Algorithm 2 scans ascending."""
        data, projected, l1, groups, qp = probe_setup
        q_proj = np.random.default_rng(77).standard_normal(5) * 0.1
        q_l1 = 0.05  # small denominator → many groups pass
        c, p = 0.9, 0.3
        outcome = qp.probe_many([q_proj], [q_l1], c=c, p=p)[0]
        if outcome.passed:
            lbs = groups.lower_bounds(q_proj)
            threshold = qp.chi2.ppf(p)
            denominators = c * (groups.min_l1 + q_l1) ** 2
            values = np.where(denominators > 0, lbs**2 / denominators, np.inf)
            passing = np.flatnonzero(values >= threshold)
            chosen_lb = lbs[
                [g for g in range(groups.n_groups)
                 if groups.min_l1_ids[g] == outcome.point_id][0]
            ]
            assert chosen_lb <= lbs[passing].min() + 1e-12

    def test_rejects_bad_parameters(self, probe_setup):
        *_, qp = probe_setup
        with pytest.raises(ValueError):
            qp.probe_many([np.zeros(5)], [1.0], c=1.0, p=0.5)[0]
        with pytest.raises(ValueError):
            qp.probe_many([np.zeros(5)], [1.0], c=0.9, p=0.0)[0]
        with pytest.raises(ValueError):
            qp.probe_many([np.zeros(5)], [-1.0], c=0.9, p=0.5)[0]

    def test_n_groups_property(self, probe_setup):
        *_, groups, qp = probe_setup[2:]
        assert qp.n_groups == groups.n_groups
