import math

import numpy as np
import pytest

from mteq import outside_prob, phi, transition_probs
from mteq.choice import (
    log_denominator_nodes,
    logit_nodes,
    outside_prob_from_log_denominator,
    phi_nodes,
    probs_nodes,
)

import oracle


class TestPhi:
    def test_single_alternative_is_exact(self):
        assert phi([7.0], 1.0) == 7.0

    def test_two_equal_alternatives(self):
        c = 3.7
        assert phi([c, c], 1.0) == pytest.approx(c - math.log(2.0), rel=1e-15)

    def test_large_values_do_not_overflow(self):
        val = phi([1000.0, 1001.0], 1.0)
        assert math.isfinite(val)
        assert val == pytest.approx(1000.0 - math.log(1.0 + math.exp(-1.0)), rel=1e-14)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.uniform(-40, 40, size=rng.integers(1, 7))
            beta = rng.uniform(0.1, 5.0)
            val = phi(z, beta)
            assert val <= z.min() + 1e-12
            assert val >= z.min() - math.log(len(z)) / beta - 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            z = rng.uniform(-5, 5, size=4)
            k = rng.uniform(-100, 100)
            assert phi(z + k, 2.0) == pytest.approx(phi(z, 2.0) + k, abs=1e-11)

    def test_sharpens_to_min(self):
        z = np.array([2.0, 3.0, 7.0])
        assert phi(z, 1e6) == pytest.approx(2.0, abs=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phi([], 1.0)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            z = rng.uniform(-30, 30, size=rng.integers(1, 8))
            beta = rng.uniform(0.2, 4.0)
            got = phi(z, beta)
            want = oracle.phi_mp(list(z), beta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestTransitionProbs:
    def test_symmetry(self):
        for n in (2, 3, 5):
            p = transition_probs([1.23] * n, 1.0)
            assert p == pytest.approx([1.0 / n] * n, rel=1e-14)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_two_case(self):
        p = transition_probs([0.0, math.log(2.0)], 1.0)
        assert p == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-14)

    def test_raising_one_cost_lowers_its_probability(self):
        z = np.array([1.0, 2.0, 3.0])
        base = transition_probs(z, 1.0)
        bumped = transition_probs(z + np.array([0.5, 0.0, 0.0]), 1.0)
        assert bumped[0] < base[0]
        assert bumped[1] > base[1] and bumped[2] > base[2]

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = rng.uniform(-5, 5, size=5)
            k = rng.uniform(-200, 200)
            assert transition_probs(z + k, 1.5) == pytest.approx(
                transition_probs(z, 1.5), rel=1e-12, abs=1e-15)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            z = rng.uniform(-30, 30, size=rng.integers(1, 8))
            beta = rng.uniform(0.2, 4.0)
            got = transition_probs(z, beta)
            want = oracle.probs_mp(list(z), beta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestOutsideProb:
    def test_unreachable_outside_option(self):
        assert outside_prob(np.inf, [3.0], 1.0, 1.0) == 0.0

    def test_symmetric_case_is_half(self):
        assert outside_prob(4.2, [4.2], 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_hopeless_driving_goes_outside(self):
        assert outside_prob(10.0, [5000.0, 6000.0], 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotonicity(self):
        z = [2.0, 3.0]
        base = outside_prob(2.5, z, 1.0, 1.0)
        assert outside_prob(2.6, z, 1.0, 1.0) < base          # costlier outside, less taken
        assert outside_prob(2.5, [1.9, 3.0], 1.0, 1.0) < base  # cheaper driving, less taken

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            z = rng.uniform(-20, 20, size=rng.integers(1, 6))
            oc = rng.uniform(-20, 20)
            b, bo = rng.uniform(0.2, 3.0, size=2)
            got = outside_prob(oc, z, b, bo)
            want = oracle.outside_prob_mp(oc, list(z), b, bo)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestSegmentedKernels:
    def test_agree_with_scalar_kernels(self):
        rng = np.random.default_rng(21)
        sizes = [1, 3, 2, 5, 1]
        out_start = np.concatenate(([0], np.cumsum(sizes)))
        z = rng.uniform(-10, 10, size=out_start[-1])
        beta = 1.7
        ph = phi_nodes(z, beta, out_start)
        pr = probs_nodes(z, beta, out_start)
        ld = log_denominator_nodes(z, beta, out_start)
        for i, size in enumerate(sizes):
            seg = z[out_start[i]:out_start[i + 1]]
            assert ph[i] == pytest.approx(phi(seg, beta), rel=1e-14)
            assert pr[out_start[i]:out_start[i + 1]] == pytest.approx(
                transition_probs(seg, beta), rel=1e-13)
            assert ld[i] == pytest.approx(-beta * phi(seg, beta), rel=1e-13)

    def test_outside_prob_from_log_denominator(self):
        z = np.array([1.0, 2.0])
        beta, beta_out = 1.3, 0.9
        ld = log_denominator_nodes(z, beta, np.array([0, 2]))
        p_out, p_start = outside_prob_from_log_denominator(2.2, ld, beta_out)
        assert p_out[0] == pytest.approx(outside_prob(2.2, z, beta, beta_out), rel=1e-13)
        assert p_out[0] + p_start[0] == pytest.approx(1.0, abs=1e-15)

    def test_fused_rows_equal_single_rows(self):
        rng = np.random.default_rng(22)
        out_start = np.array([0, 1, 4, 6, 11, 12])
        z = rng.uniform(-10, 10, size=(4, out_start[-1]))
        beta = np.array([[0.5], [1.7], [3.0], [40.0]])
        ph, pr, ld = logit_nodes(z, beta, out_start)
        for i in range(len(z)):
            b = float(beta[i, 0])
            assert ph[i].tolist() == phi_nodes(z[i], b, out_start).tolist()
            assert pr[i].tolist() == probs_nodes(z[i], b, out_start).tolist()
            assert ld[i].tolist() == log_denominator_nodes(z[i], b, out_start).tolist()
