"""Tests for the main bundle loop, stopping test, and error bound."""

import hashlib

import numpy as np
import pytest

from proxbundle.funcs import TEST_FUNCTIONS
from proxbundle.model import BundleVariant
from proxbundle.oracles import (OracleResponse, make_ball_noise_oracle,
                                make_rng, make_simplex_gradient_oracle)
from proxbundle.problems import generate_max_quad
from proxbundle.solver import (SolverConfig, StopReason, default_iteration_cap,
                               error_bound, run, stopping_test)


def quadratic_oracle(x):
    """f(x) = 0.5 ||x||^2 with exact gradient."""
    x = np.asarray(x, float)
    return OracleResponse(0.5 * float(x @ x), x.copy(), 0.0)


def affine_oracle(a, b):
    def oracle(x):
        x = np.asarray(x, float)
        return OracleResponse(float(a @ x + b), a.copy(), 0.0)
    return oracle


class TestStoppingTest:
    def test_zero_gap_stops(self):
        assert stopping_test(1.0, 1.0, 1.0, 0.0)

    def test_boundary_inclusive(self):
        s = 1e-3
        assert stopping_test(s * s, 0.0, 1.0, s)

    def test_double_gap_continues(self):
        s = 1e-3
        assert not stopping_test(2 * s * s, 0.0, 1.0, s)

    def test_negative_gap_stops(self):
        assert stopping_test(0.0, 1.0, 1.0, 1e-3)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            stopping_test(1.0, 0.0, 0.0, 1e-3)


class TestErrorBound:
    def test_zero_gap_gives_eps_over_r(self):
        for eps, r in [(0.1, 1.0), (0.5, 2.0), (1.0, 0.25)]:
            assert abs(error_bound(0.0, eps, r) - eps / r) < 1e-15

    def test_exact_oracle_at_tolerance(self):
        s = 1e-3
        assert abs(error_bound(s * s, 0.0, 1.0) - s) < 1e-18

    def test_all_zero(self):
        assert error_bound(0.0, 0.0, 1.0) == 0.0

    def test_negative_gap_clamped(self):
        assert error_bound(-5.0, 0.2, 1.0) == error_bound(0.0, 0.2, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            error_bound(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            error_bound(0.0, -1.0, 1.0)


class TestDefaultIterationCap:
    def test_low_dimension_cap(self):
        assert default_iteration_cap(4) == 400
        assert default_iteration_cap(25) == 2500

    def test_high_dimension_cap(self):
        assert default_iteration_cap(100) == 2000
        assert default_iteration_cap(200) == 4000


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(prox_centre=np.zeros(4))
        assert cfg.prox_param == 1.0
        assert cfg.stop_tol == 1e-3
        assert cfg.max_iterations == 400
        assert cfg.variant is BundleVariant.FULL

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(prox_centre=np.zeros(2), prox_param=0.0)
        with pytest.raises(ValueError):
            SolverConfig(prox_centre=np.zeros(2), stop_tol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(prox_centre=np.zeros(2), eps=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(prox_centre=np.zeros(2), max_iterations=0)


class TestRun:
    def test_affine_function_stops_immediately(self):
        a = np.array([2.0, -1.0])
        z = np.array([5.0, 5.0])
        res = run(affine_oracle(a, 3.0), SolverConfig(prox_centre=z))
        assert res.stop_reason is StopReason.TOLERANCE_MET
        assert res.iterations == 1
        np.testing.assert_allclose(res.x_out, z - a, atol=1e-12)
        assert res.gap <= 1e-12

    def test_quadratic_prox_matches_closed_form(self):
        # prox of 0.5||x||^2 at z with r=1 solves 2x = z
        z = np.array([2.0, 0.0])
        res = run(quadratic_oracle, SolverConfig(prox_centre=z))
        assert res.stop_reason is StopReason.TOLERANCE_MET
        assert np.linalg.norm(res.x_out - np.array([1.0, 0.0])) <= 1e-3

    def test_exact_oracle_no_tilt_corrections(self):
        z = np.array([3.0, -1.0, 0.5])
        res = run(quadratic_oracle, SolverConfig(prox_centre=z))
        assert res.tilt_corrections == 0

    def test_tolerance_met_ensures_distance_bound(self):
        prob = generate_max_quad(4, 3, 2, 2, 1.0, 500)
        eps = 1e-2
        oracle = make_ball_noise_oracle(prob, eps, make_rng(1))
        res = run(oracle, SolverConfig(prox_centre=prob.z, eps=eps))
        assert res.stop_reason is StopReason.TOLERANCE_MET
        dist = np.linalg.norm(res.x_out - prob.x_star)
        assert dist <= 1e-3 + eps + 1e-8

    def test_trace_recorded_and_merit_monotone(self):
        prob = generate_max_quad(4, 4, 2, 2, 1.0, 501)
        oracle = make_ball_noise_oracle(prob, 1e-3, make_rng(2))
        res = run(oracle, SolverConfig(prox_centre=prob.z, eps=1e-3))
        assert len(res.trace) == res.iterations
        merits = [rec.merit for rec in res.trace]
        f_z = prob.evaluate(prob.z)[0]
        for a, b in zip(merits, merits[1:]):
            assert b >= a - 1e-8
        assert max(merits) <= f_z + 1e-8

    def test_trace_disabled(self):
        res = run(quadratic_oracle,
                  SolverConfig(prox_centre=np.array([1.0]),
                               record_trace=False))
        assert res.trace == []

    def test_iteration_cap_reported(self):
        res = run(quadratic_oracle,
                  SolverConfig(prox_centre=np.array([10.0, 10.0]),
                               max_iterations=2))
        assert res.stop_reason is StopReason.ITERATION_CAP
        assert res.iterations == 2
        assert np.isfinite(res.error_bound)

    def test_rejects_non_finite_oracle(self):
        def bad(x):
            return OracleResponse(np.nan, np.zeros_like(x), 0.0)
        with pytest.raises(ValueError):
            run(bad, SolverConfig(prox_centre=np.zeros(2)))

    def test_all_variants_solve_easy_problem(self):
        prob = generate_max_quad(4, 2, 1, 1, 1.0, 502)
        for variant in BundleVariant:
            oracle = make_ball_noise_oracle(prob, 0.0, make_rng(3))
            res = run(oracle, SolverConfig(prox_centre=prob.z,
                                           variant=variant))
            assert res.stop_reason is StopReason.TOLERANCE_MET
            assert np.linalg.norm(res.x_out - prob.x_star) <= 1e-3 + 1e-8

    def test_three_variant_bundle_never_grows(self):
        prob = generate_max_quad(4, 3, 2, 2, 1.0, 503)
        oracle = make_ball_noise_oracle(prob, 0.0, make_rng(4))
        res = run(oracle, SolverConfig(prox_centre=prob.z,
                                       variant=BundleVariant.THREE))
        assert max(rec.bundle_size for rec in res.trace) <= 3

    def test_deterministic_given_seeded_oracle(self):
        prob = generate_max_quad(3, 2, 1, 1, 1.0, 504)
        out = []
        for _ in range(2):
            oracle = make_ball_noise_oracle(prob, 1e-3, make_rng(5))
            res = run(oracle, SolverConfig(prox_centre=prob.z, eps=1e-3))
            out.append((res.iterations, tuple(res.x_out)))
        assert out[0] == out[1]


class TestPinnedOutputs:
    """Seeded solves whose outputs are pinned bitwise.

    The expected values were recorded before the prox path stopped repeating
    model evaluations and power iterations; work that claims to leave the
    solver's outputs unchanged must keep them.  ``x_out`` is compared through
    a sha256 of its bytes, so the pins assume IEEE double arithmetic in the
    same operation order.
    """

    MAX_QUAD = {
        BundleVariant.THREE: (
            StopReason.ITERATION_CAP, 1000, 0,
            "f6fbcadd36da01e6293d929feca9489b46c732485724d32f86340a231da148cc"),
        BundleVariant.FULL: (
            StopReason.TOLERANCE_MET, 145, 0,
            "a44b4b5b834fb6b0c923fbe83ae78803134c7bcab0a28fa565e0fc793959917d"),
        BundleVariant.ACTIVE: (
            StopReason.ITERATION_CAP, 1000, 0,
            "7b7b8d841da21c9dab2fedcba236756cf63aa7cb7fa441fa0992a522064eebbd"),
        BundleVariant.ALMOST_ACTIVE: (
            StopReason.TOLERANCE_MET, 140, 0,
            "d4b21a9380cacd6fa0ec4dc189627c4ab0d73aa36c34dde6537c3d0c0aaa40e0"),
    }
    CB2_ALMOST_ACTIVE = (
        StopReason.TOLERANCE_MET, 146, 14,
        "ace22b1114ca2bdf1b3574b99cd71f086dc077bacc51a3b9e002451866d3edf6")

    @staticmethod
    def summary(res):
        return (res.stop_reason, res.iterations, res.tilt_corrections,
                hashlib.sha256(res.x_out.tobytes()).hexdigest())

    @pytest.mark.parametrize("variant", list(BundleVariant))
    def test_max_quad_ball_noise(self, variant):
        prob = generate_max_quad(10, 8, 4, 4, 1.0, 20240)
        oracle = make_ball_noise_oracle(prob, 1e-3, make_rng(7))
        res = run(oracle, SolverConfig(prox_centre=prob.z, eps=1e-3,
                                       variant=variant, record_trace=False))
        assert self.summary(res) == self.MAX_QUAD[variant]

    def test_test_function_simplex_gradient(self):
        f = TEST_FUNCTIONS["cb2"]
        res = run(make_simplex_gradient_oracle(f),
                  SolverConfig(prox_centre=f.start_point(),
                               variant=BundleVariant.ALMOST_ACTIVE,
                               record_trace=False))
        assert self.summary(res) == self.CB2_ALMOST_ACTIVE
