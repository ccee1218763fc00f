"""Tests for the exact, ball-noise, and simplex-gradient oracles."""

import numpy as np
import pytest

from proxbundle.oracles import (make_ball_noise_oracle, make_exact_oracle,
                                make_rng, make_simplex_gradient_oracle,
                                sample_ball, simplex_gradient_oracle,
                                standard_normals)
from proxbundle.problems import generate_max_quad
from proxbundle.qp import dist_to_hull


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42, 1, 2).random(10)
        b = make_rng(42, 1, 2).random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_substreams_differ(self):
        a = make_rng(42, 1).random(10)
        b = make_rng(42, 2).random(10)
        assert not np.array_equal(a, b)


class TestStandardNormals:
    def test_shape_and_moments(self):
        rng = make_rng(0)
        x = standard_normals(rng, 200_000)
        assert x.shape == (200_000,)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01

    def test_multidimensional_shape(self):
        x = standard_normals(make_rng(1), (3, 5))
        assert x.shape == (3, 5)


def standard_normals_two_calls(rng, size):
    """The earlier loop: two ``random(pairs)`` calls a round and one
    concatenation per round; ``standard_normals`` must draw bitwise alike."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    total = int(np.prod(shape)) if shape else 1
    out = np.empty(0)
    while out.size < total:
        need = total - out.size
        pairs = max((need + 1) // 2, 8)
        u = 2.0 * rng.random(pairs) - 1.0
        v = 2.0 * rng.random(pairs) - 1.0
        s = u * u + v * v
        keep = (s > 0.0) & (s < 1.0)
        f = np.sqrt(-2.0 * np.log(s[keep]) / s[keep])
        out = np.concatenate([out, (u[keep] * f), (v[keep] * f)])
    return out[:total].reshape(shape)


class TestStandardNormalsDraws:
    def test_same_draws_and_state_as_two_calls(self):
        for size in [0, (), (3, 4), *range(1, 201)]:
            for seed in (0, 1):
                a, b = make_rng(seed, 5), make_rng(seed, 5)
                got = standard_normals(a, size)
                ref = standard_normals_two_calls(b, size)
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes(), size
                assert a.bit_generator.state == b.bit_generator.state


class TestSampleBall:
    def test_zero_radius_gives_origin(self):
        np.testing.assert_array_equal(sample_ball(make_rng(0), 4, 0.0),
                                      np.zeros(4))

    def test_every_draw_inside_radius(self):
        rng = make_rng(5)
        for _ in range(500):
            assert np.linalg.norm(sample_ball(rng, 3, 0.7)) < 0.7

    def test_uniformity_in_disk(self):
        # for a uniform disk, P(norm <= 1/2) = 1/4
        rng = make_rng(9)
        inside = sum(np.linalg.norm(sample_ball(rng, 2, 1.0)) <= 0.5
                     for _ in range(10_000))
        assert abs(inside / 10_000 - 0.25) < 0.02

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_ball(make_rng(0), 0, 1.0)
        with pytest.raises(ValueError):
            sample_ball(make_rng(0), 2, -1.0)


class TestExactOracle:
    def test_reports_exact_value_and_zero_eps(self):
        prob = generate_max_quad(3, 2, 1, 1, 1.0, 100)
        oracle = make_exact_oracle(prob)
        x = prob.z + 0.1
        resp = oracle(x)
        value, _, grad = prob.evaluate(x)
        assert resp.value == value
        np.testing.assert_array_equal(resp.subgrad_approx, grad)
        assert resp.eps_declared == 0.0


class TestPointShape:
    """A point must have shape (n,): one of another shape broadcasts and
    would be evaluated at another point."""

    @pytest.mark.parametrize("x", [np.array([0.5]), 0.5, np.zeros(4),
                                   np.zeros((1, 3)), np.zeros((3, 1))])
    def test_oracles_refuse_a_point_of_the_wrong_shape(self, x):
        prob = generate_max_quad(3, 2, 1, 1, 1.0, 100)
        for oracle in (make_exact_oracle(prob),
                       make_ball_noise_oracle(prob, 0.1, make_rng(0))):
            with pytest.raises(ValueError, match="shape"):
                oracle(x)


class TestNonFinitePoint:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_oracles_refuse_a_non_finite_point(self, bad):
        prob = generate_max_quad(3, 2, 1, 1, 1.0, 4)
        x = prob.z.copy()
        x[1] = bad
        with np.errstate(invalid="ignore"):
            for oracle in (make_exact_oracle(prob),
                           make_ball_noise_oracle(prob, 0.1, make_rng(0))):
                with pytest.raises(ValueError, match="max is NaN"):
                    oracle(x)


class TestBallNoiseOracle:
    def test_zero_eps_reduces_to_exact(self):
        prob = generate_max_quad(3, 2, 1, 1, 1.0, 101)
        oracle = make_ball_noise_oracle(prob, 0.0, make_rng(0))
        x = prob.z + 0.2
        resp = oracle(x)
        np.testing.assert_array_equal(resp.subgrad_approx,
                                      prob.evaluate(x)[2])

    def test_same_seed_reproduces_response(self):
        prob = generate_max_quad(2, 2, 1, 1, 1.0, 102)
        x = prob.z + 0.3
        a = make_ball_noise_oracle(prob, 0.1, make_rng(7))(x)
        b = make_ball_noise_oracle(prob, 0.1, make_rng(7))(x)
        np.testing.assert_array_equal(a.subgrad_approx, b.subgrad_approx)

    def test_noise_stays_within_declared_bound(self):
        prob = generate_max_quad(4, 3, 2, 2, 1.0, 103)
        eps = 0.05
        rng = make_rng(3)
        oracle = make_ball_noise_oracle(prob, eps, rng)
        draw = make_rng(4)
        for _ in range(200):
            x = prob.z + draw.normal(size=4)
            resp = oracle(x)
            true_grad = prob.evaluate(x)[2]
            assert np.linalg.norm(resp.subgrad_approx - true_grad) < eps

    def test_containment_in_subdifferential_ball(self):
        # the noisy subgradient stays within eps of the subdifferential,
        # measured as hull distance to the active-piece gradients
        rng = make_rng(11)
        draw = make_rng(12)
        for trial in range(30):
            prob = generate_max_quad(3, 3, 2, 2, 1.0, 2000 + trial)
            eps = float(draw.uniform(0.0, 0.2))
            oracle = make_ball_noise_oracle(prob, eps, rng)
            for _ in range(5):
                x = prob.z + draw.normal(size=3)
                resp = oracle(x)
                _, active, _ = prob.evaluate(x)
                grads = [prob.quadratics[i].gradient(x) for i in active]
                assert dist_to_hull(resp.subgrad_approx, grads) <= eps + 1e-8


class TestSimplexGradientOracle:
    def test_exact_on_affine_functions(self):
        a = np.array([2.0, -3.0, 0.5])
        f = lambda x: a @ x + 4.0
        rng = make_rng(21)
        for _ in range(10):
            x = rng.normal(size=3)
            resp = simplex_gradient_oracle(f, x, delta=1e-3)
            scale = 1.0 + np.linalg.norm(a)
            assert np.linalg.norm(resp.subgrad_approx - a) <= 1e-12 * scale
            assert resp.value == f(x)

    def test_forward_difference_bias_on_quadratic(self):
        resp = simplex_gradient_oracle(lambda x: float(x[0] ** 2),
                                       np.array([1.0]), delta=1e-3)
        # ((1+d)^2 - 1)/d = 2 + d
        assert abs(resp.subgrad_approx[0] - (2.0 + 1e-3)) < 1e-9

    def test_right_sided_selection_at_kink(self):
        resp = simplex_gradient_oracle(lambda x: float(abs(x[0])),
                                       np.array([0.0]), delta=0.01)
        assert resp.subgrad_approx[0] == 1.0

    def test_default_delta_positive_and_scales(self):
        resp = simplex_gradient_oracle(lambda x: float(x.sum()),
                                       np.array([1000.0, 0.0]))
        np.testing.assert_allclose(resp.subgrad_approx, [1.0, 1.0],
                                   rtol=1e-6)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            simplex_gradient_oracle(lambda x: 0.0, np.array([1.0]), delta=0.0)

    def test_degenerate_delta_detected_for_nonconstant(self):
        with pytest.raises(ValueError):
            simplex_gradient_oracle(lambda x: float(x[0]), np.array([1.0]),
                                    delta=1e-30, known_nonconstant=True)

    def test_factory_passes_eps_declared(self):
        oracle = make_simplex_gradient_oracle(lambda x: float(x[0]),
                                              eps_declared=0.25)
        assert oracle(np.array([1.0])).eps_declared == 0.25
