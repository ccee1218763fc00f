"""Tests for the named max-structured benchmark functions."""

import numpy as np
import pytest

from proxbundle.funcs import TEST_FUNCTIONS, get_test_function


def domain_point(fn, rng, scale=1.0):
    """Random point inside the function's domain."""
    if fn.name == "maxlog":
        return rng.uniform(0.1, 2.0, size=fn.dimension)
    return rng.normal(size=fn.dimension) * scale


class TestSpotValues:
    def test_p_alpha_at_unit_point(self):
        assert get_test_function("p_alpha")(np.array([1.0, 0.0])) == 1.0

    def test_maxexp_at_origin(self):
        assert get_test_function("maxexp")(np.zeros(12)) == 12.0

    def test_max10_at_ones(self):
        assert get_test_function("max10")(np.ones(10)) == 10.0

    def test_maxlog_at_ones(self):
        assert get_test_function("maxlog")(np.ones(30)) == 0.0


class TestRegistry:
    def test_all_names_resolve(self):
        for name in TEST_FUNCTIONS:
            assert get_test_function(name).name == name

    def test_case_insensitive(self):
        assert get_test_function("MaxExp").name == "maxexp"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_test_function("nope")

    def test_start_points_match_dimension(self):
        for fn in TEST_FUNCTIONS.values():
            s = fn.start_point()
            assert s.shape == (fn.dimension,)
            np.testing.assert_array_equal(s, np.ones(fn.dimension))


class TestEvaluateProtocol:
    def test_value_matches_call(self):
        rng = np.random.default_rng(0)
        for fn in TEST_FUNCTIONS.values():
            for _ in range(5):
                x = domain_point(fn, rng)
                value, active, grad = fn.evaluate(x)
                assert value == fn(x)
                assert len(active) >= 1
                assert grad.shape == (fn.dimension,)

    def test_gradient_comes_from_active_piece(self):
        rng = np.random.default_rng(1)
        for fn in TEST_FUNCTIONS.values():
            x = domain_point(fn, rng)
            value, active, grad = fn.evaluate(x)
            first = active[0]
            v, g = fn.pieces[first]
            assert v(x) == value
            np.testing.assert_array_equal(grad, g(x))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            get_test_function("p_alpha")(np.zeros(3))

    def test_nan_point_rejected(self):
        fn = get_test_function("cb2")
        with pytest.raises(ValueError, match="max is NaN"):
            fn.evaluate([np.nan, 1.0])
        for fn in TEST_FUNCTIONS.values():
            x = fn.start_point()
            x[0] = np.nan
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError):
                    fn.evaluate(x)

    def test_maxlog_domain_enforced(self):
        fn = get_test_function("maxlog")
        x = np.ones(30)
        x[4] = -1.0
        with pytest.raises(ValueError):
            fn(x)
        with pytest.raises(ValueError):
            fn(np.zeros(30))


class TestPieceGradients:
    def test_finite_difference_agreement(self):
        # central differences on each smooth piece at generic points
        rng = np.random.default_rng(2)
        h = 1e-6
        for fn in TEST_FUNCTIONS.values():
            x = domain_point(fn, rng, scale=0.5)
            for v, g in fn.pieces:
                grad = np.asarray(g(x), float)
                num = np.zeros(fn.dimension)
                for j in range(fn.dimension):
                    e = np.zeros(fn.dimension)
                    e[j] = h
                    num[j] = (v(x + e) - v(x - e)) / (2 * h)
                scale = 1.0 + np.linalg.norm(grad)
                assert np.linalg.norm(num - grad) <= 1e-4 * scale, fn.name


class TestConvexity:
    def test_midpoint_inequality(self):
        # f((x+y)/2) <= (f(x)+f(y))/2 up to roundoff, across all functions
        rng = np.random.default_rng(3)
        per_fn = 100
        for fn in TEST_FUNCTIONS.values():
            for _ in range(per_fn):
                x = domain_point(fn, rng)
                y = domain_point(fn, rng)
                fx, fy = fn(x), fn(y)
                mid = fn(0.5 * (x + y))
                scale = 1.0 + abs(fx) + abs(fy)
                assert mid <= 0.5 * (fx + fy) + 1e-9 * scale, fn.name

    def test_subgradient_inequality(self):
        # f(y) >= f(x) + g(x)^T (y - x) for the reported subgradient
        rng = np.random.default_rng(4)
        for fn in TEST_FUNCTIONS.values():
            for _ in range(50):
                x = domain_point(fn, rng)
                y = domain_point(fn, rng)
                fx, _, g = fn.evaluate(x)
                fy = fn(y)
                scale = 1.0 + abs(fx) + abs(fy) + abs(g @ (y - x))
                assert fy >= fx + g @ (y - x) - 1e-9 * scale, fn.name
