"""Tests for the named max-structured benchmark functions."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from proxbundle.funcs import TEST_FUNCTIONS, get_test_function
from proxbundle.oracles import simplex_gradient_oracle


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
            assert fn.piece_values(x)[first] == value
            np.testing.assert_array_equal(grad, fn.piece_gradients(x)[first])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            get_test_function("p_alpha")(np.zeros(3))
        # a column or row of the right size is not a point either
        for fn in TEST_FUNCTIONS.values():
            for shape in ((fn.dimension, 1), (1, fn.dimension)):
                x = np.ones(shape)
                for call in (fn, fn.evaluate):
                    with pytest.raises(ValueError, match="point of shape"):
                        call(x)

    def test_infinite_point_gives_no_infinite_value(self):
        # as MaxQuadProblem.evaluate does, f(x) and evaluate raise at an
        # infinite coordinate unless the max stays finite there
        with pytest.raises(ValueError, match="non-finite point"):
            get_test_function("dem").evaluate([np.inf, 0.0])

        def outcome(call, x):
            try:
                return call(x)
            except ValueError as exc:
                return str(exc)

        for fn in TEST_FUNCTIONS.values():
            for j, bad in itertools.product(range(fn.dimension),
                                            (np.inf, -np.inf)):
                x = fn.start_point()
                x[j] = bad
                with np.errstate(invalid="ignore", over="ignore"):
                    got = outcome(fn, x)
                    from_evaluate = outcome(lambda p: fn.evaluate(p)[0], x)
                assert got == from_evaluate
                assert isinstance(got, str) or math.isfinite(got), (fn.name, j)
        # an overflow at a finite point is no bad point: it returns inf
        x = np.zeros(12)
        x[0] = 1000.0
        with np.errstate(over="ignore"):
            assert get_test_function("maxexp")(x) == np.inf
            assert get_test_function("maxexp").evaluate(x)[0] == np.inf

    def test_nan_point_rejected(self):
        fn = get_test_function("cb2")
        with pytest.raises(ValueError, match="max is NaN"):
            fn.evaluate([np.nan, 1.0])
        # f(x) and evaluate raise the same error at a NaN in any coordinate;
        # a max over the pieces that skipped the NaN one would return a value
        for fn in TEST_FUNCTIONS.values():
            for j in range(fn.dimension):
                x = fn.start_point()
                x[j] = np.nan
                with np.errstate(invalid="ignore"):
                    with pytest.raises(ValueError) as from_evaluate:
                        fn.evaluate(x)
                    with pytest.raises(ValueError) as from_call:
                        fn(x)
                assert str(from_call.value) == str(from_evaluate.value)

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
            grads = fn.piece_gradients(x)
            num = np.zeros_like(grads)
            for j in range(fn.dimension):
                e = np.zeros(fn.dimension)
                e[j] = h
                num[:, j] = (np.subtract(fn.piece_values(x + e),
                                         fn.piece_values(x - e)) / (2 * h))
            for grad, approx in zip(grads, num):
                scale = 1.0 + np.linalg.norm(grad)
                assert np.linalg.norm(approx - grad) <= 1e-4 * scale, fn.name


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


class TestPinnedFunctionValues:
    """sha256 of every output of each function over 50 seeded domain points:
    the piece values, f(x), evaluate's value, active set and gradient, and
    the simplex-gradient response.  Recorded when each function was a list
    of scalar (value, gradient) lambdas; work that leaves the values
    unchanged must keep them.  A gradient is hashed as ``g + 0.0``, so the
    sign of a zero entry is not pinned."""

    DIGESTS = {
        "p_alpha": "c0b61b22ec5471ac20abec37bcecbe8b23ec0e26c6d3c3161a12994b3242ffcb",
        "dem": "d1816a3b8cc45bc7ff9eb8305202829d22cb83bd076a037c085b83480dc0703b",
        "wong3": "c0639c647f26950bb8f1a81753fa6b69804fc7c1385e5b9844aebca5ac91ebad",
        "cb2": "552c3dea33ca99d0d8d9dfe56c63aa68cf0b454019fd88ce803291259033fef5",
        "mifflin2": "bff475867911cddca349bb2731bf1aaf443dd56dc64e72acd07a847a447de7d9",
        "evd52": "5c65648b68b57bb78724cb8fea4ab46fdff34acd9243f2c87521b5840ce2682c",
        "oet6": "a87645461ef71cfd9bb6b1faaad602d57937cafa121e42d374f7929b920715c5",
        "maxexp": "e254a4e4dfd8598f0e104fa03f83fdbb901cd803254d1b4b4551a2395a26c677",
        "maxlog": "66e0da9a3584a89aab8939267031f6a2cf0b434d7ae923d0537cc35e3b9fefa7",
        "max10": "7ac890871e981766ae10e08ba72c1fad44823a7107f903d7a4e235e1a85d2ccd",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_digest(self, name):
        fn = TEST_FUNCTIONS[name]
        rng = np.random.default_rng(16)
        h = hashlib.sha256()
        for k in range(50):
            x = domain_point(fn, rng, scale=(0.5, 1.0, 4.0)[k % 3])
            value, active, grad = fn.evaluate(x)
            resp = simplex_gradient_oracle(fn, x)
            for part in (fn.piece_values(x), fn(x), value, active, grad + 0.0,
                         resp.value, resp.subgrad_approx):
                h.update(np.asarray(part, dtype=float).tobytes())
        assert h.hexdigest() == self.DIGESTS[name]


class TestFloatPower:
    """The vector pieces take powers with ``np.float_power`` because it
    rounds as scalar ``**`` (libm's pow) does, which array ``**`` does not
    always; a NumPy that vectorizes ``float_power`` differently fails here."""

    @pytest.mark.parametrize("p", [2, 3, 4, 9, 10])
    def test_matches_scalar_power(self, p):
        a = np.random.default_rng(p).normal(scale=2.0, size=20_000)
        want = np.array([v ** p for v in a])
        assert np.array_equal(np.float_power(a, p), want)
