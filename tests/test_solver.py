"""Tests for the main bundle loop, stopping test, and error bound."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxbundle import model, solver
from proxbundle.funcs import TEST_FUNCTIONS
from proxbundle.model import (AGGREGATE_INDEX, Bundle, BundleElement,
                              BundleVariant, eval_model, make_aggregate,
                              next_bundle, select_bundle)
from proxbundle.oracles import (OracleResponse, make_ball_noise_oracle,
                                make_exact_oracle, make_rng,
                                make_simplex_gradient_oracle)
from proxbundle.problems import generate_max_quad
from proxbundle.qp import QPConvergenceError, default_tol_kkt
from proxbundle.solver import (SolverConfig, StopReason,
                               default_iteration_cap, error_bound, run,
                               stopping_test)


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

    def test_rejects_nan_eps(self):
        with pytest.raises(ValueError):
            error_bound(0.0, float("nan"), 1.0)


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

    def test_rejects_nan_stop_tol(self):
        # a NaN tolerance never stops: the run went to its cap
        with pytest.raises(ValueError):
            SolverConfig(prox_centre=np.zeros(2), stop_tol=float("nan"))

    def test_rejects_nan_eps(self):
        # a NaN eps made every reported error_bound NaN
        with pytest.raises(ValueError):
            SolverConfig(prox_centre=np.zeros(2), eps=float("nan"))


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

    def test_rejects_non_finite_subgradient_after_the_centre(self):
        z = np.array([1.0, -2.0])

        def bad_away_from_centre(x):
            resp = quadratic_oracle(x)
            if np.array_equal(x, z):
                return resp
            return OracleResponse(resp.value, np.array([np.inf, 0.0]), 0.0)
        with pytest.raises(ValueError, match="iteration 0"):
            run(bad_away_from_centre, SolverConfig(prox_centre=z))

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


def warm_start_by_index(lam, old_bundle, new_bundle):
    """The index-keyed warm start the row-mask version replaced: weights
    follow their element index, new indices get 1/m, then renormalize."""
    m = len(new_bundle)
    prev = dict(zip(old_bundle.indices.tolist(), lam))
    out = np.array([prev.get(i, 1.0 / m) for i in new_bundle.indices.tolist()])
    s = out.sum()
    return out / s if s > 0 else None


class TestWarmStart:
    @pytest.mark.parametrize("variant", list(BundleVariant))
    def test_matches_index_mapping(self, variant):
        rng = np.random.default_rng(12)
        n = 3
        z = rng.normal(size=n)

        def element(i):
            return BundleElement(i, rng.normal(size=n), float(rng.normal()),
                                 rng.normal(size=n))

        for k in range(1, 9):
            # the first step's bundle holds only the centre; later ones
            # hold an aggregate and a random subset of planes 1..k-1
            held = [0] + [i for i in range(1, k) if rng.random() < 0.7]
            if k > 1:
                held.append(AGGREGATE_INDEX)
            bundle = Bundle([element(i) for i in held], z, 1.5)
            lam = rng.dirichlet(np.ones(len(bundle)))
            lam[rng.random(len(bundle)) < 0.3] = 0.0
            x = rng.normal(size=n)
            ev = eval_model(bundle, x)
            keep = select_bundle(variant, bundle, ev)
            nxt, got = next_bundle(bundle, keep, x, ev.value,
                                   float(rng.normal()), rng.normal(size=n),
                                   lam)
            want = warm_start_by_index(lam, bundle, nxt)
            assert got.shape == (len(nxt),)
            np.testing.assert_array_equal(got, want)


class TestSuccessorRowsOnce:
    def test_one_gather_per_successor(self, monkeypatch):
        # the successor and its warm start share the rows: one
        # _successor_rows per step
        calls = []
        original = model._successor_rows

        def rows(keep):
            calls.append(keep)
            return original(keep)

        monkeypatch.setattr(model, "_successor_rows", rows)
        prob = generate_max_quad(4, 3, 2, 2, 1.0, 70)
        res = run(make_ball_noise_oracle(prob, 1e-3, make_rng(5)),
                  SolverConfig(prox_centre=prob.z, eps=1e-3,
                               variant=BundleVariant.ACTIVE))
        assert res.stop_reason is StopReason.TOLERANCE_MET
        assert res.iterations > 2
        assert len(calls) == res.iterations - 1


class TestLoosenedProx:
    """``SolveResult.loosened_prox`` counts the prox QPs that met only a
    loosened KKT target."""

    @staticmethod
    def failing_prox(monkeypatch, fail_at):
        """Make the first prox call raise at each multiple of the strict
        target in ``fail_at``."""
        original = solver.prox_of_model
        pending = set(fail_at)

        def prox(bundle, tol_kkt=None, warm_start=None):
            mult = round(tol_kkt / default_tol_kkt(bundle))
            if mult in pending:
                pending.discard(mult)
                raise QPConvergenceError("injected")
            return original(bundle, tol_kkt=tol_kkt, warm_start=warm_start)

        monkeypatch.setattr(solver, "prox_of_model", prox)

    def solve(self):
        return run(quadratic_oracle,
                   SolverConfig(prox_centre=np.array([2.0, -1.0, 0.5])))

    def test_strict_target_counts_nothing(self):
        assert self.solve().loosened_prox == (0, 0)

    def test_ten_times_target(self, monkeypatch):
        self.failing_prox(monkeypatch, {1})
        assert self.solve().loosened_prox == (1, 0)

    def test_hundred_times_target(self, monkeypatch):
        self.failing_prox(monkeypatch, {1, 10})
        assert self.solve().loosened_prox == (0, 1)

    def test_last_rung_failure_propagates(self, monkeypatch):
        self.failing_prox(monkeypatch, {1, 10, 100})
        with pytest.raises(QPConvergenceError):
            self.solve()


class TestThreePlaneStalls:
    """Solves with a three-plane prox QP that the general QP path alone
    cannot finish: it runs 50,000 projected-gradient steps on every rung of
    the ladder and raises ``QPConvergenceError`` (after about 3.5 s and
    6 s).  Each cap is the iteration of that QP plus one.  The centres are those of the dfo-tilt
    benchmark: start point + 0.05 (2u - 1), u from ``make_rng(20240, 0xDF0,
    function index, k)``."""

    @staticmethod
    def solve(name, k, variant, cap):
        fn = TEST_FUNCTIONS[name]
        u = make_rng(20240, 0xDF0, list(TEST_FUNCTIONS).index(name),
                     k).random(fn.dimension)
        z = fn.start_point() + 0.05 * (2.0 * u - 1.0)
        return run(make_simplex_gradient_oracle(fn),
                   SolverConfig(prox_centre=z, variant=variant,
                                max_iterations=cap, record_trace=False))

    def test_p_alpha_three(self):
        res = self.solve("p_alpha", 3, BundleVariant.THREE, 5)
        assert res.loosened_prox == (0, 0)

    def test_max10_active(self):
        res = self.solve("max10", 0, BundleVariant.ACTIVE, 10)
        assert res.loosened_prox == (0, 0)


class TestSuccessorChain:
    """The successors ``run`` builds, gathered from the parent's rows, are
    bitwise the bundles stacked and sorted from their elements."""

    @given(st.sampled_from(list(BundleVariant)), st.integers(1, 6),
           st.integers(1, 12), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_rebuilt_bundles(self, variant, n, steps, seed):
        rng = np.random.default_rng(seed)
        r = float(rng.uniform(0.1, 10.0))

        def vector():
            return rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 4))

        z = vector()
        held = [BundleElement(0, z.copy(), float(rng.normal()), vector())]
        bundle = Bundle(held, z, r)
        for k in range(1, steps + 1):
            x = vector()
            ev = eval_model(bundle, x)
            keep = select_bundle(variant, bundle, ev)
            lam = rng.dirichlet(np.ones(len(bundle)))
            lam[rng.random(len(bundle)) < 0.3] = 0.0
            f, g = float(rng.normal()), vector()
            fresh = [make_aggregate(bundle, x, ev.value),
                     BundleElement(k, x, f, g)]
            # carried: the kept rows' centre values come with the rows, so
            # the successor evaluates no plane at the centre
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Bundle, "plane_values", None)
                nxt, warm = next_bundle(bundle, keep, x, ev.value, f, g, lam)
            held = ([fresh[0]] + [held[i] for i in np.flatnonzero(keep)]
                    + [fresh[1]])
            rebuilt = Bundle(held, z, r)
            for name in ("indices", "values", "sites", "subgrads",
                         "centre_values"):
                got, want = getattr(nxt, name), getattr(rebuilt, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert not nxt.centre_values.flags.writeable
            G, H = nxt.subgrads.T, rebuilt.subgrads.T
            assert ((G.T @ G) / r).tobytes() == ((H.T @ H) / r).tobytes()
            w = rng.dirichlet(np.ones(len(nxt)))
            assert (G @ w).tobytes() == (H @ w).tobytes()
            assert (warm.tobytes()
                    == warm_start_by_index(lam, bundle, rebuilt).tobytes())
            bundle = nxt


class TestModelProxGap:
    """``run`` reports each model prox's primal-dual gap delta =
    phi(x) - lam . planes(x).  On evd52 with the exact oracle the last
    model prox is certified only to sqrt(2 delta / r), although the run
    reports TOLERANCE_MET: delta exceeds r s_tol^2 by more than 10x."""

    @staticmethod
    def evd52_run(k):
        fn = TEST_FUNCTIONS["evd52"]
        u = make_rng(77, 5, k).random(3)
        z = fn.start_point() + 0.5 * (2.0 * u - 1.0)
        return run(make_exact_oracle(fn),
                   SolverConfig(prox_centre=z, prox_param=1.0, stop_tol=1e-3,
                                variant=BundleVariant.FULL,
                                record_trace=False))

    @pytest.mark.parametrize("k, iterations, gap, bound, delta_final", [
        (3, 59, -6.75e-7, 0.0, 1.73e-5),
        (0, 48, -3.13e-5, 0.0, 4.51e-5),
    ])
    def test_evd52_last_prox_is_not_certified(self, k, iterations, gap,
                                              bound, delta_final):
        res = self.evd52_run(k)
        assert res.stop_reason is StopReason.TOLERANCE_MET
        assert res.iterations == iterations
        assert res.gap == pytest.approx(gap, rel=1e-2)
        assert res.error_bound == pytest.approx(bound, rel=1e-2, abs=0.0)
        assert res.delta_final == pytest.approx(delta_final, rel=1e-2)
        assert res.delta_max >= res.delta_final
        assert res.delta_final > 10 * 1.0 * 1e-3 ** 2

    def test_one_plane_model_has_no_gap(self):
        # an affine function stops after one prox of a one-plane model,
        # whose weight is 1: phi(x) - 1 * phi(x) = 0
        res = run(affine_oracle(np.array([2.0, -1.0]), 3.0),
                  SolverConfig(prox_centre=np.array([5.0, 5.0])))
        assert res.iterations == 1
        assert res.delta_max == res.delta_final == 0.0


class TestPinnedOutputs:
    """Seeded solves whose outputs are pinned bitwise.

    The expected values were recorded before the prox path stopped repeating
    model evaluations and power iterations (the small-bundle simplex-gradient
    ones before successor bundles were gathered from their parent's rows,
    the maxlog, oet6 and maxexp ones before the named functions became
    array expressions, the n=100 ones before ``evaluate`` skipped pieces
    below the max).  They were re-recorded when the prox QP's faces of
    three or more planes went to LU first (the mifflin2 and oet6 pins did
    not move), and again when every QP of at most three planes went to the
    closed forms of the simplex's faces; these two changes moved solver
    outputs at the rounding level, and no other has.  Other work that
    claims to leave the solver's outputs unchanged must keep them.
    ``x_out`` is compared through a sha256 of its bytes, so the pins assume
    IEEE double arithmetic in the same operation order.
    """

    MAX_QUAD = {
        BundleVariant.THREE: (
            StopReason.ITERATION_CAP, 1000, 0,
            "1f2edaa24ebf17177be78632ff54c466d6e8178c34f1f4459e583404c33f8917"),
        BundleVariant.FULL: (
            StopReason.TOLERANCE_MET, 147, 0,
            "a82346af7f1cf9e69a7268a5eee6ba4ef6533f59be4adc357d7db2bd2b3d5441"),
        BundleVariant.ACTIVE: (
            StopReason.ITERATION_CAP, 1000, 0,
            "7bb687c475cdfde87ca556de3ea3b2a464961741e4804a5eb8c54d54ee5d4481"),
        BundleVariant.ALMOST_ACTIVE: (
            StopReason.TOLERANCE_MET, 142, 0,
            "62ba7efb252e5160879b353cd7bbb35c021e1ecd910e9114c306612a33da1a96"),
    }
    CB2_ALMOST_ACTIVE = (
        StopReason.TOLERANCE_MET, 148, 14,
        "0310181d1e11a031fdfdd1669f8dff70a5ece2da191be52a4361ff11bdbebb88")

    SMALL_BUNDLE_SIMPLEX = {
        ("mifflin2", BundleVariant.THREE): (
            StopReason.ITERATION_CAP, 200, 0,
            "c2dd5cb02870c028ef612952bd57cb211f283fd2f0beafdc2a24f9e7bacfcfb5"),
        ("evd52", BundleVariant.ACTIVE): (
            StopReason.ITERATION_CAP, 300, 0,
            "36f4241cbcd1bbe76e696a970171bc67bd86e45ffd3c5f276ca4352a14fc063c"),
        ("maxlog", BundleVariant.THREE): (
            StopReason.ITERATION_CAP, 600, 0,
            "fed31f130b052ff33c0aef3d9e4de08755c5424a47fe24732a4cc7bbd56a1e63"),
        ("oet6", BundleVariant.THREE): (
            StopReason.TOLERANCE_MET, 194, 0,
            "f2256a4e18de482a40695458addff729851ab7165f65351aa042f0785e5b2256"),
        ("maxexp", BundleVariant.THREE): (
            StopReason.ITERATION_CAP, 1200, 0,
            "d5a015e1f31f114db4f47fd3e7d8b35aabe83af57af6016d3d90840db5de700a"),
    }
    # centre = scale * start point; maxlog and oet6 solve in a few steps from
    # the start point itself
    SIMPLEX_CENTRE_SCALE = {"maxlog": 0.5, "oet6": -1.0}

    # n=100 sparse, nf=34: evaluate takes the pruned path
    HIGHDIM_THREE = {
        1: (StopReason.TOLERANCE_MET, 176, 0,
            "13f90f5d2c73c3c3db677b6994f945460086ea136f2757d6274f1fa529974256"),
        34: (StopReason.ITERATION_CAP, 2000, 0,
             "7233350e7989fc3e332e5781ed970ff4f270a24db40d6f85787077b8d84906d6"),
    }

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

    @pytest.mark.parametrize("nf_xstar", list(HIGHDIM_THREE))
    def test_highdim_ball_noise(self, nf_xstar):
        prob = generate_max_quad(100, 34, nf_xstar, 1, 1.0, 20240, sparse=True)
        oracle = make_ball_noise_oracle(prob, 1e-3, make_rng(7))
        res = run(oracle, SolverConfig(prox_centre=prob.z, eps=1e-3,
                                       variant=BundleVariant.THREE,
                                       record_trace=False))
        assert self.summary(res) == self.HIGHDIM_THREE[nf_xstar]

    def test_test_function_simplex_gradient(self):
        f = TEST_FUNCTIONS["cb2"]
        res = run(make_simplex_gradient_oracle(f),
                  SolverConfig(prox_centre=f.start_point(),
                               variant=BundleVariant.ALMOST_ACTIVE,
                               record_trace=False))
        assert self.summary(res) == self.CB2_ALMOST_ACTIVE

    def test_every_tilt_correction_goes_through_tilt_correct(self,
                                                             monkeypatch):
        # the loop calls the public, checked tilt_correct: once at the centre
        # and once per iteration that does not stop, and its reports are the
        # corrections the result counts
        reports = []

        def counting(*args):
            g, report = original(*args)
            reports.append(report)
            return g, report

        original = solver.tilt_correct
        monkeypatch.setattr(solver, "tilt_correct", counting)
        f = TEST_FUNCTIONS["cb2"]
        res = run(make_simplex_gradient_oracle(f),
                  SolverConfig(prox_centre=f.start_point(),
                               variant=BundleVariant.ALMOST_ACTIVE,
                               record_trace=False))
        assert self.summary(res) == self.CB2_ALMOST_ACTIVE
        assert res.stop_reason is StopReason.TOLERANCE_MET
        assert len(reports) == 1 + (res.iterations - 1)
        assert sum(rep.corrected for rep in reports) == res.tilt_corrections
        assert res.tilt_corrections > 0

    @pytest.mark.parametrize("name, variant", list(SMALL_BUNDLE_SIMPLEX))
    def test_small_bundle_simplex_gradient(self, name, variant):
        f = TEST_FUNCTIONS[name]
        centre = self.SIMPLEX_CENTRE_SCALE.get(name, 1.0) * f.start_point()
        res = run(make_simplex_gradient_oracle(f),
                  SolverConfig(prox_centre=centre, variant=variant,
                               record_trace=False))
        assert self.summary(res) == self.SMALL_BUNDLE_SIMPLEX[name, variant]
