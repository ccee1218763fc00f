"""Tests for the max-of-quadratics generator and its certificates."""

import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxbundle import problems
from proxbundle.problems import (ACTIVITY_MARGIN, MaxQuadProblem,
                                 ProblemCertificateError, Quadratic,
                                 check_problem,
                                 generate_max_quad, load_problem,
                                 problem_from_dict, problem_to_dict,
                                 reference_prox, save_problem)
from proxbundle.qp import dist_to_hull


class TestQuadratic:
    def test_value_and_gradient(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        q = Quadratic.plain(A, np.array([1.0, -1.0]), 3.0)
        x = np.array([1.0, 2.0])
        # 0.5(2 + 16) + (1 - 2) + 3
        assert q.value(x) == 11.0
        np.testing.assert_array_equal(q.gradient(x), [3.0, 7.0])

    def test_rejects_asymmetric(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Quadratic.plain(A, np.zeros(2), 0.0)

    def test_rejects_indefinite(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Quadratic.plain(A, np.zeros(2), 0.0)

    def test_stores_c_ordered_float_arrays(self):
        A = np.array([[2, 1], [1, 3]])
        for given in (A.tolist(), A, np.asfortranarray(A)):
            q = Quadratic(given, [1, -1], 0.5, (0, 2))
            for arr in (q.A, q.b, q.center):
                assert arr.dtype == np.float64
                assert arr.flags.c_contiguous
            np.testing.assert_array_equal(q.A, A)
        # arrays that are already C-ordered float are kept, not copied
        A, b, c = np.eye(2), np.ones(2), np.zeros(2)
        q = Quadratic(A, b, 0.0, c)
        assert q.A is A and q.b is b and q.center is c

    def test_fortran_ordered_hessian_rounds_like_c_ordered(self):
        rng = np.random.default_rng(5)
        n = 60
        for _ in range(20):
            B = rng.normal(size=(n, n))
            A = B.T @ B
            b, center, x = rng.normal(size=(3, n))
            q_c = Quadratic(A, b, 0.25, center)
            q_f = Quadratic(np.asfortranarray(A), b, 0.25, center)
            assert q_f.value(x) == q_c.value(x)


class TestGenerateMaxQuad:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_max_quad(0, 1, 1, 1, 1.0, 0)
        with pytest.raises(ValueError):
            generate_max_quad(3, 2, 3, 1, 1.0, 0)  # nf_xstar > nf
        with pytest.raises(ValueError):
            generate_max_quad(3, 2, 1, 3, 1.0, 0)  # nf_z > nf
        with pytest.raises(ValueError):
            generate_max_quad(3, 2, 1, 1, 0.0, 0)  # r <= 0

    def test_deterministic_in_seed(self):
        a = generate_max_quad(4, 4, 2, 2, 1.0, 77)
        b = generate_max_quad(4, 4, 2, 2, 1.0, 77)
        np.testing.assert_array_equal(a.x_star, b.x_star)
        np.testing.assert_array_equal(a.z, b.z)
        for qa, qb in zip(a.quadratics, b.quadratics):
            np.testing.assert_array_equal(qa.A, qb.A)
            np.testing.assert_array_equal(qa.b, qb.b)
            assert qa.c == qb.c

    def test_single_quadratic_prox_solves_linear_system(self):
        prob = generate_max_quad(3, 1, 1, 1, 2.0, 55)
        q = prob.quadratics[0]
        # centered form: gradient at x is A(x - center) + b
        x = np.linalg.solve(q.A + 2.0 * np.eye(3),
                            2.0 * prob.z + q.A @ q.center - q.b)
        assert np.linalg.norm(x - prob.x_star) <= 1e-8

    def test_activity_sets_attained_exactly(self):
        prob = generate_max_quad(5, 4, 2, 3, 1.0, 99)
        _, active_star, _ = prob.evaluate(prob.x_star)
        _, active_z, _ = prob.evaluate(prob.z)
        assert set(active_star) == set(prob.active_at_xstar)
        assert set(active_z) == set(prob.active_at_z)

    def test_activity_margins(self):
        prob = generate_max_quad(5, 4, 2, 2, 1.0, 42)
        for point, active in ((prob.x_star, prob.active_at_xstar),
                              (prob.z, prob.active_at_z)):
            vals = np.array([q.value(point) for q in prob.quadratics])
            m = vals.max()
            for j in range(prob.nf):
                if j not in active:
                    assert vals[j] <= m - ACTIVITY_MARGIN

    def test_prox_certificate(self):
        prob = generate_max_quad(4, 3, 2, 2, 1.5, 7)
        grads = [prob.quadratics[i].gradient(prob.x_star)
                 for i in prob.active_at_xstar]
        target = 1.5 * (prob.z - prob.x_star)
        assert dist_to_hull(target, grads) <= 1e-10

    def test_sparse_hessians(self):
        prob = generate_max_quad(30, 3, 2, 2, 1.0, 13, sparse=True)
        total = sum(np.count_nonzero(q.A) for q in prob.quadratics)
        entries = sum(q.A.size for q in prob.quadratics)
        assert total < 0.35 * entries
        check_problem(prob)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_seeds_pass_certificate(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 4, 6]))
        nf = int(rng.integers(1, 5))
        nfx = int(rng.integers(1, nf + 1))
        nfz = int(rng.integers(1, nf + 1))
        prob = generate_max_quad(n, nf, nfx, nfz, 1.0, seed)
        check_problem(prob)


class TestEvalMaxQuad:
    def test_single_quadratic_always_active(self):
        prob = generate_max_quad(3, 1, 1, 1, 1.0, 21)
        rng = np.random.default_rng(0)
        for _ in range(10):
            _, active, _ = prob.evaluate(rng.normal(size=3))
            assert set(active) == {0}

    def test_first_active_gradient(self):
        prob = generate_max_quad(4, 3, 2, 2, 1.0, 22)
        value, active, grad = prob.evaluate(prob.x_star)
        first = min(active)
        np.testing.assert_array_equal(
            grad, prob.quadratics[first].gradient(prob.x_star))


def evaluate_piece_by_piece(problem, x):
    """Reference for ``MaxQuadProblem.evaluate``: one ``Quadratic.value``
    per piece."""
    x = np.asarray(x, dtype=float)
    vals = np.array([q.value(x) for q in problem.quadratics])
    top = float(vals.max())
    active = tuple(int(i) for i in np.nonzero(vals == top)[0])
    return top, active, problem.quadratics[active[0]].gradient(x)


def evaluate_from_piece_values(problem, x):
    """Reference for ``MaxQuadProblem.evaluate``: the max over the full
    stacked ``piece_values``."""
    vals = problem.piece_values(x)
    top = float(vals.max())
    active = tuple(int(i) for i in np.nonzero(vals == top)[0])
    return top, active, problem.quadratics[active[0]].gradient(x)


def assert_matches_piece_values(problem, x):
    value, active, grad = problem.evaluate(x)
    ref_value, ref_active, ref_grad = evaluate_from_piece_values(problem, x)
    assert value == ref_value
    assert active == ref_active
    assert grad.tobytes() == ref_grad.tobytes()


def hand_built_problem(quads):
    n = quads[0].b.size
    return MaxQuadProblem(tuple(quads), np.zeros(n), 1.0, np.zeros(n),
                          (0,), (0,), seed=0)


class TestStackedEvaluate:
    """``evaluate`` agrees bitwise with a reference loop over the pieces'
    ``value`` and ``gradient``: value, active set and gradient, at random
    points and where pieces tie, on the path the problem's size selects
    and on the pruned path."""

    @staticmethod
    def assert_matches_loop(problem, seed=0, points=5):
        rng = np.random.default_rng(seed)
        xs = [problem.x_star, problem.z]
        xs += [problem.z + rng.normal(size=problem.n) for _ in range(points)]
        for x, min_size in itertools.product(
                xs, (problems.PRUNE_MIN_SIZE, 0)):
            with mock.patch.object(problems, "PRUNE_MIN_SIZE", min_size):
                value, active, grad = problem.evaluate(x)
                assert_matches_piece_values(problem, x)
            ref_value, ref_active, ref_grad = evaluate_piece_by_piece(problem, x)
            assert value == ref_value
            assert active == ref_active
            assert np.array_equal(grad, ref_grad)
            assert np.array_equal(problem.piece_values(x),
                                  [q.value(x) for q in problem.quadratics])

    def test_dense_n10(self):
        for seed in (1, 2):
            prob = generate_max_quad(10, 8, 4, 4, 1.0, seed)
            self.assert_matches_loop(prob, seed)
            # the designated pieces tie exactly at x_star and at z
            assert prob.evaluate(prob.x_star)[1] == prob.active_at_xstar
            assert prob.evaluate(prob.z)[1] == prob.active_at_z

    def test_sparse_n100_small_nf(self):
        prob = generate_max_quad(100, 4, 1, 1, 1.0, 3, sparse=True)
        self.assert_matches_loop(prob, 3)

    def test_json_round_trip(self):
        prob = generate_max_quad(6, 5, 3, 2, 1.0, 4)
        back = problem_from_dict(json.loads(json.dumps(problem_to_dict(prob))))
        self.assert_matches_loop(back, 4)
        x = back.z + 0.5
        assert back.evaluate(x)[0] == prob.evaluate(x)[0]

    def test_hand_built_mix(self):
        rng = np.random.default_rng(6)
        n = 7
        B = rng.normal(size=(n, n))
        A = B.T @ B
        b = rng.normal(size=n)
        quads = [Quadratic.plain(A, b, 0.5),
                 Quadratic(A, b, 0.5, np.zeros(n)),  # ties with piece 0
                 Quadratic(0.5 * A, -b, -1.0, rng.normal(size=n)),
                 Quadratic.plain(np.zeros((n, n)), b, 3.0)]
        prob = hand_built_problem(quads)
        self.assert_matches_loop(prob, 6, points=20)
        big = 100.0 * np.ones(n)
        assert prob.evaluate(big)[1] == (0, 1)

    def test_pieces_from_list_int_and_fortran_arrays(self):
        rng = np.random.default_rng(7)
        n = 40
        B = rng.integers(-3, 4, size=(n, n))
        A = B.T @ B  # integer array
        quads = [Quadratic(A.tolist(), rng.normal(size=n).tolist(), 0.0,
                           rng.normal(size=n)),
                 Quadratic(A, rng.integers(-2, 3, size=n), -0.5, np.zeros(n)),
                 Quadratic(np.asfortranarray(A.astype(float)),
                           rng.normal(size=n), 0.25, rng.normal(size=n))]
        self.assert_matches_loop(hand_built_problem(quads), 7, points=20)

    def test_generated_and_loaded_hessians_are_held_once(self):
        prob = generate_max_quad(6, 5, 3, 2, 1.0, 9)
        back = problem_from_dict(problem_to_dict(prob))
        for p in (prob, back):
            stack = p.quadratics[0].A.base
            assert stack.shape == (5, 6, 6)
            for i, q in enumerate(p.quadratics):
                assert q.A.base is stack
                assert np.shares_memory(q.A, stack[i])
        # a replaced problem keeps the same stack and the same pieces
        again = replace(prob, seed=10)
        assert all(a is b for a, b in zip(again.quadratics, prob.quadratics))

    def test_hand_built_pieces_are_copied_into_one_stack(self):
        rng = np.random.default_rng(11)
        A = np.eye(3)
        quads = [Quadratic.plain(A, rng.normal(size=3), 0.0),
                 Quadratic(2.0 * A, rng.normal(size=3), 1.0, rng.normal(size=3))]
        prob = hand_built_problem(quads)
        stack = prob.quadratics[0].A.base
        assert stack.shape == (2, 3, 3) and prob.quadratics[1].A.base is stack
        assert quads[0].A is A  # the given pieces are left as they were
        x = rng.normal(size=3)
        assert [q.value(x) for q in prob.quadratics] == [q.value(x) for q in quads]
        # the same pieces in another order are stacked again, in that order
        swapped = replace(prob, quadratics=prob.quadratics[::-1])
        assert swapped.quadratics[0].A.base is not stack
        assert swapped.evaluate(x)[0] == prob.evaluate(x)[0]
        with pytest.raises(ValueError):
            replace(prob, quadratics=())

    def test_replace_evaluates_the_new_pieces(self):
        prob = generate_max_quad(5, 3, 2, 2, 1.0, 8)
        x = prob.z + 1.0
        before = prob.evaluate(x)
        lowered = tuple(replace(q, c=q.c - 10.0) for q in prob.quadratics)
        moved = replace(prob, quadratics=lowered)
        assert moved.evaluate(x)[0] == evaluate_piece_by_piece(moved, x)[0]
        assert moved.evaluate(x)[0] < before[0]
        assert prob.evaluate(x)[0] == before[0]


@functools.lru_cache(maxsize=None)
def highdim_problem(nf, nf_xstar, seed):
    """An n=100 sparse problem of the benchmark's high-dimensional shapes."""
    return generate_max_quad(100, nf, nf_xstar, 1, 1.0, seed, sparse=True)


def candidates(problem, x):
    """The pieces the pruned path evaluates at x."""
    A, b, w, C = problem._pieces
    E = x - C
    row, col = E[:, None, :], E[:, :, None]
    picked = problem._candidate_values(E, row, col, (b @ col)[:, 0, 0])
    return np.arange(problem.nf) if picked is None else picked[0]


class TestPrunedEvaluate:
    """From ``PRUNE_MIN_SIZE`` Hessian entries up, ``evaluate`` computes only
    the pieces whose certified bound reaches the first evaluated piece's
    value; top, active set and gradient stay bitwise those of the full
    ``piece_values``."""

    def test_path_is_chosen_by_size(self):
        assert highdim_problem(34, 1, 1)._pieces[0].size >= problems.PRUNE_MIN_SIZE
        assert generate_max_quad(10, 10, 4, 4, 1.0, 1)._pieces[0].size \
            < problems.PRUNE_MIN_SIZE

    @given(shape=st.sampled_from([(34, 1), (34, 34), (100, 1), (100, 100)]),
           seed=st.integers(1, 2), direction=st.integers(0, 2**32 - 1),
           dist=st.floats(0.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_points_around_x_star(self, shape, seed, direction, dist):
        prob = highdim_problem(*shape, seed)
        d = np.random.default_rng(direction).normal(size=prob.n)
        assert_matches_piece_values(prob, prob.x_star + dist * d / np.linalg.norm(d))

    @pytest.mark.parametrize("shape", [(34, 34), (100, 100), (67, 1)])
    def test_designated_ties_at_x_star_and_z(self, shape):
        prob = highdim_problem(*shape, 1)
        for x, designated in ((prob.x_star, prob.active_at_xstar),
                              (prob.z, prob.active_at_z)):
            assert_matches_piece_values(prob, x)
            assert prob.evaluate(x)[1] == designated

    def test_pieces_are_dropped_near_x_star(self):
        prob = highdim_problem(100, 100, 1)
        rng = np.random.default_rng(3)
        sizes = [candidates(prob, prob.x_star + 0.1 * rng.normal(size=100)).size
                 for _ in range(10)]
        assert min(sizes) < prob.nf // 2

    @staticmethod
    def piece_valued(target, x, scale, rng):
        """A piece with its own centre near x, Hessian |scale| I (so e is an
        eigenvector and the curvature bound is tight), whose value at x
        rounds to target, or None if no offset w reaches it."""
        n = x.size
        piece = Quadratic(abs(scale) * np.eye(n), 1e-3 * rng.normal(size=n),
                          0.0, x + 1e-2 * rng.normal(size=n))
        base = piece.value(x)
        w = target - base
        for _ in range(20):
            w += target - (base + w)
        piece = replace(piece, c=float(w))
        return piece if piece.value(x) == target else None

    def test_pieces_at_and_one_ulp_below_the_top_are_kept(self, monkeypatch):
        monkeypatch.setattr(problems, "PRUNE_MIN_SIZE", 0)
        rng = np.random.default_rng(12)
        built = 0
        for scale in (1.0, 1e6, -3e-4) * 40:
            n = int(rng.integers(2, 9))
            B = rng.normal(size=(n, n))
            top_piece = Quadratic(abs(scale) * (B.T @ B), rng.normal(size=n),
                                  scale, rng.normal(size=n))
            x = rng.normal(size=n)
            top = top_piece.value(x)
            tie = self.piece_valued(top, x, scale, rng)
            near = self.piece_valued(np.nextafter(top, -np.inf), x, scale, rng)
            if tie is None or near is None:
                continue
            built += 1
            far = replace(top_piece, c=top_piece.c - 1e3 * abs(scale))
            prob = hand_built_problem([far, near, top_piece, tie])
            assert candidates(prob, x).tolist() == [1, 2, 3]
            assert prob.evaluate(x)[1] == (2, 3)
            assert_matches_piece_values(prob, x)
        assert built >= 100

    def test_not_exactly_symmetric_piece_is_never_dropped(self, monkeypatch):
        monkeypatch.setattr(problems, "PRUNE_MIN_SIZE", 0)
        A = np.eye(3)
        skew = A.copy()
        skew[0, 1] += 1e-14
        quads = [Quadratic.plain(A, np.zeros(3), 0.0),
                 Quadratic.plain(A, np.zeros(3), -1e3),
                 Quadratic.plain(skew, np.zeros(3), -1e3)]
        prob = hand_built_problem(quads)
        x = np.full(3, 0.5)
        assert candidates(prob, x).tolist() == [0, 2]
        assert_matches_piece_values(prob, x)

    def test_non_finite_point_keeps_every_piece(self):
        prob = highdim_problem(34, 1, 1)
        x = prob.x_star.copy()
        x[3] = np.inf
        with np.errstate(invalid="ignore"):
            assert candidates(prob, x).size == prob.nf

    def test_generation_calls_eigvalsh_as_before(self):
        # counts of the generator before the pruned path kept lam_max
        real = np.linalg.eigvalsh
        for args, calls in (((10, 8, 4, 4, 1.0, 20240), 11),
                            ((100, 34, 1, 1, 1.0, 20240), 34)):
            with mock.patch.object(np.linalg, "eigvalsh",
                                   side_effect=real) as spy:
                prob = generate_max_quad(*args, sparse=args[0] >= 100)
                assert spy.call_count == calls
                # the bound terms are made by the first evaluate, not set-up
                assert "_bound_terms" not in vars(prob)
                prob.evaluate(prob.z + 0.5)
                assert spy.call_count == calls


class TestNonFinitePoint:
    """At a point where the max is NaN no piece attains it; evaluate says
    so instead of failing on an empty active set."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_small_problem(self, bad):
        prob = generate_max_quad(3, 2, 1, 1, 1.0, 4)
        x = prob.z.copy()
        x[0] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="max is NaN"):
                prob.evaluate(x)

    def test_pruned_path(self):
        prob = highdim_problem(34, 1, 1)
        assert prob._pieces[0].size >= problems.PRUNE_MIN_SIZE
        x = prob.x_star.copy()
        x[3] = np.nan
        with pytest.raises(ValueError, match="max is NaN"):
            prob.evaluate(x)

    def test_finite_point_with_nan_values(self):
        # inf - inf in a piece value at a finite point
        prob = hand_built_problem([
            Quadratic.plain(np.eye(2), np.array([-1e308, 0.0]), 0.0),
            Quadratic.plain(np.eye(2), np.array([-1e308, 1.0]), 0.0)])
        x = np.array([1e300, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(prob.piece_values(x)).all()
            with pytest.raises(ValueError, match="max is NaN"):
                prob.evaluate(x)


class TestPointShape:
    """A point of another shape than (n,) is refused: it would broadcast
    against the centres and be evaluated at another point (on an n=10
    problem, 0.5 was evaluated as 0.5 * ones(10))."""

    @pytest.mark.parametrize("x", [np.array([0.5]), 0.5, np.zeros(11),
                                   np.zeros((1, 10)), np.zeros((10, 1))])
    def test_wrong_shape_raises(self, x):
        prob = generate_max_quad(10, 8, 4, 4, 1.0, 20240)
        q = prob.quadratics[0]
        for entry in (prob.evaluate, prob.piece_values, q.value, q.gradient):
            with pytest.raises(ValueError, match="shape"):
                entry(x)

    def test_lists_of_the_right_length_are_points(self):
        prob = generate_max_quad(3, 2, 1, 1, 1.0, 4)
        x = [0.1, -0.2, 0.3]
        assert prob.evaluate(x)[0] == prob.evaluate(np.array(x))[0]


class TestReferenceProx:
    def test_agrees_with_generated_ground_truth(self):
        for seed in (1, 2, 3):
            prob = generate_max_quad(4, 3, 2, 2, 1.0, seed)
            x = reference_prox(prob)
            assert np.linalg.norm(x - prob.x_star) <= 1e-6

    def test_single_quadratic_matches_linear_solve(self):
        prob = generate_max_quad(3, 1, 1, 1, 1.0, 88)
        x = reference_prox(prob)
        q = prob.quadratics[0]
        direct = np.linalg.solve(q.A + np.eye(3),
                                 prob.z + q.A @ q.center - q.b)
        assert np.linalg.norm(x - direct) <= 1e-6

    def test_detects_corrupted_ground_truth(self):
        prob = generate_max_quad(3, 2, 1, 1, 1.0, 33)
        bad = MaxQuadProblem(
            quadratics=prob.quadratics, z=prob.z, r=prob.r,
            x_star=prob.x_star + 1.0,
            active_at_xstar=prob.active_at_xstar,
            active_at_z=prob.active_at_z,
            seed=prob.seed,
            sparse=prob.sparse)
        with pytest.raises(ProblemCertificateError):
            reference_prox(bad)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        prob = generate_max_quad(4, 3, 2, 2, 1.0, 66)
        path = tmp_path / "prob.json"
        save_problem(prob, path)
        back = load_problem(path)
        np.testing.assert_array_equal(back.z, prob.z)
        np.testing.assert_array_equal(back.x_star, prob.x_star)
        assert back.active_at_xstar == prob.active_at_xstar
        assert back.active_at_z == prob.active_at_z
        assert back.r == prob.r
        assert back.seed == prob.seed
        for qa, qb in zip(back.quadratics, prob.quadratics):
            np.testing.assert_array_equal(qa.A, qb.A)
            np.testing.assert_array_equal(qa.b, qb.b)
            np.testing.assert_array_equal(qa.center, qb.center)
            assert qa.c == qb.c

    def test_loaded_problem_passes_certificate(self, tmp_path):
        prob = generate_max_quad(5, 3, 2, 2, 1.0, 67)
        path = tmp_path / "p.json"
        save_problem(prob, path)
        check_problem(load_problem(path))

    def test_dict_schema_self_describing(self):
        prob = generate_max_quad(2, 2, 1, 1, 1.0, 68)
        data = problem_to_dict(prob)
        assert data["format"] == "proxbundle-maxquad"
        assert data["version"] == 1
        assert json.loads(json.dumps(data)) == data

    def test_rejects_unknown_format(self):
        prob = generate_max_quad(2, 1, 1, 1, 1.0, 69)
        data = problem_to_dict(prob)
        data["format"] = "something-else"
        with pytest.raises(ValueError):
            problem_from_dict(data)

    def test_loads_dict_with_lipschitz_bound(self):
        # files written before the estimate was dropped carry the key
        prob = generate_max_quad(4, 3, 2, 2, 1.0, 70)
        data = problem_to_dict(prob)
        assert "lipschitz_bound" not in data
        back = problem_from_dict(dict(data, lipschitz_bound=12.5))
        assert instance_digest(back) == instance_digest(prob)
        check_problem(back)


def instance_digest(problem):
    """sha256 of an instance's z, x_star and every piece's A, b, c, center."""
    h = hashlib.sha256(problem.z.tobytes() + problem.x_star.tobytes())
    for q in problem.quadratics:
        h.update(q.A.tobytes() + q.b.tobytes() + np.float64(q.c).tobytes()
                 + q.center.tobytes())
    return h.hexdigest()


def generate_with_one_blas_thread(tmp_path, *args, **kwargs):
    """``generate_max_quad(*args, **kwargs)`` built in a subprocess with one
    BLAS thread, as ``perfbench/run.py`` builds it, and loaded back."""
    path = tmp_path / "instance.json"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(problems.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys; from proxbundle.problems import generate_max_quad, "
            "save_problem; save_problem(generate_max_quad(*eval(sys.argv[1]), "
            "**eval(sys.argv[2])), sys.argv[3])")
    subprocess.run([sys.executable, "-c", code, repr(args), repr(kwargs),
                    str(path)], env=env, check=True)
    return load_problem(path)


class TestPinnedInstances:
    """Generated instances are pinned by sha256 of their bytes: the
    generator's rng draws, in their order, and every float it computes.
    The pins assume IEEE double arithmetic in the same operation order.
    At n = 100 the Hessian products round differently with one BLAS thread
    than with several, so that instance is built with one, as the
    benchmark builds it, whatever the thread count of the test run."""

    @pytest.mark.parametrize("shape, seed, sparse, one_thread, digest", [
        ((10, 8, 4, 4), 5, False, False,
         "fcfe92c17b006b66dbd1ec839b5010213f35adac9b2a83d7229677863d038d9a"),
        ((100, 34, 1, 1), 2, True, True,
         "49090ed953a33b70fdd168a77affe5c88b0f38322ee22e31a794bdc901d7a1a6"),
    ], ids=["grow-n10", "sparse-n100"])
    def test_instance_bytes(self, shape, seed, sparse, one_thread, digest,
                            tmp_path):
        if one_thread:
            prob = generate_with_one_blas_thread(tmp_path, *shape, 1.0, seed,
                                                 sparse=sparse)
        else:
            prob = generate_max_quad(*shape, 1.0, seed, sparse=sparse)
        assert instance_digest(prob) == digest
