"""Tests for the max-of-quadratics generator and its certificates."""

import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxbundle import problems
from proxbundle.bench import BenchConfig, _problem_seed, trial_specs
from proxbundle.problems import (ACTIVITY_MARGIN, MaxQuadProblem,
                                 ProblemCertificateError, Quadratic,
                                 check_problem,
                                 generate_max_quad, load_problem,
                                 problem_from_dict, problem_to_dict,
                                 reference_prox, save_problem)
from proxbundle.qp import (QPConvergenceError, dist_to_hull,
                          minimize_simplex_qp)


def plain(A, b, c):
    """Quadratic 0.5 x'Ax + b'x + c (centred at the origin)."""
    A = np.asarray(A, dtype=float)
    return Quadratic(A, np.asarray(b, dtype=float), float(c),
                     np.zeros(A.shape[0]))


class TestQuadratic:
    def test_value_and_gradient(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        q = plain(A, np.array([1.0, -1.0]), 3.0)
        x = np.array([1.0, 2.0])
        # 0.5(2 + 16) + (1 - 2) + 3
        assert q.value(x) == 11.0
        np.testing.assert_array_equal(q.gradient(x), [3.0, 7.0])

    def test_checks_nothing(self):
        # a Quadratic takes any Hessian; the problem that holds it checks it
        asymmetric = plain([[1.0, 0.5], [0.0, 1.0]], np.zeros(2), 0.0)
        indefinite = plain([[-1.0, 0.0], [0.0, 1.0]], np.zeros(2), 0.0)
        assert asymmetric.value(np.ones(2)) == 1.25
        assert indefinite.value(np.ones(2)) == 0.0

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


def hand_built_problem(quads):
    """The problem whose pieces are ``quads``, stacked, with z = x_star = 0."""
    n = quads[0].b.size
    return MaxQuadProblem(np.stack([q.A for q in quads]),
                          np.stack([q.b for q in quads]),
                          np.array([q.c for q in quads]),
                          np.stack([q.center for q in quads]),
                          np.zeros(n), 1.0, np.zeros(n), (0,), (0,), seed=0)


class TestProblemChecks:
    """A problem checks its four stacks once, when it is built."""

    @staticmethod
    def stacks(nf=3, n=2):
        rng = np.random.default_rng(nf * 10 + n)
        B = rng.normal(size=(nf, n, n))
        return dict(A=B.transpose(0, 2, 1) @ B, b=rng.normal(size=(nf, n)),
                    c=rng.normal(size=nf), centers=rng.normal(size=(nf, n)),
                    z=np.zeros(n), r=1.0, x_star=np.zeros(n),
                    active_at_xstar=(0,), active_at_z=(0,), seed=0)

    def test_rejects_asymmetric(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            hand_built_problem([plain(np.eye(2), np.zeros(2), 0.0),
                                plain(A, np.zeros(2), 0.0)])

    def test_rejects_indefinite(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            hand_built_problem([plain(np.eye(2), np.zeros(2), 0.0),
                                plain(A, np.zeros(2), 0.0)])

    def test_symmetry_tolerance_is_relative_per_piece(self):
        big = np.eye(2) * 1e6
        big[0, 1] += 1e-7  # within 1e-12 (1 + 1e6)
        hand_built_problem([plain(big, np.zeros(2), 0.0)])
        small = np.eye(2)
        small[0, 1] += 1e-7
        with pytest.raises(ValueError, match="symmetric"):
            hand_built_problem([plain(big, np.zeros(2), 0.0),
                                plain(small, np.zeros(2), 0.0)])

    @pytest.mark.parametrize("name, shape", [
        ("A", (3, 2, 3)), ("A", (2, 2, 2)), ("b", (3, 3)), ("b", (2, 2)),
        ("centers", (3, 1)), ("c", (3, 1)), ("c", (1,)), ("c", ())])
    def test_rejects_mismatched_shapes(self, name, shape):
        # a one-element c (or a scalar) would broadcast against three pieces
        stacks = self.stacks()
        stacks[name] = np.ones(shape)
        with pytest.raises(ValueError, match="stacks disagree"):
            MaxQuadProblem(**stacks)

    def test_rejects_zero_pieces(self):
        stacks = self.stacks()
        stacks.update(A=np.zeros((0, 2, 2)), b=np.zeros((0, 2)),
                      c=np.zeros(0), centers=np.zeros((0, 2)))
        with pytest.raises(ValueError, match="at least one piece"):
            MaxQuadProblem(**stacks)

    def test_stores_c_ordered_float_stacks(self):
        stacks = self.stacks()
        given = dict(stacks, A=np.asfortranarray(stacks["A"]),
                     b=stacks["b"].tolist(), c=[1, 2, 3])
        prob = MaxQuadProblem(**given)
        for name in ("A", "b", "c", "centers"):
            stack = getattr(prob, name)
            assert stack.dtype == np.float64 and stack.flags.c_contiguous
        np.testing.assert_array_equal(prob.A, stacks["A"])
        assert prob.c.tolist() == [1.0, 2.0, 3.0]
        # stacks that are already C-ordered float are kept, not copied
        prob = MaxQuadProblem(**stacks)
        assert all(getattr(prob, name) is stacks[name]
                   for name in ("A", "b", "c", "centers"))

    def test_pieces_are_views_with_float_offsets(self):
        prob = MaxQuadProblem(**self.stacks())
        assert prob.quadratics is prob.quadratics  # built once
        for i, q in enumerate(prob.quadratics):
            assert q.A.base is prob.A and np.shares_memory(q.A, prob.A[i])
            assert np.shares_memory(q.b, prob.b[i])
            assert np.shares_memory(q.center, prob.centers[i])
            assert type(q.c) is float and q.c == prob.c[i]


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
        quads = [plain(A, b, 0.5),
                 Quadratic(A, b, 0.5, np.zeros(n)),  # ties with piece 0
                 Quadratic(0.5 * A, -b, -1.0, rng.normal(size=n)),
                 plain(np.zeros((n, n)), b, 3.0)]
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
            assert p.A.shape == (5, 6, 6)
            for i, q in enumerate(p.quadratics):
                assert q.A.base is p.A
                assert np.shares_memory(q.A, p.A[i])
        # a replaced problem keeps the same stacks
        again = replace(prob, seed=10)
        assert all(getattr(again, name) is getattr(prob, name)
                   for name in ("A", "b", "c", "centers"))

    def test_hand_built_pieces_are_copied_into_one_stack(self):
        rng = np.random.default_rng(11)
        A = np.eye(3)
        quads = [plain(A, rng.normal(size=3), 0.0),
                 Quadratic(2.0 * A, rng.normal(size=3), 1.0, rng.normal(size=3))]
        prob = hand_built_problem(quads)
        assert prob.A.shape == (2, 3, 3) and prob.quadratics[1].A.base is prob.A
        assert quads[0].A is A  # the given pieces are left as they were
        x = rng.normal(size=3)
        assert [q.value(x) for q in prob.quadratics] == [q.value(x) for q in quads]
        # the same pieces in another order are stacked again, in that order
        swapped = hand_built_problem(quads[::-1])
        assert swapped.evaluate(x)[0] == prob.evaluate(x)[0]
        assert swapped.evaluate(x)[1] == tuple(1 - i for i in prob.evaluate(x)[1])

    def test_replace_evaluates_the_new_pieces(self):
        prob = generate_max_quad(5, 3, 2, 2, 1.0, 8)
        x = prob.z + 1.0
        before = prob.evaluate(x)
        moved = replace(prob, c=prob.c - 10.0)
        assert moved.evaluate(x)[0] == evaluate_piece_by_piece(moved, x)[0]
        assert moved.evaluate(x)[0] < before[0]
        assert prob.evaluate(x)[0] == before[0]


@functools.lru_cache(maxsize=None)
def highdim_problem(nf, nf_xstar, seed):
    """An n=100 sparse problem of the benchmark's high-dimensional shapes."""
    return generate_max_quad(100, nf, nf_xstar, 1, 1.0, seed, sparse=True)


def pieces_at(problem, x):
    """The problem's pieces at x, as ``evaluate`` computes them."""
    _, b, w, C = problem._pieces
    return problems._PiecesAt(b, w, C, x)


def candidates(problem, x):
    """The pieces the pruned path evaluates at x."""
    cand, _ = problem._candidate_values(pieces_at(problem, x))
    return np.arange(problem.nf) if cand is None else cand


class TestPrunedEvaluate:
    """From ``PRUNE_MIN_SIZE`` Hessian entries up, ``evaluate`` computes only
    the pieces whose certified bound reaches the first evaluated piece's
    value; top, active set and gradient stay bitwise those of the full
    ``piece_values``."""

    def test_path_is_chosen_by_size(self):
        assert highdim_problem(34, 1, 1).A.size >= problems.PRUNE_MIN_SIZE
        assert generate_max_quad(10, 10, 4, 4, 1.0, 1).A.size \
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

    @pytest.mark.parametrize("top", [0, 2, 4, None])
    def test_nothing_droppable_reuses_the_first_piece(self, monkeypatch, top):
        # with every bound forced to infinity no piece can be dropped; the
        # values come from top0's product and the rest on the same views,
        # bitwise the full piece_values, whichever piece is top0
        monkeypatch.setattr(problems, "PRUNE_MIN_SIZE", 0)
        monkeypatch.setattr(MaxQuadProblem, "_bound_terms", property(
            lambda self: (np.full(self.nf, np.inf), np.zeros(self.nf))))
        rng = np.random.default_rng(7)
        if top is None:
            prob = highdim_problem(34, 1, 1)
        else:
            quads = []
            for i in range(5):
                B = rng.normal(size=(6, 6))
                quads.append(Quadratic(B.T @ B, rng.normal(size=6),
                                       10.0 if i == top else 0.0,
                                       rng.normal(size=6)))
            prob = hand_built_problem(quads)
        for _ in range(5):
            x = prob.x_star + rng.normal(size=prob.n)
            at = pieces_at(prob, x)
            if top is not None:
                assert int((at.linear + at.w).argmax()) == top
            cand, vals = prob._candidate_values(at)
            assert cand is None
            assert vals.tobytes() == prob.piece_values(x).tobytes()
            assert_matches_piece_values(prob, x)

    def test_each_candidate_is_evaluated_once(self, monkeypatch):
        # top0's piece is evaluated alone and its value stands in the run
        # that holds it; every other candidate is in exactly one run, and
        # a dropped piece in none
        prob = highdim_problem(34, 1, 1)
        runs, real = [], problems._PiecesAt.run

        def spy(self, A, lo, hi):
            runs.append((lo, hi))
            return real(self, A, lo, hi)

        monkeypatch.setattr(problems._PiecesAt, "run", spy)
        rng = np.random.default_rng(4)
        points = [prob.x_star + dist * rng.normal(size=prob.n)
                  for dist in (0.0, 0.003, 0.01, 0.03, 0.1, 3.0)
                  for _ in range(3)]
        points.append(np.full(prob.n, np.inf))  # top0 not finite
        dropped = 0
        for x in points:
            runs.clear()
            with np.errstate(invalid="ignore"):
                cand, vals = prob._candidate_values(pieces_at(prob, x))
                full = prob.piece_values(x)
            cand = np.arange(prob.nf) if cand is None else cand
            evaluated = np.zeros(prob.nf, dtype=int)
            for lo, hi in runs:
                evaluated[lo:hi] += 1
            assert evaluated.tolist() == np.isin(np.arange(prob.nf),
                                                 cand).astype(int).tolist()
            assert vals.tobytes() == full[cand].tobytes()
            dropped += cand.size < prob.nf
        assert dropped >= 6

    def test_not_exactly_symmetric_piece_is_never_dropped(self, monkeypatch):
        monkeypatch.setattr(problems, "PRUNE_MIN_SIZE", 0)
        A = np.eye(3)
        skew = A.copy()
        skew[0, 1] += 1e-14
        quads = [plain(A, np.zeros(3), 0.0),
                 plain(A, np.zeros(3), -1e3),
                 plain(skew, np.zeros(3), -1e3)]
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

    def test_building_calls_eigvalsh_once(self):
        # set-up and loading check the accepted stack with one eigvalsh
        # call, whose rows are bitwise the per-piece calls; the pruned path
        # adds none
        real = np.linalg.eigvalsh
        for args in ((10, 8, 4, 4, 1.0, 20240), (100, 34, 1, 1, 1.0, 20240)):
            with mock.patch.object(np.linalg, "eigvalsh",
                                   side_effect=real) as spy:
                prob = generate_max_quad(*args, sparse=args[0] >= 100)
                assert spy.call_count == 1
                assert spy.call_args.args[0] is prob.A
                # the bound terms are made by the first evaluate, not set-up
                assert "_bound_terms" not in vars(prob)
                prob.evaluate(prob.z + 0.5)
                assert spy.call_count == 1
                problem_from_dict(problem_to_dict(prob))
                assert spy.call_count == 2
            assert prob._eig_max.tobytes() == np.array(
                [real(A)[-1] for A in prob.A]).tobytes()


class TestGeneratorBuildsOnce:
    def test_rejected_attempts_build_no_pieces(self):
        # this shape and seed needs several attempts; only the accepted one
        # builds a problem, from its stacks, and no attempt builds a
        # Quadratic: the nf views are made once, when check_problem reads
        # a piece
        built, real = [], problems._try_generate

        def attempt(*args):
            prob = real(*args)
            built.append(prob is not None and "quadratics" in vars(prob))
            return prob

        with mock.patch.object(problems, "_try_generate",
                               side_effect=attempt) as attempts, \
                mock.patch.object(Quadratic, "__post_init__", autospec=True,
                                  side_effect=Quadratic.__post_init__) as quads, \
                mock.patch.object(MaxQuadProblem, "__post_init__", autospec=True,
                                  side_effect=MaxQuadProblem.__post_init__) as probs:
            prob = generate_max_quad(4, 4, 2, 4, 1.0, 3)
        assert attempts.call_count >= 3 and not any(built)
        assert quads.call_count == prob.nf == 4
        assert probs.call_count == 1
        assert prob.seed == 3

    def test_loader_builds_no_pieces(self):
        data = problem_to_dict(generate_max_quad(4, 3, 2, 2, 1.0, 3))
        with mock.patch.object(problems, "check_problem"), \
                mock.patch.object(Quadratic, "__post_init__", autospec=True,
                                  side_effect=Quadratic.__post_init__) as quads:
            back = problem_from_dict(data)
        assert quads.call_count == 0 and "quadratics" not in vars(back)


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
        assert prob.A.size >= problems.PRUNE_MIN_SIZE
        x = prob.x_star.copy()
        x[3] = np.nan
        with pytest.raises(ValueError, match="max is NaN"):
            prob.evaluate(x)

    def test_finite_point_with_nan_values(self):
        # inf - inf in a piece value at a finite point
        prob = hand_built_problem([
            plain(np.eye(2), np.array([-1e308, 0.0]), 0.0),
            plain(np.eye(2), np.array([-1e308, 1.0]), 0.0)])
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
        bad = replace(prob, x_star=prob.x_star + 1.0)
        with pytest.raises(ProblemCertificateError):
            reference_prox(bad)


def reference_prox_from_sites(problem):
    """``reference_prox``'s loop as it was when it kept every site and value
    and rebuilt every e per iteration (the ladder's warnings and the
    ground-truth check left out)."""
    z, r = problem.z, problem.r
    sites, vals, grads = [], [], []
    x = z
    f_x, _, g_x = problem.evaluate(x)
    lam = None
    for _ in range(problems.REFERENCE_MAX_ITER):
        sites.append(x)
        vals.append(f_x)
        grads.append(g_x)
        G = np.array(grads)
        e = np.array(vals) + np.einsum("ij,ij->i", G,
                                       z[None, :] - np.array(sites))
        Q = (G @ G.T) / r
        warm = None if lam is None else np.append(lam, 1.0 / (lam.size + 1))
        base_tol = 1e-12 * (1.0 + np.abs(e).max())
        for mult in (1.0, 1e2, 1e4):
            try:
                lam, _ = minimize_simplex_qp(Q, -e, lam0=warm,
                                             tol=mult * base_tol)
                break
            except QPConvergenceError:
                if mult == 1e4:
                    raise
        x_next = z - (lam @ G) / r
        phi = float((e + G @ (x_next - z)).max())
        f_x, _, g_x = problem.evaluate(x_next)
        x = x_next
        if np.sqrt(max(f_x - phi, 0.0) / r) <= problems.REFERENCE_TOL:
            break
    return problems._newton_polish(problem, x)


class TestReferenceProxPlanes:
    """``reference_prox`` holds its model as (e, G) and computes each new
    plane's value at z once; its points are bitwise those of the loop that
    kept every site."""

    @pytest.mark.parametrize("shape, seed", [
        ((4, 3, 2, 2), 1000), ((10, 8, 4, 4), 1001), ((10, 10, 10, 10), 1002)])
    def test_matches_the_loop_over_sites(self, shape, seed):
        prob = generate_max_quad(*shape, 1.0, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert (reference_prox(prob).tobytes()
                    == reference_prox_from_sites(prob).tobytes())


class TestReferenceProxLadder:
    """A QP that meets only a loosened KKT target is reported, not hidden."""

    @staticmethod
    def failing_qp(monkeypatch, fails):
        """Make the first QP call raise ``fails`` times before it solves."""
        original = problems.minimize_simplex_qp
        left = [fails]

        def qp(*args, **kwargs):
            if left[0]:
                left[0] -= 1
                raise QPConvergenceError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(problems, "minimize_simplex_qp", qp)

    @staticmethod
    def problem():
        return generate_max_quad(4, 3, 2, 2, 1.0, 1)

    def test_strict_target_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference_prox(self.problem())

    @pytest.mark.parametrize("fails, mult", [(1, "100"), (2, "10000")])
    def test_loosened_target_warns(self, monkeypatch, fails, mult):
        prob = self.problem()
        strict = reference_prox(prob)
        self.failing_qp(monkeypatch, fails)
        with pytest.warns(RuntimeWarning) as record:
            x = reference_prox(prob)
        (warned,) = record
        assert "m=1 " in str(warned.message)
        assert f" {mult}x looser" in str(warned.message)
        # the first QP has one plane, whose weight is 1 at any target
        assert x.tobytes() == strict.tobytes()

    def test_last_rung_failure_propagates(self, monkeypatch):
        self.failing_qp(monkeypatch, 3)
        with pytest.raises(QPConvergenceError):
            reference_prox(self.problem())


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

    def test_bench_slice_n10(self):
        # every instance of the n=10 bench slice at master seed 1 (the
        # maxquad-grow seed-1 set): retries, pins and pushes, with each
        # problem's seed and active sets
        config = BenchConfig(ns=(10,), reps=1, master_seed=1)
        h = hashlib.sha256()
        for shape in sorted({spec[:5] for spec in trial_specs(config)}):
            prob = generate_max_quad(*shape[:4], config.r,
                                     _problem_seed(config, *shape))
            h.update(repr((shape, prob.seed, prob.active_at_xstar,
                           prob.active_at_z, [repr(q.c) for q in
                                              prob.quadratics])).encode())
            h.update(instance_digest(prob).encode())
        assert h.hexdigest() == (
            "457cf3e1a663b26ae06afcd6a94196e3f4d39be071ab293d4b4e91660fd56cb4")
