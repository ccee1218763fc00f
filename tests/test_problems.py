"""Tests for the max-of-quadratics generator and its certificates."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def hand_built_problem(quads):
    n = quads[0].b.size
    return MaxQuadProblem(tuple(quads), np.zeros(n), 1.0, np.zeros(n),
                          (0,), (0,), seed=0)


class TestStackedEvaluate:
    """``evaluate`` agrees bitwise with a reference loop over the pieces'
    ``value`` and ``gradient``: value, active set and gradient, at random
    points and where pieces tie."""

    @staticmethod
    def assert_matches_loop(problem, seed=0, points=5):
        rng = np.random.default_rng(seed)
        xs = [problem.x_star, problem.z]
        xs += [problem.z + rng.normal(size=problem.n) for _ in range(points)]
        for x in xs:
            value, active, grad = problem.evaluate(x)
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


class TestPinnedInstances:
    """Generated instances are pinned by sha256 of their bytes: the
    generator's rng draws, in their order, and every float it computes.
    The pins assume IEEE double arithmetic in the same operation order."""

    @pytest.mark.parametrize("shape, seed, sparse, digest", [
        ((10, 8, 4, 4), 5, False,
         "fcfe92c17b006b66dbd1ec839b5010213f35adac9b2a83d7229677863d038d9a"),
        ((100, 34, 1, 1), 2, True,
         "f1cf22996056c799c7aa0408fa5fd2881d2a3233a7577beafcd906fe91f6dabc"),
    ], ids=["grow-n10", "sparse-n100"])
    def test_instance_bytes(self, shape, seed, sparse, digest):
        prob = generate_max_quad(*shape, 1.0, seed, sparse=sparse)
        assert instance_digest(prob) == digest
