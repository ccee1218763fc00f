"""Tests for the simplex-QP machinery and the model prox solver."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxbundle import qp
from proxbundle.model import Bundle, BundleElement
from proxbundle.qp import (QPConvergenceError, dist_to_hull,
                           minimize_simplex_qp, project_simplex,
                           prox_of_model)


def make_bundle(planes, z, r=1.0):
    elements = [BundleElement(i, np.asarray(site, float), float(val),
                              np.asarray(g, float))
                for i, (site, val, g) in enumerate(planes)]
    return Bundle(elements, np.asarray(z, float), r)


class TestProjectSimplex:
    def test_already_on_simplex_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-15)

    def test_projects_to_vertex(self):
        out = project_simplex(np.array([10.0, 0.0, -3.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([np.nan, 0.0]))

    def test_non_finite_input_raises_before_any_arithmetic(self):
        # the check reads the ends of the sorted copy, so a non-finite entry
        # anywhere raises without a warning (a sum of inf and -inf would
        # warn)
        bads = [np.nan, -np.nan, np.inf, -np.inf]
        inputs = [[b] for b in bads]
        inputs += [[b, 1.0, -2.0][::step] for b in bads for step in (1, -1)]
        inputs += [[np.inf, -np.inf], [-np.inf, np.nan, np.inf],
                   [1e308, np.inf]]
        for v in inputs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite input"):
                    project_simplex(np.array(v))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("v, want", [
        ([1e17, 0.0], [1.0, 0.0]),
        ([1e16, 3.0, -2.0], [1.0, 0.0, 0.0]),
        ([-1e17, -1e17], [0.5, 0.5]),
        ([1e308, -1e308], [1.0, 0.0]),
    ])
    def test_large_finite_input(self, v, want):
        # u[0] - 1 rounds to u[0] here, so no threshold index qualifies
        # without the shift to a top entry of 0
        np.testing.assert_array_equal(project_simplex(np.array(v)), want)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_output_feasible_and_optimal(self, vals):
        v = np.array(vals)
        out = project_simplex(v)
        assert abs(out.sum() - 1.0) < 1e-12
        assert out.min() >= 0.0
        # optimality: no feasible direction improves the distance
        rng = np.random.default_rng(0)
        for _ in range(20):
            other = project_simplex(rng.normal(size=v.size) * 10)
            assert (np.linalg.norm(out - v)
                    <= np.linalg.norm(other - v) + 1e-10)


class TestMinimizeSimplexQP:
    def test_single_variable(self):
        lam, resid = minimize_simplex_qp(np.array([[2.0]]), np.array([1.0]))
        np.testing.assert_allclose(lam, [1.0])
        assert resid == 0.0

    def test_zero_matrix_picks_smallest_linear_term(self):
        lam, _ = minimize_simplex_qp(np.zeros((3, 3)),
                                     np.array([2.0, -1.0, 0.5]))
        np.testing.assert_allclose(lam, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_matrix_of_either_sign_skips_the_polish(self, zero,
                                                          monkeypatch):
        def no_polish(*args):
            raise AssertionError("the zero-Q branch was not taken")

        monkeypatch.setattr(qp, "_polish", no_polish)
        Q = np.full((4, 4), zero)
        if zero == 0.0:
            Q[1, 2] = Q[3, 3] = -0.0  # a mix of signs is zero too
        lam, resid = minimize_simplex_qp(Q, np.array([2.0, 0.5, -1.0, 0.5]))
        assert lam.tobytes() == np.array([0.0, 0.0, 1.0, 0.0]).tobytes()
        assert resid == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     1.01 * qp._Q_LIMIT, -1.01 * qp._Q_LIMIT])
    @pytest.mark.parametrize("where", [(0, 0), (3, 3), (1, 2), (3, 0)])
    def test_rejects_each_bad_Q_entry(self, bad, where):
        # max|Q| is taken from Q's min and max; a bad entry anywhere,
        # alone or next to huge finite ones, is refused
        Q = np.eye(4)
        Q[where] = bad
        with pytest.raises(ValueError):
            minimize_simplex_qp(Q, np.ones(4))
        Q = np.full((4, 4), -qp._Q_LIMIT)
        Q[where] = bad
        with pytest.raises(ValueError):
            minimize_simplex_qp(Q, np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     1.01 * qp._Q_LIMIT, -1.01 * qp._Q_LIMIT])
    @pytest.mark.parametrize("where", [0, 3])
    def test_rejects_each_bad_q_entry(self, bad, where):
        q = np.ones(4)
        q[where] = bad
        with pytest.raises(ValueError):
            minimize_simplex_qp(np.eye(4), q)

    def test_accepts_entries_at_the_limit(self):
        for sign in (1.0, -1.0):
            Q = np.zeros((2, 2))
            Q[0, 0] = sign * qp._Q_LIMIT
            lam, _ = minimize_simplex_qp(Q, np.array([0.0, sign * qp._Q_LIMIT]))
            assert lam.sum() == 1.0

    def test_interior_optimum(self):
        # min 0.5(l1^2 + l2^2) on the simplex -> (0.5, 0.5)
        lam, _ = minimize_simplex_qp(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-10)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.integers(2, 5)
            B = rng.normal(size=(m, m))
            Q = B @ B.T
            q = rng.normal(size=m)
            lam, _ = minimize_simplex_qp(Q, q, tol=1e-12)
            obj = 0.5 * lam @ Q @ lam + q @ lam
            best = min(
                0.5 * w @ Q @ w + q @ w
                for w in _brute_force_candidates(Q, q))
            assert obj <= best + 1e-8

    def test_matches_brute_force_on_degenerate_instances(self):
        # rank-deficient Q, equal rows of G and warm starts: the QP's
        # objective is that of the best face, to 1e-12 relative
        rng = np.random.default_rng(41)
        for trial in range(120):
            m = int(rng.integers(2, 5))
            if trial % 3 == 0:
                G = rng.normal(size=(m, int(rng.integers(1, m))))
            else:
                G = rng.normal(size=(m, 3))
                i, j = rng.choice(m, size=2, replace=False)
                G[j] = G[i]
            Q = G @ G.T
            q = rng.normal(size=m)
            if trial % 3 == 2:
                q[j] = q[i]  # equal planes: a tie between the equal rows
            lam0 = rng.random(m) if trial % 2 else None
            lam, _ = minimize_simplex_qp(Q, q, lam0=lam0, tol=1e-12)
            obj = 0.5 * lam @ Q @ lam + q @ lam
            best = min(0.5 * w @ Q @ w + q @ w
                       for w in _brute_force_candidates(Q, q))
            assert obj <= best + 1e-12 * (1.0 + abs(best))

    def test_warm_start_agrees_with_cold_start(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(4, 4))
        Q = B @ B.T
        q = rng.normal(size=4)
        cold, _ = minimize_simplex_qp(Q, q)
        warm, _ = minimize_simplex_qp(Q, q, lam0=np.array([0.7, 0.1, 0.1, 0.1]))
        obj = lambda lam: 0.5 * lam @ Q @ lam + q @ lam
        assert abs(obj(cold) - obj(warm)) < 1e-9

    def test_returned_residual_is_recomputable(self):
        # the residual _polish returns is the one finished() would compute
        rng = np.random.default_rng(8)
        for m in (2, 5, 12, 40):
            G = rng.normal(size=(m, 4))
            Q = G @ G.T
            q = rng.normal(size=m)
            lam, resid = minimize_simplex_qp(Q, q, tol=1e-10)
            assert resid == qp._kkt_residual(lam, Q @ lam + q)

    def test_raises_when_unreachable(self):
        # an ill-conditioned instance with an interior optimum cannot reach
        # a 1e-30 residual in double precision, so the cap must trip
        B = np.array([[1e4, 1.0], [1e4, -1.0], [9999.0, 0.5]])
        Q = B @ B.T
        q = 1.0 - Q @ np.array([0.3, 0.3, 0.4])
        with pytest.raises(QPConvergenceError):
            minimize_simplex_qp(Q, q, tol=1e-30, max_iter=200)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, np.nan])
    def test_rejects_non_positive_tol(self, tol):
        # no residual meets a NaN tol, so the loop would run to the cap
        with pytest.raises(ValueError, match="tol must be positive"):
            minimize_simplex_qp(np.eye(2), np.array([0.0, 1.0]), tol=tol,
                                max_iter=200)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_Q(self, bad):
        # gelsd can spin forever on a NaN entry, so the QP refuses it at entry
        Q = np.eye(3)
        Q[1, 2] = Q[2, 1] = bad
        with pytest.raises(ValueError):
            minimize_simplex_qp(Q, np.ones(3))
        with pytest.raises(ValueError):
            minimize_simplex_qp(np.array([[bad]]), np.ones(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_q(self, bad):
        q = np.ones(3)
        q[1] = bad
        with pytest.raises(ValueError):
            minimize_simplex_qp(np.eye(3), q)

    def test_projects_large_warm_start(self):
        lam, resid = minimize_simplex_qp(np.eye(2), np.zeros(2),
                                         lam0=np.array([1e17, 0.0]))
        np.testing.assert_allclose(lam, [0.5, 0.5])
        assert resid <= 1e-12

    def test_rejects_q_whose_face_differences_overflow(self):
        # finite, but the face system's right-hand side, a difference of
        # entries of q, would overflow
        with pytest.raises(ValueError):
            minimize_simplex_qp(np.eye(3), np.array([1e308, -1e308, 0.0]))

    def test_rejects_Q_whose_face_differences_overflow(self):
        # finite, but the face system's second differences would overflow
        Q = 1e308 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0]])
        assert np.isfinite(Q).all()
        with pytest.raises(ValueError):
            minimize_simplex_qp(Q, np.array([0.0, 1.0, 2.0]))


class TestLazyStepSize:
    """The power iteration runs only once the projected-gradient loop starts."""

    @pytest.fixture
    def spectral_calls(self, monkeypatch):
        calls = []
        original = qp._spectral_bound

        def counted(Q, *args, **kwargs):
            calls.append(Q.shape)
            return original(Q, *args, **kwargs)

        monkeypatch.setattr(qp, "_spectral_bound", counted)
        return calls

    def test_polished_solve_skips_power_iteration(self, spectral_calls):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(4, 4))
        Q = B @ B.T
        q = rng.normal(size=4)
        lam0 = np.full(4, 0.25)
        # the start is not optimal, so _polish is what finishes the solve
        assert qp._kkt_residual(lam0, Q @ lam0 + q) > 1e-12
        lam, resid = minimize_simplex_qp(Q, q, lam0=lam0)
        assert resid <= 1e-12
        assert resid == qp._kkt_residual(lam, Q @ lam + q)
        assert spectral_calls == []

    def test_unreachable_tolerance_computes_step_once(self, spectral_calls):
        B = np.array([[1e4, 1.0], [1e4, -1.0], [9999.0, 0.5]])
        Q = B @ B.T
        q = 1.0 - Q @ np.array([0.3, 0.3, 0.4])
        with pytest.raises(QPConvergenceError):
            minimize_simplex_qp(Q, q, tol=1e-30, max_iter=200)
        assert spectral_calls == [(3, 3)]


def _refined_with_basis(solve, H, g, y):
    rho = H @ y + g
    for _ in range(3):
        if not np.all(np.isfinite(rho)):
            break
        y_ref = y + solve(H, -rho)
        rho_ref = H @ y_ref + g
        if np.linalg.norm(rho_ref) >= np.linalg.norm(rho):
            break
        y, rho = y_ref, rho_ref
    return y, rho


def _face_minimizer_with_basis(Q, q, face, lu=True):
    """Reference: the face minimizer with the null-space basis N formed and
    applied through matrix products, LU first on faces of three or more
    planes (certified with the probe p = (1/2, ..., 1/k)), least
    squares where LU is singular or not certified.  With ``lu=False`` it
    is the least-squares minimizer alone, which every face used before the
    LU branch came in."""
    k = len(face)
    if k == 1:
        return np.ones(1), None
    Qff = Q[np.ix_(face, face)]
    qf = q[face]
    lam0 = np.full(k, 1.0 / k)
    N = np.zeros((k, k - 1))
    idx = np.arange(k - 1)
    N[idx, idx] = 1.0
    N[idx + 1, idx] = -1.0
    H = N.T @ Qff @ N
    g = N.T @ (Qff @ lam0 + qf)
    if lu and k > 2:
        try:
            y = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            pass
        else:
            y, rho = _refined_with_basis(np.linalg.solve, H, g, y)
            probe = 1.0 / np.arange(2.0, k + 1.0)
            w = np.linalg.solve(H, probe)
            if (np.linalg.norm(rho) <= 1e-12 * (1.0 + np.linalg.norm(g))
                    and np.abs(H).max() * np.abs(y).max()
                    <= 1e8 * np.abs(g).max()
                    and np.abs(H).max() * np.abs(w).max()
                    <= 1e8 * probe.max()):
                return lam0 + N @ y, None

    def lstsq(H, b):
        return np.linalg.lstsq(H, b, rcond=None)[0]

    y, rho = _refined_with_basis(lstsq, H, g, lstsq(H, -g))
    if np.linalg.norm(rho) > 1e-9 * (1.0 + np.linalg.norm(g)):
        return None, N @ (-rho)
    return lam0 + N @ y, None


class TestFaceMinimizer:
    """The first-difference face minimizer is bitwise the N-matrix one."""

    @staticmethod
    def assert_same(Q, q, face):
        got = qp._face_minimizer(Q, q, face)
        want = _face_minimizer_with_basis(Q, q, face)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)
        return "weights" if got[1] is None else "descent"

    def test_random_faces(self):
        rng = np.random.default_rng(11)
        branches = []
        for k in range(2, 13):
            for trial in range(6):
                m = k + int(rng.integers(0, 4))
                rank = int(rng.integers(1, 6))
                G = rng.normal(size=(m, rank)) * 10.0 ** rng.integers(-3, 4)
                Q = G @ G.T
                q = rng.normal(size=m)
                if trial % 2:
                    # a q in the span of the face block: a consistent system
                    q = -Q @ rng.random(m)
                face = sorted(rng.choice(m, size=k, replace=False).tolist())
                branches.append(self.assert_same(Q, q, face))
        assert {"weights", "descent"} <= set(branches)

    def test_duplicate_rows(self):
        # two equal subgradients make the face block singular; with equal
        # offsets the face system is consistent, with unequal ones the face
        # problem is unbounded below along their difference
        G = np.array([[1.0, 2.0], [1.0, 2.0], [-3.0, 0.5], [0.2, -1.0]])
        Q = G @ G.T
        q = np.array([0.5, 0.5, -0.25, 1.0])
        assert self.assert_same(Q, q, [0, 1, 2]) == "weights"
        assert self.assert_same(Q, q, [0, 1, 2, 3]) == "weights"
        q[1] = 0.75
        assert self.assert_same(Q, q, [0, 1]) == "descent"
        assert self.assert_same(Q, q, [0, 1, 3]) == "descent"

    def test_unbounded_face(self):
        # a zero face block with a non-constant linear term
        Q = np.zeros((5, 5))
        q = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        for face in ([0, 1], [1, 2, 4], [0, 1, 2, 3, 4]):
            assert self.assert_same(Q, q, face) == "descent"

    def test_exact_first_solve_is_not_refined(self, monkeypatch):
        # a refinement is kept only when its residual norm is strictly
        # smaller, so after a first solve with a zero residual none is made
        calls = []
        for name in ("_solve1", "_lstsq"):
            def counted(H, rhs, original=getattr(qp, name), name=name):
                calls.append((name, H.shape))
                return original(H, rhs)

            monkeypatch.setattr(qp, name, counted)
        B = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -2.0]])
        q = np.array([-2.0, 0.0, -1.0])
        assert self.assert_same(B @ B.T, q, [0, 1, 2]) == "weights"
        calls.clear()
        np.testing.assert_array_equal(
            qp._face_minimizer(B @ B.T, q, [0, 1, 2])[0], [1.0, 0.0, 0.0])
        # the solve, then the probe's solve that certifies it
        assert calls == [("_solve1", (2, 2))] * 2
        # a two-vertex face is solved in closed form, with neither solver
        calls.clear()
        Q = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = np.array([1.0, -1.0])
        assert self.assert_same(Q, q, [0, 1]) == "weights"
        np.testing.assert_array_equal(qp._face_minimizer(Q, q, [0, 1])[0],
                                      [-0.5, 1.5])
        assert calls == []
        # a first solve that leaves a residual is still refined, by LU
        B = np.random.default_rng(3).normal(size=(4, 4))
        qp._face_minimizer(B @ B.T, np.ones(4), [0, 1, 2, 3])
        assert len(calls) > 2
        assert {name for name, _ in calls} == {"_solve1"}

    @staticmethod
    def degenerate_faces(rng):
        """(kind, Q, q, face) with a face block of Q that is singular: two
        equal subgradients, a zero block, or subgradients of rank below
        k - 1; q makes the face system consistent on odd trials."""
        for kind in ("duplicate", "zero", "rank"):
            for trial in range(24):
                k = int(rng.integers(3, 9))
                m = k + int(rng.integers(0, 3))
                scale = 10.0 ** rng.integers(-3, 4)
                if kind == "rank":
                    G = rng.normal(size=(m, int(rng.integers(1, k - 1))))
                else:
                    G = rng.normal(size=(m, 6))
                G *= scale
                face = sorted(rng.choice(m, size=k, replace=False).tolist())
                if kind == "duplicate":
                    i, j = rng.choice(face, size=2, replace=False)
                    G[j] = G[i]
                Q = G @ G.T
                if kind == "zero":
                    Q[np.ix_(face, face)] = 0.0
                q = rng.normal(size=m) * scale
                if trial % 2:
                    q = -Q @ rng.random(m)
                yield kind, Q, q, face

    @pytest.mark.parametrize("small, scale, lu", [
        (1e-4, 1.0, True),     # certified
        (1e-10, 1.0, False),   # max|H| max|y| near 7e9 max|g|
        (1e-6, 1e6, False),    # residual above 1e-12 (1 + |g|)
    ])
    def test_each_certificate_test_refuses_its_face(self, small, scale, lu,
                                                    monkeypatch):
        # a three-plane face whose reduced H has eigenvalues 1 and small,
        # the first along the probe p = (1/2, 1/3), so the probe sees a
        # condition near 1 and only the guard or the residual test can
        # refuse the face; g lies along the small direction
        p = np.array([1 / 2, 1 / 3])
        u1 = p / np.linalg.norm(p)
        u2 = np.array([1 / 3, -1 / 2]) / np.linalg.norm(p)
        H = np.outer(u1, u1) + small * np.outer(u2, u2)
        N = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
        P = np.linalg.solve(N.T @ N, N.T)  # N'P' = I, so N'QN = H
        Q = P.T @ H @ P
        Q = (Q + Q.T) / 2.0
        q = -Q @ np.full(3, 1 / 3) - scale * P.T @ H @ u2
        calls = []
        original = qp._lstsq

        def counted(H, rhs):
            calls.append(H.shape)
            return original(H, rhs)

        monkeypatch.setattr(qp, "_lstsq", counted)
        assert self.assert_same(Q, q, [0, 1, 2]) == "weights"
        assert (not calls) == lu

    def test_degenerate_faces_take_least_squares(self, monkeypatch):
        # LU refuses every singular face, exactly singular or not, and the
        # least-squares branch then returns what every face returned before
        # LU came in, bit for bit
        calls = []
        original = qp._lstsq

        def counted(H, rhs):
            calls.append(H.shape)
            return original(H, rhs)

        monkeypatch.setattr(qp, "_lstsq", counted)
        branches = set()
        for kind, Q, q, face in self.degenerate_faces(
                np.random.default_rng(19)):
            calls.clear()
            got = qp._face_minimizer(Q, q, face)
            assert calls, (kind, face)
            want = _face_minimizer_with_basis(Q, q, face, lu=False)
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(a, b)
            branches.add((kind, "weights" if got[1] is None else "descent"))
        assert branches == {(kind, branch)
                            for kind in ("duplicate", "zero", "rank")
                            for branch in ("weights", "descent")}


def polish_with_lists(Q, q, lam, tol, paths):
    """Reference: ``_polish`` with each face a sorted list and the start
    weights made up front; ``paths`` counts the steps taken."""
    m = q.size
    face = np.flatnonzero(lam > 1e-12).tolist()
    w = np.zeros(m)
    w[face] = np.maximum(lam[face], 1.0 / (m * m))
    w /= w.sum()
    seen = {tuple(face)}

    def step_to_boundary(direction):
        nonlocal w, face
        paths["boundary"] += 1
        neg = [i for i in face if direction[i] < 0.0 and w[i] > 0.0]
        if not neg:
            return False
        t = min(w[i] / -direction[i] for i in neg)
        w = w + t * direction
        for i in neg:
            if w[i] <= w.max() * 1e-15:
                w[i] = 0.0
        face = [i for i in face if w[i] > 0.0]
        s = w.sum()
        if s <= 0.0 or not face:
            return False
        w /= s
        return True

    for _ in range(3 * m + 20):
        weights, descent = qp._face_minimizer(Q, q, face)
        if descent is not None:
            paths["descent"] += 1
            direction = np.zeros(m)
            direction[face] = descent
            if not step_to_boundary(direction):
                return None
            continue
        if not np.isfinite(weights).all():
            return None
        target = np.zeros(m)
        target[face] = weights
        if weights.min() < -1e-12:
            if not step_to_boundary(target - w):
                return None
            continue
        w = np.maximum(target, 0.0)
        w /= w.sum()
        grad = Q @ w + q
        resid = qp._kkt_residual(w, grad)
        if resid <= tol:
            return w, resid
        face_val = grad[face].min()
        j = int(np.argmin(grad))
        if j not in face and grad[j] < face_val - 0.25 * tol:
            trial = sorted(face + [j])
            if tuple(trial) not in seen:
                paths["pull_in"] += 1
                seen.add(tuple(trial))
                face = trial
                continue
        if len(face) > 1:
            viol = [(w[i] * (grad[i] - face_val), i) for i in face]
            worst, i_worst = max(viol)
            trial = sorted(set(face) - {i_worst})
            if worst > tol and tuple(trial) not in seen:
                paths["evict"] += 1
                seen.add(tuple(trial))
                face = trial
                w[i_worst] = 0.0
                s = w.sum()
                if s > 0.0:
                    w /= s
                else:
                    w = np.zeros(m)
                    w[face] = 1.0 / len(face)
                continue
        return None
    return None


class TestPolish:
    def test_matches_list_faces_and_eager_start_weights(self):
        # random QPs of full and low rank from interior, sparse and vertex
        # starts reach every step of the polish; results agree bit for bit
        rng = np.random.default_rng(17)
        paths = dict.fromkeys(("descent", "boundary", "pull_in", "evict"), 0)
        outcomes = set()
        for _ in range(600):
            m = int(rng.integers(2, 13))
            n = int(rng.integers(1, m + 2))
            G = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 3)
            if rng.random() < 0.2:
                G[1] = G[0]
            Q = G @ G.T
            q = rng.normal(size=m) * 10.0 ** rng.integers(-3, 3)
            lam = np.zeros(m)
            support = rng.choice(m, size=int(rng.integers(1, m + 1)),
                                 replace=False)
            # some start weights below the polish's 1/m^2 floor
            lam[support] = rng.random(support.size) ** 4
            lam /= lam.sum()
            tol = 1e-10 * 10.0 ** rng.integers(-4, 4) * (1.0 + abs(q).max())
            got = qp._polish(Q, q, lam.copy(), tol)
            want = polish_with_lists(Q, q, lam.copy(), tol, paths)
            outcomes.add(want is None)
            if want is None:
                assert got is None
            else:
                assert got[0].tobytes() == want[0].tobytes()
                assert np.float64(got[1]).tobytes() == np.float64(
                    want[1]).tobytes()
        assert min(paths.values()) > 0, paths
        assert outcomes == {True, False}


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestEdgeMinimizer:
    """A two-vertex face is solved in scalar arithmetic, bitwise the array
    path, signed zeros included; where that could round differently it
    takes the array path or gelsd."""

    @staticmethod
    def array_path(Q, q, face, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(qp, "_edge_minimizer", lambda *args: None)
            return qp._face_minimizer(Q, q, face)

    def assert_bitwise(self, Q, q, face, monkeypatch):
        # the same outputs, bit for bit, and the same warnings
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = qp._face_minimizer(Q, q, face)
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = self.array_path(Q, q, face, monkeypatch)
        assert ([(w.category, str(w.message)) for w in got_warned]
                == [(w.category, str(w.message)) for w in want_warned])
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        TestFaceMinimizer.assert_same(Q, q, face)
        return "weights" if got[1] is None else "descent"

    def test_random_edges(self, monkeypatch):
        rng = np.random.default_rng(13)
        branches = []
        for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
            for trial in range(60):
                G = rng.normal(size=(3, int(rng.integers(1, 3)))) * scale
                Q = G @ G.T
                q = rng.normal(size=3) * scale ** 2
                if trial % 3 == 1:
                    q = -Q @ rng.random(3)
                elif trial % 3 == 2:
                    Q[1] = Q[0]
                    Q[:, 1] = Q[:, 0]
                face = sorted(rng.choice(3, size=2, replace=False).tolist())
                branches.append(self.assert_bitwise(Q, q, face, monkeypatch))
        assert {"weights", "descent"} <= set(branches)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_entries(self, zero, monkeypatch):
        # zeros in every position, of either sign: only the sign of a zero
        # may differ inside, and none reaches the weights or the ray
        cases = [
            (np.full((2, 2), zero), np.array([zero, zero])),
            (np.full((2, 2), zero), np.array([1.0, zero])),
            (np.full((2, 2), zero), np.array([-0.0, 0.0])),
            (np.array([[1.0, zero], [zero, 1.0]]), np.array([zero, zero])),
            (np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([zero, -0.0])),
            (np.array([[zero, zero], [zero, 4.0]]), np.array([2.0, zero])),
            (np.array([[4.0, -2.0], [-2.0, 1.0]]), np.array([zero, 0.5])),
        ]
        for Q, q in cases:
            self.assert_bitwise(Q, q, [0, 1], monkeypatch)
            self.assert_bitwise(-Q, -q, [0, 1], monkeypatch)

    def test_subnormal_entry_takes_the_array_path(self, monkeypatch):
        tiny = np.finfo(float).tiny
        for sub in (5e-324, 3 * 5e-324, tiny * (1 - 2.0 ** -52), 1.5 * tiny):
            for pos in ((0, 0), (0, 1), (1, 0), (1, 1)):
                Q = np.array([[2.0, 1.0], [1.0, 3.0]])
                Q[pos] = sub
                assert qp._edge_minimizer(Q, np.ones(2), 0, 1) is None
                self.assert_bitwise(Q, np.array([0.5, -1.0]), [0, 1],
                                    monkeypatch)
        # halving the smallest normal numbers at or above 2^-1021 is exact
        Q = np.full((2, 2), 2.0 ** -1021)
        Q[0, 0] *= 3.0
        assert qp._edge_minimizer(Q, np.zeros(2), 0, 1) is not None
        self.assert_bitwise(Q, np.zeros(2), [0, 1], monkeypatch)

    def test_entries_outside_the_closed_form_range(self, monkeypatch):
        # a 1x1 system with |a| above 2^960 or below 2^-960 (but normal)
        # goes to gelsd, which rescales it; the rest stays scalar
        calls = []
        original = qp._lstsq

        def counted(H, rhs):
            calls.append(H.shape)
            return original(H, rhs)

        for scale in (1e300, 1e-300):
            Q = scale * np.array([[1.0, -1.0], [-1.0, 1.0]])
            for q in (np.array([1.0, -2.0]), np.zeros(2),
                      np.array([1.0, -2.0]) * 1e-300):
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(qp, "_lstsq", counted)
                    assert qp._edge_minimizer(Q, q, 0, 1) is not None
                assert calls and set(calls) == {(1, 1)}
                self.assert_bitwise(Q, q, [0, 1], monkeypatch)
        # a zero face block needs no solve at any scale of q
        with monkeypatch.context() as m:
            m.setattr(qp, "_lstsq", counted)
            calls.clear()
            assert qp._edge_minimizer(np.zeros((2, 2)),
                                      np.array([1e150, -1e150]), 0, 1)
            assert calls == []

    def test_overflowing_step_takes_the_array_path(self, monkeypatch):
        # the array path warns when a product overflows; the scalar one
        # hands such a face to it
        for Q, q in ((np.diag([1.0, 2.0]), np.array([1e300, -1e300])),
                     (np.diag([1e300, 1.0]), np.array([0.0, 1e200])),
                     (np.diag([1e-300, 1e-300]), np.array([1e200, 0.0]))):
            assert qp._edge_minimizer(Q, q, 0, 1) is None
            self.assert_bitwise(Q, q, [0, 1], monkeypatch)


class TestSolve1x1:
    """``qp._solve_1x1`` must stay ``qp._lstsq`` on a 1x1 system bit for
    bit: gelsd computes ``b * (1 / a)`` there, and 0 when a == 0."""

    @staticmethod
    def assert_same(a, b):
        want = qp._lstsq(np.array([[a]]), np.array([b]))[0]
        got = qp._solve_1x1(a, b)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes(), (a, b, got, want)

    def test_magnitudes_across_the_double_range(self):
        # both sides of the closed form's range [2^-960, 2^960], from the
        # smallest subnormal to the largest finite exponent
        rng = np.random.default_rng(17)
        exponents = list(range(-1074, 1024, 7)) + [-961, -960, 959, 960, 961]
        for ea in exponents:
            for _ in range(3):
                eb = int(rng.choice(exponents))
                a = float(np.ldexp(rng.uniform(1.0, 2.0), ea))
                b = float(np.ldexp(rng.uniform(1.0, 2.0), eb))
                for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                    self.assert_same(sa * a, sb * b)
                    self.assert_same(sa * a, sb * float(np.ldexp(1.0, ea)))

    def test_results_that_overflow_or_underflow(self):
        for a, b in ((2.0 ** -900, 2.0 ** 900), (2.0 ** 900, 2.0 ** -900),
                     (3.0 * 2.0 ** -955, 1.7 * 2.0 ** 955),
                     (1.1 * 2.0 ** 950, 1.3 * 2.0 ** -955)):
            self.assert_same(a, b)
            self.assert_same(-a, b)

    def test_signed_zeros(self):
        for a in (1.0, -1.0, 3.0, -7.5, 2.0 ** -960, -(2.0 ** 960), 1e-310,
                  1e308):
            for b in (0.0, -0.0):
                self.assert_same(a, b)

    def test_zero_coefficient(self):
        for a in (0.0, -0.0):
            for b in (0.0, -0.0, 1.0, -2.5, 1e-310, 1e308, np.inf, np.nan):
                self.assert_same(a, b)


class TestLstsq:
    """``qp._lstsq`` calls NumPy's private least-squares gufunc directly; it
    must stay ``np.linalg.lstsq(..., rcond=None)[0]`` bit for bit, on every
    NumPy the package supports."""

    @staticmethod
    def assert_same(H, b):
        want = np.linalg.lstsq(H, b, rcond=None)[0]
        got = qp._lstsq(H, b)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    def test_random_square_systems(self):
        rng = np.random.default_rng(5)
        for k in range(1, 13):
            for _ in range(4):
                B = rng.normal(size=(k, k))
                self.assert_same(B.T @ B, rng.normal(size=k))
                self.assert_same(B, rng.normal(size=k))

    def test_singular_and_rank_deficient(self):
        rng = np.random.default_rng(6)
        for k in range(2, 13):
            H = rng.normal(size=(k, k))
            H[-1] = H[0]  # duplicate rows
            self.assert_same(H, rng.normal(size=k))
            G = rng.normal(size=(k, max(1, k // 3)))
            self.assert_same(G @ G.T, rng.normal(size=k))
            self.assert_same(np.zeros((k, k)), rng.normal(size=k))

    def test_singular_values_at_the_cutoff(self):
        # lstsq drops singular values up to eps * k times the largest; one
        # just above and one just below that cutoff pin the cutoff used
        eps = np.finfo(float).eps
        for k in range(2, 13):
            for c in (k - 0.5, k + 0.5):
                H = np.diag([1.0] * (k - 1) + [c * eps])[::-1]
                self.assert_same(H, np.ones(k))

    def test_badly_scaled_entries(self):
        rng = np.random.default_rng(7)
        for scale in (1e-8, 1e8):
            for k in range(2, 13):
                B = rng.normal(size=(k, k)) * scale
                self.assert_same(B.T @ B, rng.normal(size=k) * scale)
                self.assert_same(B, rng.normal(size=k))

    def test_non_finite_input_behaves_alike(self):
        # an infinite entry makes LAPACK fail, which both report as the same
        # LinAlgError; a NaN right-hand side gives the same NaN solution
        H = np.eye(3)
        H[1, 2] = np.inf
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.lstsq(H, np.ones(3), rcond=None)
        with pytest.raises(np.linalg.LinAlgError) as got:
            qp._lstsq(H, np.ones(3))
        assert str(got.value) == str(want.value)
        self.assert_same(np.eye(3), np.array([1.0, np.nan, 2.0]))


class TestLuSolve:
    """``qp._solve1`` calls NumPy's private gesv gufunc directly; it must
    stay ``np.linalg.solve`` bit for bit.  ``qp._lu_face`` refuses a
    singular matrix, where ``np.linalg.solve`` raises, without a warning."""

    def test_random_nonsingular_systems(self):
        rng = np.random.default_rng(29)
        for k in range(2, 13):
            for _ in range(4):
                B = rng.normal(size=(k, k))
                for H in (B, B.T @ B + np.eye(k),
                          B * 10.0 ** rng.integers(-8, 9)):
                    rhs = rng.normal(size=k)
                    assert np.array_equal(qp._solve1(H, rhs),
                                          np.linalg.solve(H, rhs))

    def test_singular_matrix_is_refused_quietly(self):
        rng = np.random.default_rng(31)
        for k in range(2, 13):
            B = rng.normal(size=(k, k))
            B[:, -1] = 0.0
            for H in (np.zeros((k, k)), B, B.T):
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(H, np.ones(k))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert qp._lu_face(H, np.ones(k)) is None


def _brute_force_candidates(Q, q):
    """Exhaustive face enumeration for small simplex QPs."""
    m = q.size
    for k in range(1, m + 1):
        for face in itertools.combinations(range(m), k):
            face = list(face)
            lam0 = np.zeros(len(face))
            lam0[:] = 1.0 / len(face)
            if len(face) == 1:
                w = np.zeros(m)
                w[face[0]] = 1.0
                yield w
                continue
            N = np.zeros((len(face), len(face) - 1))
            idx = np.arange(len(face) - 1)
            N[idx, idx] = 1.0
            N[idx + 1, idx] = -1.0
            Qf = Q[np.ix_(face, face)]
            H = N.T @ Qf @ N
            g = N.T @ (Qf @ lam0 + q[face])
            y, *_ = np.linalg.lstsq(H, -g, rcond=None)
            lf = lam0 + N @ y
            if lf.min() < -1e-9:
                continue
            w = np.zeros(m)
            w[face] = np.maximum(lf, 0.0)
            w /= w.sum()
            yield w


class TestProxOfModel:
    def test_single_affine_plane(self):
        # prox of an affine function steps straight down the gradient
        z = np.array([1.0, -2.0])
        g = np.array([3.0, 4.0])
        bundle = make_bundle([(z, 5.0, g)], z, r=2.0)
        x_next, lam, kkt = prox_of_model(bundle)
        np.testing.assert_allclose(x_next, z - g / 2.0)
        np.testing.assert_allclose(lam, [1.0])

    def test_absolute_value_prox_at_zero(self):
        # planes of |x| built at +-1: model is |x| itself, prox at 0 is 0
        z = np.array([0.0])
        bundle = make_bundle([(np.array([1.0]), 1.0, np.array([1.0])),
                              (np.array([-1.0]), 1.0, np.array([-1.0]))], z)
        x_next, lam, _ = prox_of_model(bundle)
        np.testing.assert_allclose(x_next, [0.0], atol=1e-12)
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-10)

    @pytest.mark.parametrize("z0", [-3.0, -0.5, 0.0, 0.5, 3.0])
    def test_absolute_value_prox_matches_soft_threshold(self, z0):
        z = np.array([z0])
        bundle = make_bundle([(np.array([1.0]), 1.0, np.array([1.0])),
                              (np.array([-1.0]), 1.0, np.array([-1.0]))], z)
        x_next, _, _ = prox_of_model(bundle)
        expected = np.sign(z0) * max(abs(z0) - 1.0, 0.0)
        np.testing.assert_allclose(x_next, [expected], atol=1e-8)

    @pytest.mark.parametrize("tol_kkt", [0.0, np.nan])
    def test_rejects_non_positive_tol_kkt(self, tol_kkt):
        z = np.array([0.3])
        bundle = make_bundle([(np.array([1.0]), 1.0, np.array([1.0])),
                              (np.array([-1.0]), 1.0, np.array([-1.0]))], z)
        with pytest.raises(ValueError, match="tol_kkt must be positive"):
            prox_of_model(bundle, tol_kkt=tol_kkt)

    def test_lambda_on_simplex(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = 2, rng.integers(1, 4)
            z = rng.normal(size=n)
            planes = [(rng.normal(size=n), rng.normal(), rng.normal(size=n))
                      for _ in range(m)]
            bundle = make_bundle(planes, z)
            _, lam, _ = prox_of_model(bundle)
            assert abs(lam.sum() - 1.0) <= 1e-14
            assert lam.min() >= -1e-14

    def test_recombination_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            r = float(rng.uniform(0.5, 3.0))
            z = rng.normal(size=n)
            planes = [(rng.normal(size=n), rng.normal(), rng.normal(size=n))
                      for _ in range(m)]
            bundle = make_bundle(planes, z, r)
            x_next, lam, _ = prox_of_model(bundle)
            G = bundle.subgrads.T
            lhs = r * (z - x_next)
            rhs = G @ lam
            scale = 1.0 + np.linalg.norm(rhs)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale

    def test_matches_brute_force_small_bundles(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            r = float(rng.uniform(0.5, 2.0))
            z = rng.normal(size=n)
            planes = [(rng.normal(size=n), rng.normal(), rng.normal(size=n))
                      for _ in range(m)]
            bundle = make_bundle(planes, z, r)
            x_next, _, _ = prox_of_model(bundle)

            def primal(x):
                vals = [val + g @ (x - site) for site, val, g in planes]
                return max(vals) + 0.5 * r * np.dot(x - z, x - z)

            # dual face enumeration gives the exact primal minimizer
            G = bundle.subgrads.T
            e = bundle.plane_values(z)
            best = None
            for w in _brute_force_candidates(G.T @ G / r, -e):
                x = z - (G @ w) / r
                if best is None or primal(x) < primal(best):
                    best = x
            assert primal(x_next) <= primal(best) + 1e-8

    def test_residual_is_the_dual_qp_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            r = float(rng.uniform(0.5, 3.0))
            z = rng.normal(size=n)
            planes = [(rng.normal(size=n), rng.normal(), rng.normal(size=n))
                      for _ in range(m)]
            bundle = make_bundle(planes, z, r)
            x_next, lam, kkt = prox_of_model(bundle)
            G = bundle.subgrads.T
            want_lam, want_kkt = minimize_simplex_qp(
                G.T @ G / r, -bundle.centre_values,
                tol=qp.default_tol_kkt(bundle))
            np.testing.assert_array_equal(lam, want_lam)
            np.testing.assert_array_equal(x_next, z - (G @ want_lam) / r)
            assert kkt == want_kkt

    def test_all_zero_subgradients(self):
        z = np.array([1.0, 2.0])
        bundle = make_bundle([(z, 3.0, np.zeros(2)),
                              (z + 1.0, 7.0, np.zeros(2))], z)
        x_next, lam, kkt = prox_of_model(bundle)
        np.testing.assert_array_equal(x_next, z)
        # the plane with the larger value at z carries all the weight
        np.testing.assert_array_equal(lam, [0.0, 1.0])
        assert kkt == 0.0

    def test_all_zero_subgradients_tie_goes_to_first_row(self):
        z = np.array([1.0, 2.0])
        bundle = make_bundle([(z, 3.0, np.zeros(2)), (z, 7.0, np.zeros(2)),
                              (z + 1.0, 7.0, np.zeros(2))], z)
        x_next, lam, kkt = prox_of_model(bundle, warm_start=np.ones(3) / 3)
        np.testing.assert_array_equal(x_next, z)
        np.testing.assert_array_equal(lam, [0.0, 1.0, 0.0])
        assert kkt == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("r", [0.3, 1.0, 4.0, 7.0])
    def test_gram_matrix_divided_as_before(self, r):
        # Q is divided by r in place, and not at all when r is 1.0; the
        # reference is the formula (G.T @ G) / r
        rng = np.random.default_rng(23)
        for m, n in ((2, 3), (5, 2), (12, 4), (40, 3)):
            z = rng.normal(size=n)
            planes = [(z + rng.normal(size=n), float(rng.normal()),
                       rng.normal(size=n) * 10.0 ** rng.integers(-2, 3))
                      for _ in range(m)]
            bundle = make_bundle(planes, z, r)
            warm = rng.random(m)
            G = bundle.subgrads.T
            tol = qp.default_tol_kkt(bundle)
            lam, resid = minimize_simplex_qp((G.T @ G) / r,
                                             -bundle.centre_values,
                                             lam0=warm, tol=tol)
            x = bundle.prox_centre - (G @ lam) / r
            got = prox_of_model(bundle, warm_start=warm)
            assert got[0].tobytes() == x.tobytes()
            assert got[1].tobytes() == lam.tobytes()
            assert got[2] == resid

    def test_overflowing_bundle_raises_value_error(self):
        # finite subgradients near 1e160 overflow Q = G'G / r to inf
        z = np.array([0.0, 0.0])
        bundle = make_bundle([(z, 0.0, np.array([1e160, 1.0])),
                              (z + 1.0, 1.0, np.array([-1e160, 2.0]))], z)
        assert np.isfinite(bundle.subgrads).all()
        assert np.isinf(bundle.subgrads @ bundle.subgrads.T).any()
        with pytest.raises(ValueError):
            prox_of_model(bundle)


class TestDistToHull:
    def test_member_is_zero(self):
        g = np.array([1.0, 2.0])
        assert dist_to_hull(g, [g, np.array([0.0, 0.0])]) == 0.0

    def test_singleton(self):
        d = dist_to_hull(np.array([3.0, 4.0]), [np.array([0.0, 0.0])])
        assert abs(d - 5.0) < 1e-12

    def test_projection_onto_segment(self):
        # hull of (0,0) and (2,0); point (1,1) projects to (1,0)
        d = dist_to_hull(np.array([1.0, 1.0]),
                         [np.array([0.0, 0.0]), np.array([2.0, 0.0])])
        assert abs(d - 1.0) < 1e-8

    def test_interior_point_is_zero(self):
        vs = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
              np.array([0.0, 1.0])]
        d = dist_to_hull(np.array([0.25, 0.25]), vs)
        assert d < 1e-7

    def test_accepts_matrix_input(self):
        V = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert abs(dist_to_hull(np.array([3.0, 0.0]), V) - 1.0) < 1e-8

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dist_to_hull(np.array([1.0]), np.empty((0, 1)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        vs = np.array([[0.0, 0.0], [1.0, bad], [0.0, 1.0]])
        with pytest.raises(ValueError):
            dist_to_hull(np.array([2.0, 2.0]), vs)
        with pytest.raises(ValueError):
            dist_to_hull(np.array([bad, 2.0]), vs[[0, 2]])
