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
    def test_zero_matrix_of_either_sign_skips_the_active_set(self, zero,
                                                              monkeypatch):
        def no_active_set(*args):
            raise AssertionError("the zero-Q branch was not taken")

        monkeypatch.setattr(qp, "_active_set", no_active_set)
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

    @staticmethod
    def entry_scan(Q, q):
        """What the entry check decides by scanning every entry: refuse, take
        the Q = 0 shortcut, or go on to the solve."""
        Q_max = max(-np.minimum.reduce(Q, axis=None),
                    np.maximum.reduce(Q, axis=None))
        if not (max(-np.minimum.reduce(q, axis=None),
                    np.maximum.reduce(q, axis=None)) <= qp._Q_LIMIT
                and Q_max <= qp._Q_LIMIT):
            return "refused"
        return "zero" if Q_max == 0.0 else "solve"

    # NaN and +-inf; finite entries whose squares overflow, at and above
    # the limit; tiny ones whose squares underflow to a zero sum
    ENTRIES = [np.nan, np.inf, -np.inf, 1e200, -1e200, 1e300, -1e300,
               qp._Q_LIMIT, -qp._Q_LIMIT, np.nextafter(qp._Q_LIMIT, np.inf),
               4.5e307, -4.5e307, 1e-200, -1e-200, 0.0, -0.0]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("where", ["Q entry", "Q pair", "Q", "q entry",
                                       "q"])
    def test_entry_check_is_the_entry_scan(self, entry, where, monkeypatch):
        # the check sums squares with vdot and scans only a zero,
        # overflowing or NaN sum; its outcome and error are the scan's.
        # A Q of 1e-200 entries sums to zero but is not zero, so it must
        # not take the Q = 0 shortcut; q = 4.5e307 is finite, its sum
        # overflows, and the scan finds it above the limit
        Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
        q = np.array([1.0, -1.0, 0.5])
        if where == "Q entry":
            Q[2, 0] = entry
        elif where == "Q pair":
            Q[0, 1] = Q[1, 0] = entry
        elif where == "Q":
            Q[:] = entry
        elif where == "q entry":
            q[1] = entry
        else:
            q[:] = entry
        want = self.entry_scan(Q, q)
        small = []

        def recorded(*args):
            small.append(args)
            return original(*args)

        original = qp._small_qp
        monkeypatch.setattr(qp, "_small_qp", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                minimize_simplex_qp(Q, q, max_iter=50)
            except ValueError as exc:
                assert str(exc) == ("minimize_simplex_qp: non-finite input "
                                    "(or |Q| or |q| too large to difference)")
                got = "refused"
            except (QPConvergenceError, np.linalg.LinAlgError):
                got = "solve"
            else:
                got = "solve" if small else "zero"
        assert got == want

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

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(1, 3),
           st.sampled_from(["plain", "duplicate", "aggregate"]),
           st.integers(-150, 150), st.integers(-150, 150), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force_on_degenerate_instances(
            self, seed, m, n, kind, Q_exp, q_exp, warm):
        # points in n <= 3 dimensions, so that faces of more than n + 1
        # planes are dependent; equal rows (with equal or unequal offsets);
        # a last row that is a convex combination of the others, as the
        # aggregate is of the rows it combines; Q and q scaled by 1e-150 to
        # 1e150.  The objective is within m tol of the best face minimizer
        # (residual <= tol bounds the duality gap by m tol), plus rounding
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(m, n))
        q = rng.normal(size=m)
        if kind == "duplicate":
            i, j = rng.choice(m, size=2, replace=False)
            G[j] = G[i]
            if rng.random() < 0.5:
                q[j] = q[i]
        elif kind == "aggregate":
            mix = rng.dirichlet(np.ones(m - 1))
            G[-1] = mix @ G[:-1]
            q[-1] = mix @ q[:-1] + (rng.normal() if rng.random() < 0.5
                                    else 0.0)
        Q = (G @ G.T) * 10.0 ** Q_exp
        q *= 10.0 ** q_exp
        tol = 1e-10 * (np.abs(Q).max() + np.abs(q).max())
        lam0 = rng.random(m) if warm else None
        lam, resid = minimize_simplex_qp(Q, q, lam0=lam0, tol=tol)
        assert lam.shape == (m,) and lam.min() >= 0.0
        assert abs(lam.sum() - 1.0) <= 4 * np.finfo(float).eps
        assert resid <= tol
        assert resid == qp._kkt_residual(lam, Q @ lam + q)
        a = np.abs(lam)
        scale = 0.5 * a @ np.abs(Q) @ a + np.abs(q) @ a
        assert (0.5 * lam @ Q @ lam + q @ lam
                <= _best_face_objective(Q, q) + m * tol
                + 16 * np.finfo(float).eps * scale)

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
        # the residual returned is the one the weights give
        rng = np.random.default_rng(8)
        for m in (2, 5, 12, 40):
            G = rng.normal(size=(m, 4))
            Q = G @ G.T
            q = rng.normal(size=m)
            lam, resid = minimize_simplex_qp(Q, q, tol=1e-10)
            assert resid == qp._kkt_residual(lam, Q @ lam + q)

    def test_raises_when_unreachable(self):
        # a full-rank QP with an interior optimum cannot reach a 1e-300
        # residual in double precision: at the interior face's minimizer
        # the least gradient is a member of the face, which the method
        # cannot enter again, so it raises after a few face solves, far
        # below max_iter
        rng = np.random.default_rng(12)
        solves = []
        original = qp._bordered

        def counted(*args):
            solves.append(args[1].size)
            return original(*args)

        for m in (2, 4, 6, 9):
            G = rng.normal(size=(m, m + 2))
            Q = G @ G.T
            q = -Q @ rng.dirichlet(np.ones(m))
            solves.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qp, "_bordered", counted)
                mp.setattr(qp, "_small_qp", lambda *args: None)
                with pytest.raises(QPConvergenceError,
                                   match="did not reach residual 1.000e-300"):
                    minimize_simplex_qp(Q, q, tol=1e-300)
            assert 0 < len(solves) <= 3 * m

    def test_triangle_closed_form_reaches_zero_residual(self):
        B = np.array([[1e4, 1.0], [1e4, -1.0], [9999.0, 0.5]])
        Q = B @ B.T
        q = 1.0 - Q @ np.array([0.3, 0.3, 0.4])
        lam, resid = minimize_simplex_qp(Q, q, tol=1e-30, max_iter=200)
        assert resid == 0.0
        # the condition number of the face is about 1e8
        np.testing.assert_allclose(lam, [0.3, 0.3, 0.4], atol=1e-8)

    def test_general_path_finishes_what_no_face_meets(self, monkeypatch):
        # no closed-form candidate meets even 1e-8 here (the face's
        # condition number is about 1e8), so the active-set method runs,
        # from the vertex of least objective, and reaches 1e-30
        B = np.array([[1e4, 1.0], [1e4, -1.0], [9999.0, 0.5]])
        Q = B @ B.T
        q = 1.0 - Q @ np.array([0.05, 0.9, 0.05])
        assert qp._small_qp(Q, q, 1e-8) is None
        starts = []
        original = qp._active_set

        def counted(Q, q, w, *args):
            starts.append(w.copy())
            return original(Q, q, w, *args)

        monkeypatch.setattr(qp, "_active_set", counted)
        lam, resid = minimize_simplex_qp(Q, q, tol=1e-30, max_iter=200)
        assert resid <= 1e-30
        assert resid == qp._kkt_residual(lam, Q @ lam + q)
        assert len(starts) == 1
        vertex = int(np.argmin(0.5 * Q.diagonal() + q))
        assert starts[0].tolist() == np.eye(3)[vertex].tolist()

    @pytest.mark.parametrize("tol", [0.0, -1e-12, np.nan])
    def test_rejects_non_positive_tol(self, tol):
        # no residual meets a NaN tol, so the loop would run to the cap
        with pytest.raises(ValueError, match="tol must be positive"):
            minimize_simplex_qp(np.eye(2), np.array([0.0, 1.0]), tol=tol,
                                max_iter=200)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_Q(self, bad):
        # a NaN entry would reach every face solve, so the QP refuses it at
        # entry
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

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_rejects_Q_of_another_size(self, m):
        for k in (m - 1, m + 1):
            with pytest.raises(ValueError, match=f"Q must be {m} x {m}"):
                minimize_simplex_qp(np.eye(k), np.ones(m))

    @pytest.mark.parametrize("m", [3, 5])
    @pytest.mark.parametrize("bad", ["short", "long", "matrix", np.nan,
                                     np.inf, -np.inf])
    def test_rejects_bad_warm_start(self, m, bad):
        # the m <= 3 path never reads lam0, so both paths check it at entry
        rng = np.random.default_rng(m)
        G = rng.normal(size=(m, 2))
        Q, q = G @ G.T, rng.normal(size=m)
        lam0 = {"short": np.full(m - 1, 1.0 / (m - 1)),
                "long": np.full(m + 1, 1.0 / (m + 1)),
                "matrix": np.full((1, m), 1.0 / m)}.get(bad)
        if lam0 is None:
            lam0 = np.full(m, 1.0 / m)
            lam0[1] = bad
        with pytest.raises(ValueError, match="lam0 must be a finite vector "
                                             f"of length {m}"):
            minimize_simplex_qp(Q, q, lam0=lam0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [3, 5])
    def test_accepts_finite_warm_start_whose_squares_overflow(self, m):
        lam0 = np.zeros(m)
        lam0[:2] = 1e200
        assert np.vdot(lam0, lam0) == np.inf
        lam, resid = minimize_simplex_qp(np.eye(m), np.zeros(m), lam0=lam0)
        np.testing.assert_allclose(lam, np.full(m, 1.0 / m))
        assert resid <= 1e-12

    def test_projects_large_warm_start(self):
        lam, resid = minimize_simplex_qp(np.eye(2), np.zeros(2),
                                         lam0=np.array([1e17, 0.0]))
        np.testing.assert_allclose(lam, [0.5, 0.5])
        assert resid <= 1e-12

    def test_rejects_q_whose_face_differences_overflow(self):
        # finite, but a difference of gradient entries, which the residual
        # and the face steps take, would overflow
        with pytest.raises(ValueError):
            minimize_simplex_qp(np.eye(3), np.array([1e308, -1e308, 0.0]))

    def test_rejects_Q_whose_face_differences_overflow(self):
        # finite, but a difference of gradient entries would overflow
        Q = 1e308 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0]])
        assert np.isfinite(Q).all()
        with pytest.raises(ValueError):
            minimize_simplex_qp(Q, np.array([0.0, 1.0, 2.0]))


def _small_instance(seed, m, kind, q_exp, Q_exp):
    """A QP of m <= 3 planes: ``Q = G G'`` of a random PSD, rank-1,
    duplicate-row or zero kind, scaled by 10**Q_exp, and q by 10**q_exp."""
    rng = np.random.default_rng(seed)
    if kind == "rank1":
        G = rng.normal(size=(m, 1))
    else:
        G = rng.normal(size=(m, int(rng.integers(1, 5))))
    q = rng.normal(size=m)
    if kind == "duplicate":
        i, j = rng.choice(m, size=2, replace=False)
        G[j] = G[i]
        if rng.random() < 0.5:
            q[j] = q[i]  # equal planes: a tie between the equal rows
    Q = G @ G.T
    if kind == "zero":
        Q[:] = 0.0
    return Q * 10.0 ** Q_exp, q * 10.0 ** q_exp


def _segment_distance(g, a, b):
    d = b - a
    t = min(max((g - a) @ d / (d @ d), 0.0), 1.0) if d @ d > 0.0 else 0.0
    return float(np.linalg.norm(g - (a + t * d)))


def _triangle_distance(g, a, b, c):
    # the projection onto the triangle's plane when it falls inside, else
    # the nearest of the three sides
    u, v, w = b - a, c - a, g - a
    H = np.array([[u @ u, u @ v], [v @ u, v @ v]])
    if np.linalg.det(H) > 1e-12 * (u @ u) * (v @ v):
        y = np.linalg.solve(H, [w @ u, w @ v])
        if y.min() >= 0.0 and y.sum() <= 1.0:
            return float(np.linalg.norm(w - y[0] * u - y[1] * v))
    return min(_segment_distance(g, a, b), _segment_distance(g, b, c),
               _segment_distance(g, a, c))


class TestSmallPath:
    """QPs of two or three planes are solved from the faces of the simplex;
    the general path runs only when no face's minimizer meets tol."""

    @staticmethod
    def general(Q, q, tol):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qp, "_small_qp", lambda *args: None)
            return minimize_simplex_qp(Q, q, tol=tol)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]),
           st.sampled_from(["psd", "rank1", "duplicate", "zero"]),
           st.integers(-150, 150), st.integers(-150, 150))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_general_path(self, seed, m, kind, q_exp, Q_exp):
        Q, q = _small_instance(seed, m, kind, q_exp, Q_exp)
        # 1e-10 of the gradient's scale
        tol = 1e-10 * (np.abs(Q).max() + np.abs(q).max())
        small = minimize_simplex_qp(Q, q, tol=tol)
        general = self.general(Q, q, tol)
        objective = []
        for lam, resid in (small, general):
            assert lam.shape == (m,) and lam.min() >= 0.0
            assert abs(lam.sum() - 1.0) <= 4 * np.finfo(float).eps
            assert resid <= tol
            assert resid == qp._kkt_residual(lam, Q @ lam + q)
            objective.append(0.5 * lam @ Q @ lam + q @ lam)
        # residual <= tol bounds each point's duality gap by m tol
        a = np.abs(small[0])
        scale = 0.5 * a @ np.abs(Q) @ a + np.abs(q) @ a
        assert (abs(objective[0] - objective[1])
                <= m * tol + 16 * np.finfo(float).eps * scale)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]),
           st.sampled_from(["psd", "rank1", "duplicate"]),
           st.integers(-150, 150), st.integers(-150, 150))
    @settings(max_examples=200, deadline=None)
    def test_small_path_finishes_without_the_general_one(self, seed, m, kind,
                                                         q_exp, Q_exp):
        Q, q = _small_instance(seed, m, kind, q_exp, Q_exp)
        tol = 1e-10 * (np.abs(Q).max() + np.abs(q).max())
        done = qp._small_qp(Q, q, tol)
        assert done is not None
        lam, resid = done
        assert resid <= tol and lam.min() >= 0.0

    def test_ignores_the_warm_start(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(3, 2))
        Q, q = G @ G.T, rng.normal(size=3)
        cold = minimize_simplex_qp(Q, q)
        for lam0 in ([1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [5.0, -3.0, 1e9]):
            warm = minimize_simplex_qp(Q, q, lam0=np.array(lam0))
            assert warm[0].tobytes() == cold[0].tobytes()
            assert warm[1] == cold[1]

    def test_four_planes_take_the_general_path(self, monkeypatch):
        def no_small_path(*args):
            raise AssertionError("m = 4 reached the small path")

        monkeypatch.setattr(qp, "_small_qp", no_small_path)
        rng = np.random.default_rng(6)
        G = rng.normal(size=(4, 2))
        lam, resid = minimize_simplex_qp(G @ G.T, rng.normal(size=4))
        assert resid <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]),
           st.integers(1, 5), st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_dist_to_hull_matches_closed_form(self, seed, m, n, exp):
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(m, n)) * 10.0 ** exp
        g = rng.normal(size=n) * 10.0 ** exp
        if rng.random() < 0.2:  # g inside the hull
            g = rng.dirichlet(np.ones(m)) @ V
        want = (_segment_distance(g, *V) if m == 2
                else _triangle_distance(g, *V))
        got = dist_to_hull(g, V)
        # dist_to_hull stops at residual 1e-12 (1 + max|Q| + max|q|); the
        # squared distance is then within 2 m times that of its minimum
        Q, q = V @ V.T, -V @ g
        tol = 1e-12 * (1.0 + np.abs(Q).max() + np.abs(q).max())
        assert abs(got * got - want * want) <= 2 * m * tol + 1e-12 * (
            1.0 + want * want)


class TestFaceMinimizer:
    """A face's minimizer is one bordered solve (``qp._bordered``); on a
    face that LU refuses, ``qp._descent_ray`` finds a direction that sums
    to zero along which the objective does not rise to the boundary: a
    dependence of the face, on which the objective is linear."""

    @staticmethod
    def ray(Q, q, face):
        """The face's ray from weights that rise along it, the step to the
        boundary and the face's gradient; the face's solve must be
        refused."""
        face = np.array(face)
        wf = np.linspace(1.0, 2.0, face.size)
        wf /= wf.sum()
        Qff = Q[np.ix_(face, face)]
        gf = Qff @ wf + q[face]
        with np.errstate(all="ignore"):
            step, exact = qp._bordered(Qff, gf[0] - gf, 0.0)
            assert not exact
            d, (t, i) = qp._descent_ray(Qff, wf, gf, step)
        assert wf[i] + t * d[i] == pytest.approx(0.0, abs=1e-15)
        assert (wf + t * d).min() >= -1e-15
        return d, gf

    def test_random_faces(self):
        # affinely independent faces at Q scales from 1e-150 to 1e150: the
        # solve is exact, the weights sum to one and the gradient is
        # constant on the face
        rng = np.random.default_rng(11)
        for k in range(2, 13):
            for exp in (-150, -8, 0, 8, 150):
                G = rng.normal(size=(k, k + 1)) * 10.0 ** (exp / 2)
                Q = G @ G.T
                q = rng.normal(size=k) * 10.0 ** exp
                with np.errstate(all="ignore"):
                    u, exact = qp._bordered(Q, -q, 1.0)
                assert exact
                assert abs(u.sum() - 1.0) <= 1e-12
                g = Q @ u + q
                scale = np.abs(Q).max() * np.abs(u).max() + np.abs(q).max()
                assert g.max() - g.min() <= 1e-10 * scale

    def test_duplicate_rows(self):
        # two equal subgradients make every face that holds both dependent:
        # LU refuses it, and the ray moves weight between the equal rows
        # in the direction in which the objective does not rise
        G = np.array([[1.0, 2.0], [1.0, 2.0], [-3.0, 0.5], [0.2, -1.0]])
        Q = G @ G.T
        for q in (np.array([0.5, 0.5, -0.25, 1.0]),
                  np.array([0.5, 0.75, -0.25, 1.0])):
            for face in ([0, 1], [0, 1, 2], [0, 1, 2, 3]):
                d, gf = self.ray(Q, q, face)
                assert abs(d[0] + d[1]) <= 1e-15 * abs(d[0])
                assert np.abs(d[2:]).max(initial=0.0) <= 1e-12 * abs(d[0])
                assert gf @ d <= 0.0

    def test_unbounded_face(self):
        # a zero face block with a non-constant linear term: the objective
        # is linear on every face, and falls along the ray
        Q = np.zeros((5, 5))
        q = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        for face in ([0, 1], [1, 2, 4], [0, 1, 2, 3, 4]):
            d, gf = self.ray(Q, q, face)
            assert d.sum() == 0.0 and d.any()
            assert gf @ d < 0.0

    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 8), st.integers(1, 3),
           st.integers(-150, 150))
    @settings(max_examples=200, deadline=None)
    def test_rays_of_dependent_faces(self, seed, k, n, exp):
        # k > n + 1 points in n dimensions are dependent, at any scale: the
        # ray sums to zero, and the objective at the boundary is no higher
        # than now, to rounding
        rng = np.random.default_rng(seed)
        k = max(k, n + 2)
        G = rng.normal(size=(k, n)) * 10.0 ** (exp / 2)
        Q = G @ G.T
        q = rng.normal(size=k) * 10.0 ** exp
        face = list(range(k))
        wf = np.linspace(1.0, 2.0, k)
        wf /= wf.sum()
        gf = Q @ wf + q
        with np.errstate(all="ignore"):
            step, exact = qp._bordered(Q, gf[0] - gf, 0.0)
            if exact:  # a consistent system: the step is a face minimizer
                return
            d, (t, i) = qp._descent_ray(Q, wf, gf, step)
        assert abs(d.sum()) <= 1e-12 * np.abs(d).sum()
        assert gf @ d <= 0.0
        rise = t * (gf @ d) + 0.5 * t * t * (d @ Q @ d)
        assert rise <= 1e-12 * t * np.abs(gf) @ np.abs(d)
        assert wf[i] + t * d[i] == pytest.approx(0.0, abs=1e-15)


class TestLuSolve:
    """``qp._solve1`` calls NumPy's private gesv gufunc directly; it must
    stay ``np.linalg.solve`` bit for bit.  A singular bordered system is
    refused, where ``np.linalg.solve`` raises, and the QP meets one without
    a warning."""

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
        # a face that holds two equal rows, or a zero block, makes the
        # bordered matrix singular; the solve gives NaN or a huge solution,
        # which the residual test refuses, and minimize_simplex_qp runs its
        # solves under one errstate, so the dependent faces of a warm start
        # on every plane raise no warning
        rng = np.random.default_rng(31)
        for k in range(2, 13):
            G = rng.normal(size=(k, max(1, k // 3)))
            G[-1] = G[0]
            q = rng.normal(size=k)
            for Q in (G @ G.T, np.zeros((k, k))):
                with np.errstate(all="ignore"):
                    assert not qp._bordered(Q, -q, 1.0)[1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lam, resid = minimize_simplex_qp(G @ G.T, q, lam0=np.ones(k))
            assert resid <= 1e-12 and abs(lam.sum() - 1.0) <= 1e-15


def _best_face_objective(Q, q):
    """The least objective over the minimizers of every face of the simplex
    that lie in it: each face's bordered system ``[[Q_FF, 1], [1', 0]]``,
    its block divided by its largest entry, solved by least squares."""
    m = q.size
    best = np.inf
    for k in range(1, m + 1):
        for face in itertools.combinations(range(m), k):
            face = list(face)
            Qff = Q[np.ix_(face, face)]
            s = np.abs(Qff).max() or 1.0
            B = np.ones((k + 1, k + 1))
            B[:k, :k] = Qff / s
            B[k, k] = 0.0
            u = np.linalg.lstsq(B, np.append(-q[face] / s, 1.0),
                                rcond=None)[0][:k]
            if u.min() < -1e-12:
                continue
            w = np.zeros(m)
            w[face] = np.maximum(u, 0.0) / np.maximum(u, 0.0).sum()
            best = min(best, 0.5 * w @ Q @ w + q @ w)
    return best


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
            tol = 1e-9
            x_next, lam, kkt = prox_of_model(bundle, tol_kkt=tol)
            G = bundle.subgrads.T
            want_lam, want_kkt = minimize_simplex_qp(
                G.T @ G / r, -bundle.centre_values, tol=tol)
            np.testing.assert_array_equal(lam, want_lam)
            np.testing.assert_array_equal(x_next, z - (G @ want_lam) / r)
            assert kkt == want_kkt

    def test_residual_is_the_model_prox_gap(self):
        # at any weights lam on the simplex, the dual residual
        # sum_i lam_i (grad_i - min grad) is the gap phi(x) - lam . planes(x)
        # at x = z - G lam / r
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2, 9))
            r = float(rng.uniform(0.5, 3.0))
            z = rng.normal(size=n)
            planes = [(rng.normal(size=n), rng.normal(), rng.normal(size=n))
                      for _ in range(m)]
            bundle = make_bundle(planes, z, r)
            G = bundle.subgrads.T
            lam = rng.dirichlet(np.ones(m))
            resid = qp._kkt_residual(lam, G.T @ G @ lam / r
                                     - bundle.centre_values)
            values = bundle.plane_values(z - G @ lam / r)
            delta = values.max() - lam @ values
            assert delta > 0.0
            assert resid == pytest.approx(delta, rel=1e-9, abs=1e-14)

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
            tol = 1e-10 * (1.0 + np.abs(bundle.centre_values).max())
            lam, resid = minimize_simplex_qp((G.T @ G) / r,
                                             -bundle.centre_values,
                                             lam0=warm, tol=tol)
            x = bundle.prox_centre - (G @ lam) / r
            got = prox_of_model(bundle, tol_kkt=tol, warm_start=warm)
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
