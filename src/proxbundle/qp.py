"""Simplex-constrained quadratic programming.

The prox of a max-of-affine model is computed through its dual: minimize
``(1/(2r))||G @ lam||^2 - e @ lam`` over the unit simplex, then recover the
primal point ``x = z - (1/r) G @ lam``.  The same machinery measures the
distance from a vector to the convex hull of a finite set of vectors.

A QP of two or three planes (the paper's minimal bundle, and most bundles
of the small variants) is solved from the faces of the simplex: each edge,
the triangle and each vertex has a closed-form minimizer, computed in
Python floats, and the first whose residual meets the target is the
answer (``_small_qp``); a call that ends there never reads the warm
start.

Every other QP, and one that no face's minimizer of the small path meets,
is solved by a finite active-set method in the line of Wolfe (Math.
Programming 11, 1976) and Kiwiel (IMA J. Numer. Anal. 6, 1986)
(``_active_set``).  It keeps feasible weights w and a face F, a set of
planes that holds w's support, and takes one of three steps:

- F's minimizer, the point of F's affine hull where the gradient is
  constant on F, comes from one LU solve of the bordered system
  ``[[Q_FF, 1], [1', 0]]`` (``_bordered``; LAPACK's gesv, called as
  NumPy's private ``solve1`` gufunc, which the test suite checks against
  ``np.linalg.solve``).  When it has a negative weight, w steps toward it
  until a weight reaches zero, and that plane leaves F.
- When LU refuses F (the solve's residual is not small), F is mostly
  affinely dependent: more than n + 1 planes in n dimensions, equal
  subgradients, or an aggregate together with the planes it combines.
  Along a dependence the objective is linear, so w moves the way it does
  not rise until a weight reaches zero, and that plane leaves F.  The
  dependence is LU's own step, whose size comes from the null direction,
  or that of F's lightest member on the rest (``_descent_ray``); a
  direction that is not one is taken only where the objective at the
  boundary is no higher.  A face without such a direction is not
  dependent, only too close for LU to be exact, and LU's step stands.
- Otherwise w is F's minimizer.  It is returned when its KKT residual
  meets the target; else the plane of least gradient enters F.

No step raises the objective, up to the accuracy of LU's face minimizers,
and in exact arithmetic it falls from one face minimizer to the next, so
no face comes back and the method ends after finitely many steps.  In
floating point a face minimizer may be too inexact for the target; the
method then meets a least gradient inside F, which cannot enter, and
raises ``QPConvergenceError``, as it does after ``max_iter`` steps.

Most prox QPs are small (three to a few dozen planes) and end after one or
two face solves, so a call's fixed cost is mostly NumPy dispatch, not
arithmetic.  The hot paths therefore call the ufunc loops directly
(``np.add.accumulate`` for ``np.cumsum``, ``.nonzero()[0]`` for
``np.flatnonzero``, ``np.minimum.reduce``/``np.maximum.reduce`` for the
``min``/``max`` methods), keep each face as one index array, and run the
whole method under one errstate.
The entry checks of Q, q and the warm start sum squares with ``np.vdot``,
which does not warn, and scan the entries only where that sum cannot
decide: a finite sum means finite entries, and for Q and q a nonzero one
also means entries far inside ``_Q_LIMIT`` and, for Q, a nonzero matrix.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "QPConvergenceError",
    "project_simplex",
    "minimize_simplex_qp",
    "prox_of_model",
    "dist_to_hull",
]


class QPConvergenceError(RuntimeError):
    """The simplex QP stopped short of its target residual: a face
    minimizer was too inexact to go on, or the step cap ran out."""


def project_simplex(v):
    """Euclidean projection of v onto {lam >= 0, sum(lam) = 1}.

    Sort-based exact algorithm; output components satisfy
    ``out_i = max(v_i - tau, 0)`` for the unique feasible threshold tau.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_simplex expects a nonempty 1-d vector")
    m = v.size
    u = v.copy()
    u.sort()
    # sorting puts every NaN last, so the two ends of the sorted copy are
    # finite exactly when v is; no arithmetic has touched v yet
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        raise ValueError("project_simplex: non-finite input")
    u = u[::-1]
    css = np.add.accumulate(u) - 1.0
    rho = (u * np.arange(1, m + 1) > css).nonzero()[0]
    if rho.size == 0:
        # u[0] - 1.0 rounded to u[0]: project the shift whose top entry is 0,
        # which qualifies.  Shifted entries at or below -1 project to 0 and
        # never enter tau, so clipping them there keeps the shift finite.
        with np.errstate(over="ignore"):
            return project_simplex(np.maximum(v - u[0], -1.0))
    rho = rho[-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _kkt_residual(lam, grad):
    """``sum_i lam_i (grad_i - min grad)``: zero exactly when the support of
    lam lies on the least coordinates of the gradient (complementary
    slackness on the simplex).  For the prox QP it is the model prox's gap
    delta = phi(x) - lam . planes(x)."""
    return float(lam.dot(grad - np.minimum.reduce(grad)))


# The gradients Q w + q of weights w on the simplex, and their differences
# in the residual, stay finite below this limit on |Q| and |q|.
_Q_LIMIT = np.finfo(float).max / 4.0
# A bordered solve is exact when its residual is at most this fraction of
# its largest right-hand side entry.  LU's residual is about eps times the
# solution's size, so this fails a solution about 1e7 times larger than
# its right-hand side: the null direction of a dependent face, which only
# rounding keeps from an exactly zero pivot, or a face too close to
# dependent for LU to be exact.  A consistent system on a dependent face
# passes, and its solution is one of the face's minimizers.
_SOLVE_RESIDUAL = 1e-8
# A ray d is a dependence of its face when its curvature d'Q_FF d is at most
# this fraction of max(diag Q_FF) |d|^2: rounding leaves about k eps there,
# and on the benchmark's faces almost every ray that is not a dependence
# reads 1e-8 or more.
_DEPENDENT = 1e-12


def _solve1(H, rhs):
    """``np.linalg.solve(H, rhs)`` for a square float64 H and a 1-d rhs, bit
    for bit on a nonsingular H: the same LAPACK gesv gufunc, without the
    wrapper's argument handling and its errstate.  On an exactly singular H
    it returns NaN and sets the invalid flag, where the wrapper raises."""
    return _umath_linalg.solve1(H, rhs, signature="dd->d")


def _bordered(Qff, top, total):
    """``(y, exact)``: y is the first k entries of the LU solution x of the
    bordered system ``[[Qff, 1], [1', 0]] x = [top; total]``, and exact
    says whether its residual is finite and at most ``_SOLVE_RESIDUAL``
    times the largest right-hand side entry.

    The border and ``total`` are multiplied by ``s = max(diag Qff)`` (the
    largest entry of a PSD Qff), which scales the last row and the last
    unknown only: the block and the border are then of one scale even for
    Q entries near 1e+-150.  An exactly singular system gives NaN, and a
    numerically singular one a solution so large that its residual fails.
    The caller sets the errstate.
    """
    k = top.size
    s = np.maximum.reduce(Qff.diagonal())
    if not s > 0.0:
        s = 1.0
    B = np.empty((k + 1, k + 1))
    B[:k, :k] = Qff
    B[k, :k] = B[:k, k] = s
    B[k, k] = 0.0
    b = np.empty(k + 1)
    b[:k] = top
    b[k] = s * total
    x = _solve1(B, b)
    return x[:k], bool(np.maximum.reduce(np.abs(B @ x - b))
                       <= _SOLVE_RESIDUAL * np.maximum.reduce(np.abs(b)))


def _ratio_test(wf, direction):
    """``(t, i)``: the longest step t along direction that keeps the weights
    wf nonnegative, and the position i of the weight that blocks it; None
    when no entry of direction is negative."""
    neg = (direction < 0.0).nonzero()[0]
    if not neg.size:
        return None
    ratios = wf.take(neg) / -direction.take(neg)
    i = ratios.argmin()
    return ratios[i], neg.item(i)


def _descent_ray(Qff, wf, gf, step):
    """``(d, (t, i))``: a direction d on a face that LU refuses, which sums
    to zero and along which the objective does not rise up to the step t at
    which the weight at position i reaches zero; or None.  Qff, wf and gf
    are the face's block of Q, weights and gradient, and step is LU's
    refused step to the face's minimizer.

    On a dependent face a dependence d, with ``G'd = 0``, has a curvature
    ``d'Qff d`` at rounding level (``_DEPENDENT``), and the objective is
    linear along it.  Each candidate is turned where the objective's rate
    ``gf . d`` along it is positive.  The candidates, in order:

    - LU's step itself, where it is a dependence: on a face with one
      dependence its size comes from the null direction that only rounding
      keeps from a zero pivot.
    - The face's lightest member k written as an affine combination v of
      the rest of the face (an exact bordered solve with Q's column k on
      the right): ``d = v - e_k``, along which k loses weight.  It is
      taken where it is a dependence, or where the objective at the step t
      is no higher than now.  Where the solve is not exact, or d is
      neither, the next lightest member is written against what remains
      after it, and so on down to a single plane.
    """
    floor = _DEPENDENT * np.maximum.reduce(Qff.diagonal())

    def qualifies(d, descent):
        slope = gf @ d
        if slope > 0.0:
            d, slope = -d, -slope
        blocked = _ratio_test(wf, d)
        if blocked is None:
            return None
        t = blocked[0]
        curv = d @ Qff @ d
        if curv <= floor * (d @ d) or (
                descent and t * (slope + 0.5 * t * curv) <= 0.0):
            return d, blocked
        return None

    size = np.maximum.reduce(np.abs(step))
    if 0.0 < size < math.inf:
        found = qualifies(step / size, False)
        if found:
            return found
    order = wf.argsort(kind="stable")
    for p in range(wf.size - 1):
        rest = order[p + 1:]
        if rest.size == 1:
            v = np.ones(1)
        else:
            v, exact = _bordered(Qff.take(rest, 0).take(rest, 1),
                                 Qff[rest, order[p]], 1.0)
            if not exact:
                continue
        d = np.zeros(wf.size)
        d[order[p]] = -1.0
        d[rest] = v
        found = qualifies(d, True)
        if found:
            return found
    return None


# the triangle's 2x2 system is solved only when its determinant is at least
# this fraction of the sum of the magnitudes of its two products
_DET_GUARD = 1e-12


def _small_qp(Q, q, tol):
    """``(lam, residual)`` for a QP of two or three planes, from the faces
    of the simplex, or None when no face's minimizer meets ``tol``.

    Every face minimizer is a closed form in Python floats read from
    ``Q.tolist()`` and ``q.tolist()``: each edge ``{i, j}`` where the
    curvature along it is positive and the step ``t`` to the stationary
    point lies in [0, 1], then (at m = 3) the triangle where its 2x2 system
    passes the relative determinant guard and the weights are nonnegative,
    then each vertex.  A candidate's residual is computed as
    ``minimize_simplex_qp`` computes it, and the first that meets ``tol``
    is returned.  No float operation here raises: each division is by a
    positive or guarded number, an overflow gives inf, and inf or NaN fails
    every test a candidate must pass.
    """
    m = q.size
    A = Q.tolist()
    b = q.tolist()

    def met(w):
        lam = np.array(w)
        resid = _kkt_residual(lam, Q @ lam + q)
        return (lam, resid) if resid <= tol else None

    # the simplex's edges, one at m = 2 and three at m = 3; on the edge
    # lam = (1 - t) e_i + t e_j, grad_j - grad_i = s + t c
    for i, j in ((0, 1), (0, 2), (1, 2))[:2 * m - 3]:
        s = (A[j][i] - A[i][i]) + (b[j] - b[i])
        c = (A[j][j] - A[i][j]) - (A[j][i] - A[i][i])
        if c > 0.0:
            t = -s / c
            if 0.0 <= t <= 1.0:
                w = [0.0] * m
                w[i], w[j] = 1.0 - t, t
                done = met(w)
                if done:
                    return done
    if m == 3:
        # lam = e_0 + y_1 (e_1 - e_0) + y_2 (e_2 - e_0) with H y = -g, where
        # g_a = grad_a - grad_0 at e_0 and H the Jacobian of those gaps;
        # scaled by max|H| so that no product overflows
        g1 = (A[1][0] - A[0][0]) + (b[1] - b[0])
        g2 = (A[2][0] - A[0][0]) + (b[2] - b[0])
        h11 = (A[1][1] - A[0][1]) - (A[1][0] - A[0][0])
        h12 = (A[1][2] - A[0][2]) - (A[1][0] - A[0][0])
        h21 = (A[2][1] - A[0][1]) - (A[2][0] - A[0][0])
        h22 = (A[2][2] - A[0][2]) - (A[2][0] - A[0][0])
        h = max(abs(h11), abs(h12), abs(h21), abs(h22))
        if h > 0.0:
            h11, h12, h21, h22 = h11 / h, h12 / h, h21 / h, h22 / h
            g1, g2 = g1 / h, g2 / h
            det = h11 * h22 - h12 * h21
            if abs(det) > _DET_GUARD * (abs(h11 * h22) + abs(h12 * h21)):
                y1 = (h12 * g2 - h22 * g1) / det
                y2 = (h21 * g1 - h11 * g2) / det
                y0 = 1.0 - y1 - y2
                if y0 >= 0.0 and y1 >= 0.0 and y2 >= 0.0:  # False on NaN
                    done = met([y0, y1, y2])
                    if done:
                        return done
    for i in range(m):
        w = [0.0] * m
        w[i] = 1.0
        done = met(w)
        if done:
            return done
    return None


def _active_set(Q, q, w, tol, max_iter):
    """The finite active-set method from the feasible weights w, whose
    support is the first face; see ``minimize_simplex_qp``."""
    m = q.size
    face = w.nonzero()[0]
    grad = None  # Q w + q, while it is current
    why = "its face minimizers are too inexact to go on"
    for _ in range(max_iter):
        Qff = Q.take(face, 0).take(face, 1)
        wf = w.take(face)
        gf = Qff @ wf + q.take(face) if grad is None else grad.take(face)
        if face.size == 1:
            step, exact = np.zeros(1), True
        else:
            # the step from wf to the face's minimizer: it sums to zero and
            # makes Qff (wf + step) + q_F constant
            step, exact = _bordered(Qff, gf.item(0) - gf, 0.0)
        ray = None if exact else _descent_ray(Qff, wf, gf, step)
        if ray is None:
            # an exact step, or LU's step on a face with neither a
            # dependence nor a descending ray: such a face is not dependent,
            # only too close to it for LU to be exact
            if not np.isfinite(step).all():
                break
            u = wf + step
            if np.minimum.reduce(u) >= 0.0:
                w = np.zeros(m)
                w[face] = u
                w /= np.add.reduce(w)
                grad = Q @ w + q
                resid = _kkt_residual(w, grad)
                if resid <= tol:
                    return w, resid
                j = grad.argmin()
                if (face == j).any():
                    break
                face = np.append(face, j)
                continue
            # a step that sums to zero has a negative entry; only one too
            # inexact to sum to zero may have none
            ray = step, _ratio_test(wf, step)
            if ray[1] is None:
                break
        # step toward the face's minimizer, or along the ray, until a weight
        # reaches zero, and drop that plane from the face
        direction, (t, i) = ray
        wf += t * direction
        wf = np.maximum(wf, 0.0)
        wf[i] = 0.0
        w[face] = wf
        kept = np.ones(face.size, dtype=bool)
        kept[i] = False
        face = face[kept]
        grad = None
    else:
        why = f"max_iter = {max_iter} steps ran out"
    raise QPConvergenceError(
        f"simplex QP did not reach residual {tol:.3e} (m={m}, last residual "
        f"{_kkt_residual(w, Q @ w + q):.3e}): {why}")


def minimize_simplex_qp(Q, q, lam0=None, tol=1e-12, max_iter=50_000):
    """Minimize 0.5 lam'Q lam + q'lam over the unit simplex.

    Q is symmetric positive semidefinite, as a Gram matrix is.  With two or
    three planes the closed-form minimizers of the simplex's faces are
    tried first (``_small_qp``), and the first that meets ``tol`` is
    returned; ``lam0`` is not read.  Otherwise, and when none meets it, the
    finite active-set method runs (see the module docstring), from the
    positive part of ``lam0`` scaled onto the simplex, or without a warm
    start (or with one that has no positive entry) from the vertex of least
    objective.  ``max_iter`` bounds its steps: each step solves one face
    and then moves the weights, lets a plane enter, or returns; on a face
    that LU refuses, the ray may solve smaller faces too.

    Returns (lam, residual) with residual = sum_i lam_i (grad_i - min grad),
    the duality gap of lam over the simplex.
    Raises QPConvergenceError when a face minimizer is too inexact to reach
    ``tol`` (the least gradient is already on the face) or after
    ``max_iter`` steps, and ValueError when Q or q is not finite or an entry
    of either exceeds a quarter of the largest double, when ``lam0`` is
    given but is not a finite vector of q's length (on either path), or
    when tol is not positive.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    # A finite nonzero sum of squares (vdot does not warn) means finite
    # entries below sqrt(max double), far inside _Q_LIMIT, and for Q a
    # nonzero matrix; only a zero, overflowing or NaN sum needs the scan
    Q_ok = 0.0 < np.vdot(Q, Q) < math.inf
    Q_zero = False
    if not Q_ok:
        # max|Q| without an m x m temporary; a NaN still propagates
        Q_max = max(-np.minimum.reduce(Q, axis=None),
                    np.maximum.reduce(Q, axis=None))
        Q_ok = Q_max <= _Q_LIMIT
        Q_zero = Q_max == 0.0
    if not ((0.0 < np.vdot(q, q) < math.inf
             or max(-np.minimum.reduce(q, axis=None),
                    np.maximum.reduce(q, axis=None)) <= _Q_LIMIT)
            and Q_ok):
        raise ValueError("minimize_simplex_qp: non-finite input "
                         "(or |Q| or |q| too large to difference)")
    if not tol > 0:  # a NaN tol would run to the cap
        raise ValueError("tol must be positive")
    m = q.size
    if Q.shape != (m, m):
        raise ValueError(f"minimize_simplex_qp: Q must be {m} x {m} for q "
                         f"of length {m}")
    if lam0 is not None:
        lam0 = np.asarray(lam0, dtype=float)
        # a finite sum of squares means finite entries; only one that
        # overflows (vdot does not warn) or is NaN needs each entry checked
        if lam0.shape != (m,) or not (math.isfinite(np.vdot(lam0, lam0))
                                      or np.isfinite(lam0).all()):
            raise ValueError(f"minimize_simplex_qp: lam0 must be a finite "
                             f"vector of length {m}")
    if m == 1:
        return np.ones(1), 0.0
    if Q_zero:
        lam = np.zeros(m)
        lam[int(np.argmin(q))] = 1.0
        return lam, 0.0
    if m <= 3:
        done = _small_qp(Q, q, tol)
        if done:
            return done

    w = np.zeros(m) if lam0 is None else np.maximum(lam0, 0.0)
    top = np.maximum.reduce(w)
    if top > 0.0:
        # the warm start's positive part, scaled onto the simplex; its
        # support is the first face
        w /= top
        w /= np.add.reduce(w)
    else:
        # the vertex of least objective
        w[int((0.5 * Q.diagonal() + q).argmin())] = 1.0
    with np.errstate(all="ignore"):
        return _active_set(Q, q, w, tol, max_iter)


def prox_of_model(bundle, tol_kkt=None, warm_start=None):
    """Prox of the bundle's piecewise-linear model at its prox-centre.

    Minimizes the dual ``(1/(2r))||G @ lam||^2 - e @ lam`` over the unit
    simplex, where G's columns are the bundle's subgradients and e holds the
    plane values at the prox-centre, and recovers
    ``x_next = z - (1/r) G @ lam``.

    Parameters
    ----------
    bundle : Bundle
        Current model bundle (nonempty).
    tol_kkt : float, optional
        Target residual of the dual, the model prox's gap delta; defaults
        to ``1e-10 * (1 + max|e|)``.  The solver passes
        ``THETA r s_tol**2``.
    warm_start : array, optional
        Dual weights aligned with the bundle's rows.

    Returns
    -------
    (x_next, lam, kkt_residual)
        ``kkt_residual`` is the dual residual that ``minimize_simplex_qp``
        reports, ``sum_i lam_i (grad_i - min grad)``, which equals the gap
        ``delta = phi(x_next) - lam . planes(x_next)`` up to rounding; it
        is 0.0 when every subgradient vanishes.
    """
    if tol_kkt is None:
        e = bundle.centre_values
        tol_kkt = 1e-10 * (1.0 + np.maximum.reduce(np.abs(e)))
    if not tol_kkt > 0:
        raise ValueError("tol_kkt must be positive")
    r = bundle.prox_param
    G = bundle.subgrads.T  # (n, m), columns are bundle subgradients
    Q = G.T @ G
    if r != 1.0:  # dividing by 1.0 is the identity
        Q /= r
    lam, resid = minimize_simplex_qp(Q, -bundle.centre_values,
                                     lam0=warm_start, tol=tol_kkt)
    step = G @ lam
    if r != 1.0:
        step /= r
    return bundle.prox_centre - step, lam, resid


def dist_to_hull(g, vectors):
    """Euclidean distance from g to the convex hull of the given vectors.

    ``vectors`` is an iterable of n-vectors (or an (m, n) array).
    """
    g = np.asarray(g, dtype=float)
    V = np.atleast_2d(np.asarray(list(vectors) if not isinstance(vectors, np.ndarray) else vectors, dtype=float))
    if V.size == 0:
        raise ValueError("dist_to_hull needs a nonempty vector set")
    for row in V:
        if np.array_equal(row, g):
            return 0.0
    if V.shape[0] == 1:
        return float(np.linalg.norm(g - V[0]))
    Q = V @ V.T
    q = -V @ g
    tol = 1e-12 * (1.0 + np.abs(Q).max() + np.abs(q).max())
    lam, _ = minimize_simplex_qp(Q, q, tol=tol, max_iter=200_000)
    return float(np.linalg.norm(g - lam @ V))
