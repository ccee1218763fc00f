"""Simplex-constrained quadratic programming.

The prox of a max-of-affine model is computed through its dual: minimize
``(1/(2r))||G @ lam||^2 - e @ lam`` over the unit simplex, then recover the
primal point ``x = z - (1/r) G @ lam``.  The same machinery measures the
distance from a vector to the convex hull of a finite set of vectors.

An active-set polish from the (warm) starting point finishes almost every
solve.  Only when it stalls does an accelerated projected-gradient loop
start, and only then is its step size computed by power iteration.

Each face of three or more planes is solved once by LU (LAPACK's gesv,
called as NumPy's ``solve1`` gufunc, bitwise ``np.linalg.solve``) and
refined by further LU solves; the result stands only where LU certifies
it (see ``_lu_face``).  Every other face goes to least
squares through LAPACK's gelsd driver, called as NumPy's ``lstsq`` gufunc
without the Python wrapper around it.  Both gufuncs are private NumPy API,
checked against ``np.linalg.solve`` and ``np.linalg.lstsq`` by the test
suite.  A face of two planes reduces to a 1x1 system, which is solved in
scalar arithmetic by the closed form that gelsd itself computes, with the
same operations in the same order; where that closed form could round
differently the face goes through the gufunc.

Most prox QPs are small (three to a few dozen planes) and end on their
first face, so a call's fixed cost is mostly NumPy dispatch, not
arithmetic.  The hot path therefore calls the ufunc loops directly
(``np.add.accumulate`` for ``np.cumsum``, ``.nonzero()[0]`` for
``np.flatnonzero``, ``np.minimum.reduce``/``np.maximum.reduce`` for the
``min``/``max`` methods), keeps each face as one index array, takes scalar
square roots with ``math.sqrt`` and makes the polish's start weights only
when a boundary step reads them.  Each replacement runs the same loop on
the same operands as what it replaces, so every result is bitwise the same.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "QPConvergenceError",
    "project_simplex",
    "minimize_simplex_qp",
    "default_tol_kkt",
    "prox_of_model",
    "dist_to_hull",
]


class QPConvergenceError(RuntimeError):
    """Inner QP solver hit its iteration cap before reaching the target residual."""


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
    # Complementary slackness on the simplex: at the optimum the support of
    # lam lies on the minimal coordinates of the gradient.
    tau = np.minimum.reduce(grad)
    return float(np.maximum.reduce(lam * np.abs(grad - tau)))


_POWER_ITERS = 60


def _spectral_bound(Q):
    """Power-iteration estimate of the largest eigenvalue of PSD Q, from
    ``_POWER_ITERS`` steps."""
    m = Q.shape[0]
    v = np.full(m, 1.0 / np.sqrt(m))
    lam = 0.0
    for _ in range(_POWER_ITERS):
        w = Q @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return lam


def _null_basis_times(y):
    # N @ y for the null-space basis N = [e_0 - e_1, ..., e_{k-2} - e_{k-1}]
    out = np.empty(y.size + 1)
    out[:-1] = y
    out[-1] = 0.0
    out[1:] -= y
    return out


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


_EPS = np.finfo(float).eps
# The face solves difference Q twice and q once, so |H| <= 4 max|Q| and the
# right-hand side stay finite below this limit; LAPACK's gelsd can spin
# forever on the NaN that an overflowing difference (or a NaN input) puts
# into H.
_Q_LIMIT = np.finfo(float).max / 4.0


def _lstsq(H, rhs):
    """``np.linalg.lstsq(H, rhs, rcond=None)[0]`` for a square float64 H and
    a 1-d rhs: the same LAPACK gufunc, cutoff and error behaviour, without
    the wrapper's argument handling and output copies."""
    with np.errstate(call=_raise_lstsq_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(H, rhs[:, None], _EPS * H.shape[0],
                                signature="ddd->ddid")[0]
    return x[:, 0]


def _solve1(H, rhs):
    """``np.linalg.solve(H, rhs)`` for a square float64 H and a 1-d rhs, bit
    for bit: the same LAPACK gesv gufunc, without the wrapper's argument
    handling and its errstate, which the caller sets (``_lu_face``)."""
    return _umath_linalg.solve1(H, rhs, signature="dd->d")


# gelsd solves a 1x1 system a y = b as b * (1 / a) (LAPACK's dlascl) and
# returns 0 when a == 0; it rescales a and b first only outside about
# [2^-970, 2^970].  Inside this narrower range the closed form is gelsd's
# answer bit for bit.
_CLOSED_FORM_MIN = 2.0 ** -960
_CLOSED_FORM_MAX = 2.0 ** 960
# halving rounds only on magnitudes below this one (subnormal results)
_HALF_EXACT = 2.0 ** -1021


def _solve_1x1(a, b):
    """``_lstsq(np.array([[a]]), np.array([b]))[0]`` for floats a and b,
    bit for bit."""
    if a == 0.0:
        return 0.0
    if (_CLOSED_FORM_MIN <= abs(a) <= _CLOSED_FORM_MAX
            and (b == 0.0
                 or _CLOSED_FORM_MIN <= abs(b) <= _CLOSED_FORM_MAX)):
        return b * (1.0 / a)
    return float(_lstsq(np.array([[a]]), np.array([b]))[0])


def _edge_minimizer(Q, q, i, j):
    """``_face_minimizer(Q, q, [i, j])`` in scalar arithmetic, or None when
    a Q entry of the face has a subnormal half or a step overflows.

    Every array operation of the general path is mirrored in order: each
    1x1 product and length-1 dot rounds once, as they do, and the row sums
    of ``Qff @ lam0`` are exact sums of exact halves.  An entry whose half
    is subnormal may round when halved, and a fused multiply-add in the
    matrix product would not, so such a face takes the general path; so
    does a face on which a step overflows, where that path warns.  Only the
    sign of a zero may differ, and no zero's sign reaches the weights or
    the ray.
    """
    a, b, c, d = Q.item(i, i), Q.item(i, j), Q.item(j, i), Q.item(j, j)
    for entry in (a, b, c, d):
        if not (entry == 0.0 or abs(entry) >= _HALF_EXACT):
            return None
    h = (a - c) - (b - d)
    g = ((0.5 * a + 0.5 * b) + q.item(i)) - ((0.5 * c + 0.5 * d) + q.item(j))
    gg = g * g
    y = _solve_1x1(h, -g)
    rho = h * y + g
    rho_sq = rho * rho
    if not (math.isfinite(h) and math.isfinite(gg) and math.isfinite(rho_sq)):
        return None
    rho_norm = math.sqrt(rho_sq)
    for _ in range(3):
        if rho_norm == 0.0:
            break
        y_ref = y + _solve_1x1(h, -rho)
        rho_ref = h * y_ref + g
        ref_sq = rho_ref * rho_ref
        if not math.isfinite(ref_sq):
            return None
        ref_norm = math.sqrt(ref_sq)
        if ref_norm >= rho_norm:
            break
        y, rho, rho_norm = y_ref, rho_ref, ref_norm
    if rho_norm > 1e-9 * (1.0 + math.sqrt(gg)):
        # rho is not zero here, so 0.0 - (-rho) is rho
        return None, np.array([-rho, rho])
    return np.array([0.5 + y, 0.5 + (0.0 - y)]), None


def _refined(solve, H, g, y):
    """``(y, rho, |rho|)`` after up to three steps of iterative refinement
    of ``H y = -g`` from y, each one more ``solve`` with H; a step is kept
    only when its residual norm ``|rho| = |H y + g|`` is strictly smaller,
    so a zero norm ends the refinement without a solve."""
    rho = H @ y + g
    rho_norm = math.sqrt(rho @ rho)
    for _ in range(3):
        # a finite norm means a finite rho; only an overflowing one needs
        # the scan
        if rho_norm == 0.0 or not (math.isfinite(rho_norm)
                                   or np.isfinite(rho).all()):
            break
        y_ref = y + solve(H, -rho)
        rho_ref = H @ y_ref + g
        ref_norm = math.sqrt(rho_ref @ rho_ref)
        if ref_norm >= rho_norm:
            break
        y, rho, rho_norm = y_ref, rho_ref, ref_norm
    return y, rho, rho_norm


def _lu_face(H, g):
    """y solving the face system ``H y = -g`` by LU and up to three LU
    refinements, or None unless LU certifies it.

    The certificate: ``max|H| max|w| <= 1e8 max|p|`` for the solution w of
    ``H w = p`` with the fixed positive probe vector
    ``p = (1/2, 1/3, ..., 1/k)``, and for the refined y its residual is at
    most ``1e-12 (1 + |g|)`` and ``max|H| max|y| <= 1e8 max|g|``.  The
    probe is a condition estimate: a numerically singular H (duplicate or
    dependent subgradients) gives a w near ``|p| / (eps |H|)`` however
    consistent the face system is, and there LU would return an arbitrary
    point of the solution set where least squares returns the least-norm
    one.  An exactly zero pivot, or any invalid operation, refuses the face
    at once; every solve and product runs under one errstate, so no
    warning escapes.
    """
    with np.errstate(call=_raise_singular, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        try:
            y = _solve1(H, -g)
            h_max = np.maximum.reduce(np.abs(H), axis=None)
            # the probe goes first, so a numerically singular face is
            # refused before any refinement; max|p| = 1/2, and NaN fails
            # every test
            w = _solve1(H, 1.0 / np.arange(2.0, H.shape[0] + 2.0))
            if not h_max * np.maximum.reduce(np.abs(w)) <= 5e7:
                return None
            y, rho, rho_norm = _refined(_solve1, H, g, y)
        except np.linalg.LinAlgError:
            return None
        if (rho_norm <= 1e-12 * (1.0 + math.sqrt(g @ g))
                and (h_max * np.maximum.reduce(np.abs(y))
                     <= 1e8 * np.maximum.reduce(np.abs(g)))):
            return y
    return None


def _face_minimizer(Q, q, face):
    """Minimizer of the QP on the affine hull of a simplex face.

    Eliminates the sum-to-one constraint through the null-space basis
    ``N = [e_0 - e_1, ..., e_{k-2} - e_{k-1}]`` and solves the reduced
    system ``H y = -g``.  N is applied as first differences and never
    formed: every entry of ``N'QN``, ``N'v`` and ``Ny`` is one difference of
    two numbers, so it rounds as the products with N do.

    A face of three or more planes is first solved by LU, and the result
    stands where LU certifies it (``_lu_face``).  Every other face
    (singular, inconsistent, ill-conditioned or non-finite, and a two-plane
    face the closed form leaves) is solved by least squares, which stays
    accurate when the face block of Q is singular or badly scaled.

    Returns ``(weights, descent)``: face weights summing to one (possibly
    negative), or ``(None, descent)`` when the face problem is unbounded
    below, in which case ``descent`` is a flat in-face descent ray direction.
    """
    k = len(face)
    if k == 1:
        return np.ones(1), None
    if k == 2:
        found = _edge_minimizer(Q, q, *face)
        if found is not None:
            return found
    Qff = Q.take(face, 0).take(face, 1)
    lam0 = np.empty(k)
    lam0.fill(1.0 / k)
    D = Qff[:-1] - Qff[1:]
    H = D[:, :-1] - D[:, 1:]
    v = Qff @ lam0 + q.take(face)
    g = v[:-1] - v[1:]
    y = _lu_face(H, g) if k > 2 else None
    if y is not None:
        return lam0 + _null_basis_times(y), None
    y, rho, rho_norm = _refined(_lstsq, H, g, _lstsq(H, -g))
    if rho_norm > 1e-9 * (1.0 + math.sqrt(g @ g)):
        # g has a component in the null space of PSD H: the quadratic is flat
        # along -rho while the linear term decreases, so no interior minimum
        return None, _null_basis_times(-rho)
    return lam0 + _null_basis_times(y), None


def _polish(Q, q, lam, tol):
    """Active-set refinement from an approximate simplex minimizer.

    Repeatedly minimizes over the affine hull of the current support face,
    stepping to the face boundary and dropping the blocking coordinate when
    the unconstrained face point is infeasible or the face is unbounded, and
    pulling in coordinates whose gradient undercuts the face value by more
    than the target residual.  Returns ``(best, residual)`` as soon as a
    candidate meets ``tol``, else None.
    """
    m = q.size
    # lam is on the simplex, so some weight is at least 1/m
    face = (lam > 1e-12).nonzero()[0]
    seen = {face.tobytes()}
    # the current weights; until a face point is feasible they are the start
    # weights, made when a boundary step first reads them (a call that ends
    # on its first face never does)
    w = None

    def step_to_boundary(target, descent):
        # longest feasible step from w toward target, or along the in-face
        # descent ray when there is one, then shrink the face to the
        # surviving support
        nonlocal w, face
        if w is None:
            w = np.zeros(m)
            w[face] = np.maximum(lam[face], 1.0 / (m * m))
            w /= w.sum()
        if descent is None:
            direction = target - w
        else:
            direction = np.zeros(m)
            direction[face] = descent
        neg = [i for i in face if direction[i] < 0.0 and w[i] > 0.0]
        if not neg:
            return False
        t = min(w[i] / -direction[i] for i in neg)
        w = w + t * direction
        for i in neg:
            if w[i] <= w.max() * 1e-15:
                w[i] = 0.0
        face = face[w.take(face) > 0.0]
        s = w.sum()
        if s <= 0.0 or not face.size:
            return False
        w /= s
        return True

    for _ in range(3 * m + 20):
        weights, descent = _face_minimizer(Q, q, face)
        if descent is not None:
            if not step_to_boundary(None, descent):
                return None
            continue
        lowest = np.minimum.reduce(weights)
        # NaN propagates through both reductions
        if not (math.isfinite(lowest)
                and math.isfinite(np.maximum.reduce(weights))):
            return None
        target = np.zeros(m)
        target[face] = weights
        if lowest < -1e-12:
            if not step_to_boundary(target, None):
                return None
            continue
        w = np.maximum(target, 0.0)
        w /= w.sum()
        grad = Q @ w + q
        resid = _kkt_residual(w, grad)
        if resid <= tol:
            return w, resid
        face_val = np.minimum.reduce(grad.take(face))
        j = int(grad.argmin())
        if j not in face and grad[j] < face_val - 0.25 * tol:
            trial = np.sort(np.append(face, j))
            if trial.tobytes() not in seen:
                seen.add(trial.tobytes())
                face = trial
                continue
        # stuck above tolerance: evict the worst complementarity violator
        # (a small weight sitting on a non-minimal gradient) and re-solve
        if face.size > 1:
            viol = [(w[i] * (grad[i] - face_val), i) for i in face]
            worst, i_worst = max(viol)
            trial = face[face != i_worst]
            if worst > tol and trial.tobytes() not in seen:
                seen.add(trial.tobytes())
                face = trial
                w[i_worst] = 0.0
                s = w.sum()
                if s > 0.0:
                    w /= s
                else:
                    w = np.zeros(m)
                    w[face] = 1.0 / face.size
                continue
        return None
    return None


def minimize_simplex_qp(Q, q, lam0=None, tol=1e-12, max_iter=50_000):
    """Minimize 0.5 lam'Q lam + q'lam over the unit simplex.

    An active-set polish from ``lam0`` (projected onto the simplex) finishes
    almost every call.  If it stalls, accelerated projected gradient runs
    (step 1/L, restarted on non-monotone objective) with the polish retried
    every 25 steps; L comes from a power iteration made only when this loop
    starts.

    Returns (lam, residual) with residual = max_i lam_i |grad_i - min grad|.
    Raises QPConvergenceError if the cap is hit first, and ValueError when Q
    or q is not finite or an entry of either exceeds a quarter of the largest
    double, or when tol is not positive.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    # max|Q| without an m x m temporary; a NaN still propagates
    Q_max = max(-np.minimum.reduce(Q, axis=None),
                np.maximum.reduce(Q, axis=None))
    if not (max(-np.minimum.reduce(q, axis=None),
                np.maximum.reduce(q, axis=None)) <= _Q_LIMIT
            and Q_max <= _Q_LIMIT):
        raise ValueError("minimize_simplex_qp: non-finite input "
                         "(or |Q| or |q| too large to difference)")
    if not tol > 0:  # a NaN tol would run to the cap
        raise ValueError("tol must be positive")
    m = q.size
    if m == 1:
        return np.ones(1), 0.0
    if Q_max == 0.0:
        lam = np.zeros(m)
        lam[int(np.argmin(q))] = 1.0
        return lam, 0.0

    if lam0 is None:
        lam = np.full(m, 1.0 / m)
    else:
        lam = project_simplex(np.asarray(lam0, dtype=float))

    def finished(cand):
        # (cand, residual) when cand meets the target, else None
        resid = _kkt_residual(cand, Q @ cand + q)
        return (cand, resid) if resid <= tol else None

    done = finished(lam) or _polish(Q, q, lam, tol)
    if done:
        return done

    # the step size is needed only once the projected-gradient loop starts
    L = _spectral_bound(Q) * 1.01
    if L <= 0.0:
        L = 1.0
    step = 1.0 / L
    y = lam.copy()
    t = 1.0
    f_best = np.inf
    for it in range(max_iter):
        grad_y = Q @ y + q
        lam_new = project_simplex(y - step * grad_y)
        f_new = 0.5 * lam_new @ Q @ lam_new + q @ lam_new
        if f_new > f_best:
            # restart the momentum sequence
            y = lam_new.copy()
            t = 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = lam_new + ((t - 1.0) / t_next) * (lam_new - lam)
            t = t_next
            f_best = f_new
        lam = lam_new
        if it % 25 == 0 or it == max_iter - 1:
            done = finished(lam) or _polish(Q, q, lam, tol)
            if done:
                return done
    raise QPConvergenceError(
        f"simplex QP did not reach residual {tol:.3e} in {max_iter} iterations "
        f"(m={m}, last residual {_kkt_residual(lam, Q @ lam + q):.3e}); "
        "the subproblem is likely ill-conditioned, e.g. Q has near-cancelling "
        "rows or a tiny negative eigenvalue from rounding"
    )


def default_tol_kkt(bundle):
    """Default KKT residual target: 1e-10 scaled by the largest plane value
    at the prox-centre."""
    e = bundle.centre_values
    return 1e-10 * (1.0 + np.maximum.reduce(np.abs(e)))


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
        Target KKT residual of the dual; defaults to ``1e-10 * (1 + max|e|)``.
    warm_start : array, optional
        Dual weights aligned with the bundle's rows.

    Returns
    -------
    (x_next, lam, kkt_residual)
        ``kkt_residual`` is the dual residual that ``minimize_simplex_qp``
        reports, ``max_i lam_i |grad_i - min grad|``; it is 0.0 when every
        subgradient vanishes.
    """
    if tol_kkt is None:
        tol_kkt = default_tol_kkt(bundle)
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
