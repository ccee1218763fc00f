"""Max-of-quadratics instances with controlled activity and known prox points.

The generator draws the true prox point x* first, then builds quadratics
around it so that a designated active set shares the maximum at x*, the
prox optimality certificate r(z - x*) in hull{grad q_i(x*)} holds by
construction, and a designated set is active at the prox-centre z.

Quadratics are stored in centred form, q(x) = 0.5 e'Ae + b'e + c with
e = x - center, so the designated values at x* are exact in floating point
(e vanishes bitwise at x = center).  With center = 0 this is the plain
0.5 x'Ax + b'x + c parametrization.

A problem is its four stacks (``MaxQuadProblem``), checked once when it is
built.  One kernel, ``_PiecesAt``, gives piece values in three batched
matrix products: one piece's, every piece's and the generator's trial
values, so the generator's exact ties are the ties that ``evaluate`` and
``check_problem`` see.  On large stacks ``evaluate`` evaluates only the
pieces whose certified upper bound (from each Hessian's largest
eigenvalue) reaches an evaluated piece's value, on views of the stacks, so
its result is bitwise that of evaluating every piece.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .oracles import make_rng, standard_normals
from .qp import QPConvergenceError, dist_to_hull, minimize_simplex_qp

__all__ = [
    "ProblemCertificateError",
    "Quadratic",
    "MaxQuadProblem",
    "generate_max_quad",
    "check_problem",
    "reference_prox",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
]

ACTIVITY_MARGIN = 1e-3
# MaxQuadProblem.evaluate evaluates only the pieces that can reach the max
# once its Hessians hold this many entries (nf n^2, 2.4 MB).  Measured on a
# 2-vCPU Xeon with 2 MB of L2 per core, at the oracle points of sparse
# solves: below it (nf = n = 60; n = 80, nf = 27) skipping pieces was 24-40%
# slower than the full product, above it (nf = n = 70; n = 100, nf = 34)
# 9-28% faster, as the full product streams the stack from L3
PRUNE_MIN_SIZE = 300_000
# check_problem's bound on the distance from r (z - x_star) to the hull of
# the active gradients at x_star
HULL_TOL = 1e-10
# reference_prox stops once its gap certifies this distance, or raises after
# this many cutting-plane iterations; _newton_polish runs at most this many
# Newton steps per active set
REFERENCE_TOL = 1e-7
REFERENCE_MAX_ITER = 4000
NEWTON_ROUNDS = 20


class ProblemCertificateError(RuntimeError):
    """A generated problem failed its ground-truth certificate."""


class _PiecesAt:
    """Pieces stacked as b (k, 1, n), w (k,) and centres C (k, n) at one
    point x, with ``E`` = x - C, its row and column views and ``linear`` =
    b'e computed once.  ``values(A)`` is 0.5 e'Ae + b'e + w per piece for
    Hessians A (k, n, n), the pieces' own or trial ones; ``run(A, lo, hi)``
    is that for the pieces lo:hi, on views."""

    __slots__ = ("E", "row", "col", "linear", "w")

    def __init__(self, b, w, C, x):
        self.E = E = x - C
        self.row, self.col = E[:, None, :], E[:, :, None]
        self.linear = (b @ self.col)[:, 0, 0]
        self.w = w

    def values(self, A):
        return 0.5 * ((self.row @ A) @ self.col)[:, 0, 0] + self.linear + self.w

    def run(self, A, lo, hi):
        part = _PiecesAt.__new__(_PiecesAt)
        part.row, part.col, part.linear, part.w = (
            self.row[lo:hi], self.col[lo:hi], self.linear[lo:hi], self.w[lo:hi])
        return part.values(A[lo:hi])


def _point(x, n):
    """x as a float array of shape (n,); anything else would broadcast
    against the pieces' centres and be evaluated at another point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"point of shape {x.shape}, expected ({n},)")
    return x


@dataclass(frozen=True)
class Quadratic:
    """The quadratic 0.5 e'Ae + b'e + c with e = x - center: offset ``c``,
    centre ``center``.  A piece of a ``MaxQuadProblem`` (a view into its
    stacks), which checks that A is symmetric and PSD; a ``Quadratic``
    checks nothing."""

    A: np.ndarray
    b: np.ndarray
    c: float
    center: np.ndarray

    def __post_init__(self):
        # store C-ordered float arrays: on a Fortran-ordered A the value
        # rounds differently from the C-ordered copy in a problem's stack
        for name in ("A", "b", "center"):
            object.__setattr__(self, name, np.ascontiguousarray(
                getattr(self, name), dtype=float))

    def value(self, x):
        return float(_PiecesAt(self.b[None, None], self.c, self.center[None],
                               _point(x, self.center.size)).values(self.A[None])[0])

    def gradient(self, x):
        e = _point(x, self.center.size) - self.center
        return self.A @ e + self.b


@dataclass(frozen=True)
class MaxQuadProblem:
    """f(x) = max_i q_i(x) with certified prox ground truth at (z, r).

    The pieces are four stacks named as ``Quadratic``'s fields: ``A``
    (nf, n, n), ``b`` (nf, n), ``c`` (nf,) and ``centers`` (nf, n), held as
    C-ordered float arrays.  Building a problem checks them once and raises
    ValueError unless their shapes match with nf >= 1 and n = z.size >= 1,
    each Hessian is symmetric to 1e-12 (1 + max|A_i|), and one ``eigvalsh``
    over the stack finds no eigenvalue below -1e-10.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    centers: np.ndarray
    z: np.ndarray
    r: float
    x_star: np.ndarray
    active_at_xstar: tuple
    active_at_z: tuple
    seed: int
    sparse: bool = False

    @property
    def n(self):
        return self.z.size

    @property
    def nf(self):
        return self.c.size

    def __post_init__(self):
        A, b, c, C = (np.ascontiguousarray(a, dtype=float)
                      for a in (self.A, self.b, self.c, self.centers))
        nf, n = c.size, self.n
        if not (nf and n):
            raise ValueError("a problem needs at least one piece and n >= 1")
        if (A.shape, b.shape, c.shape, C.shape) != (
                (nf, n, n), (nf, n), (nf,), (nf, n)):
            raise ValueError(
                f"piece stacks disagree: A {A.shape}, b {b.shape}, c "
                f"{c.shape}, centers {C.shape} with n = {n}")
        for Ai in A:
            if not np.all(np.abs(Ai - Ai.T) <= 1e-12 * (1.0 + np.abs(Ai).max())):
                raise ValueError("Hessian must be symmetric")
        # row i is bitwise eigvalsh(A[i]); the largest eigenvalues bound the
        # pieces in _candidate_values
        eigs = np.linalg.eigvalsh(A)
        if (eigs < -1e-10).any():
            raise ValueError("Hessian must be positive semidefinite")
        for name, stack in zip(("A", "b", "c", "centers"), (A, b, c, C)):
            object.__setattr__(self, name, stack)
        object.__setattr__(self, "_pieces", (A, b[:, None, :], c, C))
        object.__setattr__(self, "_eig_max", eigs[:, -1])

    @cached_property
    def quadratics(self):
        """Each piece as a ``Quadratic`` of views into the stacks, with its
        offset a Python float."""
        return tuple(map(Quadratic, self.A, self.b, self.c.tolist(),
                         self.centers))

    def piece_values(self, x):
        """Every piece's value at x; the same formula as ``Quadratic.value``."""
        A, b, w, C = self._pieces
        return _PiecesAt(b, w, C, _point(x, self.n)).values(A)

    def evaluate(self, x):
        """(max value, argmax index set by exact fp equality, gradient of the
        first active quadratic).

        When the Hessians hold ``PRUNE_MIN_SIZE`` entries or more, only the
        pieces that can reach the max are evaluated (``_candidate_values``).
        Each rounds as in ``piece_values``, and every other piece is
        certified to round strictly below the max, so the result is bitwise
        that of evaluating them all.
        """
        x = _point(x, self.n)
        A, b, w, C = self._pieces
        at = _PiecesAt(b, w, C, x)
        if A.size >= PRUNE_MIN_SIZE:
            cand, vals = self._candidate_values(at)
        else:
            cand, vals = None, at.values(A)
        top = float(np.maximum.reduce(vals))
        active = (vals == top).nonzero()[0]
        if not active.size:  # no piece attains a NaN max
            raise ValueError(f"MaxQuadProblem.evaluate: the max is NaN at "
                             f"{x!r} (a non-finite point, or piece values "
                             f"that overflow)")
        if cand is not None:
            active = cand[active]
        active = tuple(active.tolist())
        return top, active, self.quadratics[active[0]].gradient(x)

    @cached_property
    def _bound_terms(self):
        """The per-piece coefficients (k1, k0) of the bound
        U = (l + w) + s k1 + k0 in ``_candidate_values``.  A piece whose
        Hessian is not exactly symmetric (eigvalsh reads one triangle) gets
        an infinite k1 and is never dropped."""
        A = self.A
        tiny = np.finfo(float).tiny
        sigma = (self.n + 2) ** 2 * np.finfo(float).eps
        rho = np.abs(A).sum(axis=2).max(axis=1) + tiny
        half_b = 0.5 * np.linalg.norm(self.b, axis=1)
        symmetric = (A == A.transpose(0, 2, 1)).all(axis=(1, 2))
        k1 = np.where(symmetric, 0.5 * self._eig_max + sigma * (rho + half_b),
                      np.inf)
        return k1, sigma * (np.abs(self.c) + half_b + tiny)

    def _candidate_values(self, at):
        """(cand, values): the ascending indices of the pieces that may
        attain the max at the point of ``at`` (a ``_PiecesAt`` of this
        problem's pieces), and their values; cand is None when that is every
        piece, as it is when top0 is not finite.

        The values come from ``at.run`` on each run of consecutive
        candidates, so each rounds as in ``piece_values``, no Hessian is
        copied and each candidate is evaluated once.  The piece with the
        largest l + w is evaluated first; its value is top0.  A piece is
        dropped when its bound
            U = (l + w) + s (0.5 lam + sigma (rho + ||b|| / 2))
                + sigma (|w| + ||b|| / 2)
        is below top0.  Here l is the computed b'e (the very number its value
        adds), s the computed ||e||^2, lam the largest eigenvalue eigvalsh
        returned, rho = ||A||_inf and sigma = (n+2)^2 eps.  U bounds the
        computed value v = fl(fl(0.5 q + l) + w), q = fl(fl(e'A) e), from
        above, so a dropped piece rounds strictly below the max.  With
        u = eps / 2 and gamma_k = k u / (1 - k u):
          - q: two length-n dot products in any order (BLAS, FMA or not),
            |q - e'Ae| <= gamma_(2n+1) |e|'|A||e| <= gamma_(2n+1) rho ||e||^2.
          - lam: the symmetric eigensolver is backward stable, lam is an
            eigenvalue of A + F with ||F||_2 <= p(n) u ||A||_2, so
            e'Ae <= (lam + p(n) u rho) ||e||^2; p(n) <= n^2 is assumed.
          - s: ||e||^2 <= s / (1 - gamma_n).
          - v: |v - (0.5 q + l + w)| <= gamma_2 (0.5 |q| + |l| + |w|).
          - l: |l| <= (1 + gamma_n) ||b|| ||e|| <= (1 + gamma_n) ||b||
            (1 + ||e||^2) / 2.
        Together v <= l + w + 0.5 lam s + (n^2 + 3n + 7) u (rho s + |l| + |w|)
        up to second-order terms, and sigma = 2 (n+2)^2 u leaves room for the
        few roundings in U itself.  The tiny added to rho and |w| covers
        gradual underflow, at most 2^-1075 per product.  A NaN bound keeps
        its piece, and a non-finite top0 keeps every piece.
        """
        A = self.A
        lower = at.linear + at.w
        i0 = int(lower.argmax())
        first = at.run(A, i0, i0 + 1)
        top0 = float(first[0])
        cand, runs = None, [(0, self.nf)]  # every piece
        if math.isfinite(top0):
            k1, k0 = self._bound_terms
            upper = lower + np.vecdot(at.E, at.E) * k1 + k0
            kept = (~(upper < top0)).nonzero()[0]
            if kept.size < self.nf:
                # runs from c[0] and from each c[k + 1] to c[k] and to c[-1]
                cand, c = kept, kept.tolist()
                ends = (kept[1:] - kept[:-1] > 1).nonzero()[0].tolist()
                runs = zip([c[0]] + [c[k + 1] for k in ends],
                           [c[k] + 1 for k in ends] + [c[-1] + 1])
        parts = []
        for lo, hi in runs:
            if lo <= i0 < hi:  # top0's value stands for its piece
                if lo < i0:
                    parts.append(at.run(A, lo, i0))
                parts.append(first)
                lo = i0 + 1
            if lo < hi:
                parts.append(at.run(A, lo, hi))
        return cand, np.concatenate(parts)


def _pin_curvature(A, b, w, c, x, target):
    """Return A' = A + t I (t >= 0) with the value at x of the piece
    0.5 (x-c)'A'(x-c) + b'(x-c) + w exactly equal to target, or None if no
    such float t is found.

    Adding t I leaves the value and gradient at the piece's own centre c
    untouched, so activity at x* and the hull certificate survive.
    """
    n = A.shape[0]
    eye = np.eye(n)
    at = _PiecesAt(b[None, None], w, c[None], x)

    def val(t):
        return float(at.values((A + t * eye)[None])[0])

    v0 = val(0.0)
    if v0 == target:
        return A
    if v0 > target:
        return None
    e = x - c
    ee = float(e @ e)
    if ee == 0.0:
        return None
    t_hi = 4.0 * (target - v0) / ee + 1e-300
    for _ in range(80):
        if val(t_hi) >= target:
            break
        t_hi *= 2.0
    else:
        return None
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        vm = val(mid)
        if vm == target:
            return A + mid * eye
        if vm < target:
            lo = mid
        else:
            hi = mid
    t = lo
    for _ in range(64):
        t = np.nextafter(t, np.inf)
        vt = val(t)
        if vt == target:
            return A + t * eye
        if vt > target:
            return None
    return None


def _try_generate(rng, n, nf, nf_xstar, nf_z, r, sparse, seed):
    z = standard_normals(rng, n)
    d = standard_normals(rng, n)
    nd = np.linalg.norm(d)
    if nd == 0.0:
        return None
    s = 0.1 + 0.9 * rng.random()
    x_star = z + s * (d / nd)

    act_x = list(range(nf_xstar))
    u = 0.05 + 0.95 * rng.random(nf_xstar)
    lam = u / u.sum()
    target = r * (z - x_star)
    grads = np.empty((nf, n))
    for i in range(nf):
        grads[i] = standard_normals(rng, n)
    grads[act_x[-1]] = (target - sum(lam[i] * grads[act_x[i]]
                                     for i in range(nf_xstar - 1))) / lam[-1]

    # an attempt works on the stacks alone and builds the problem only on
    # success; every piece is centred at x*
    hessians = np.empty((nf, n, n))
    centers = np.broadcast_to(x_star, (nf, n))
    offsets = []
    for i in range(nf):
        B = standard_normals(rng, (n, n))
        if sparse:
            B = B * (rng.random((n, n)) < 0.05)
        hessians[i] = B.T @ B
        if i in act_x:
            offsets.append(0.0)
        else:
            offsets.append(-(ACTIVITY_MARGIN
                             + (1.0 - ACTIVITY_MARGIN) * rng.random()))

    # z-activity: raise designated pieces to the current max at z by adding
    # t I; the addition vanishes at x* so the x* certificate is intact.
    # A piece changes only at its own turn, so until then vals_z holds for it
    vals_z = _PiecesAt(grads[:, None, :], np.array(offsets), centers,
                       z).values(hessians).tolist()
    top = int(np.argmax(vals_z))
    others = [i for i in range(nf) if i != top]
    act_z = sorted([top] + others[:nf_z - 1])
    M = vals_z[top]
    for i in act_z:
        if vals_z[i] == M:
            continue
        A_new = _pin_curvature(hessians[i], grads[i], offsets[i], x_star, z, M)
        if A_new is None:
            return None
        hessians[i] = A_new

    # push non-designated pieces below the margin at z
    for j in range(nf):
        vj = vals_z[j]
        if j not in act_z and vj > M - ACTIVITY_MARGIN:
            if j in act_x:
                return None
            offsets[j] -= vj - (M - 1.5 * ACTIVITY_MARGIN)

    return MaxQuadProblem(hessians, grads, np.array(offsets), centers, z,
                          float(r), x_star, tuple(act_x), tuple(act_z), seed,
                          sparse=sparse)


def generate_max_quad(n, nf, nf_xstar, nf_z, r, seed, sparse=False):
    """Generate a certified max-of-quadratics instance.

    Deterministic in ``seed`` for a fixed BLAS thread count.  At n = 100
    the Hessian products ``B.T @ B`` round differently with one BLAS thread
    than with several, so the instance then depends on the thread count
    too (``OPENBLAS_NUM_THREADS``).  Raises ValueError on bad parameters and
    ProblemCertificateError if none of 80 draws certifies.  That is rare at
    n <= 25, but at n = 100 (sparse) at least 14 of the 30 shapes of
    ``proxbundle bench --grid high`` raise it, each after minutes of
    retries: ``_pin_curvature`` rarely hits the z-activity target exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= nf_xstar <= nf and 1 <= nf_z <= nf):
        raise ValueError("need 1 <= nf_xstar <= nf and 1 <= nf_z <= nf")
    if not r > 0:
        raise ValueError("r must be positive")
    rng = make_rng(seed)
    for _ in range(80):
        prob = _try_generate(rng, n, nf, nf_xstar, nf_z, r, sparse, int(seed))
        if prob is not None:
            check_problem(prob)
            return prob
    raise ProblemCertificateError(
        f"could not generate a certified instance for seed {seed}")


def check_problem(problem):
    """Verify the ground-truth certificate; raises ProblemCertificateError."""
    nf = problem.nf
    if not (1 <= len(problem.active_at_xstar) <= nf
            and 1 <= len(problem.active_at_z) <= nf):
        raise ProblemCertificateError("active set sizes out of range")

    def check_activity(point, designated, label):
        vals = problem.piece_values(point)
        top = vals.max()
        argmax = set(int(i) for i in np.nonzero(vals == top)[0])
        if argmax != set(designated):
            raise ProblemCertificateError(
                f"max at {label} attained on {sorted(argmax)}, expected {sorted(designated)}")
        rest = [vals[j] for j in range(nf) if j not in argmax]
        if rest and max(rest) > top - ACTIVITY_MARGIN:
            raise ProblemCertificateError(f"activity margin violated at {label}")

    check_activity(problem.x_star, problem.active_at_xstar, "x_star")
    check_activity(problem.z, problem.active_at_z, "z")

    active_grads = [problem.quadratics[i].gradient(problem.x_star)
                    for i in problem.active_at_xstar]
    dist = dist_to_hull(problem.r * (problem.z - problem.x_star), active_grads)
    if dist > HULL_TOL:
        raise ProblemCertificateError(
            f"prox optimality certificate violated: hull distance {dist:.3e}")


def _newton_polish(problem, x):
    """Refine a near-optimal prox point to machine precision.

    Detects the pieces that are active near ``x`` and solves the
    stationarity system (weighted gradients balance the prox pull, active
    values equal, weights sum to one) by Newton's method.  Pieces whose
    weight turns negative are dropped.  Falls back to the input if the
    polish does not improve the stationarity residual.
    """
    z, r, n = problem.z, problem.r, problem.z.size
    vals = problem.piece_values(x)
    scale = 1.0 + np.abs(vals).max()
    active = [int(i) for i in np.flatnonzero(vals >= vals.max()
                                             - 0.1 * ACTIVITY_MARGIN * scale)]

    def residual(pt, act):
        # stationarity defect with the best recombination weights
        grads = np.array([problem.quadratics[i].gradient(pt) for i in act])
        lhs = np.vstack([grads.T, np.ones(len(act))])
        rhs = np.append(r * (z - pt), 1.0)
        w, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        return np.linalg.norm(w @ grads + r * (pt - z))

    x0 = x.copy()
    while active:
        quads = [problem.quadratics[i] for i in active]
        m = len(quads)
        # initial weights: least-squares recombination of the prox pull
        G = np.array([q.gradient(x) for q in quads])
        lhs = np.vstack([G.T, np.ones(m)])
        rhs = np.append(r * (z - x), 1.0)
        lam, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        for _ in range(NEWTON_ROUNDS):
            G = np.array([q.gradient(x) for q in quads])
            v = np.array([q.value(x) for q in quads])
            F = np.concatenate([
                lam @ G + r * (x - z),
                v[1:] - v[0],
                [lam.sum() - 1.0],
            ])
            J = np.zeros((n + m, n + m))
            J[:n, :n] = r * np.eye(n) + sum(
                l * q.A for l, q in zip(lam, quads))
            J[:n, n:] = G.T
            J[n:n + m - 1, :n] = G[1:] - G[0]
            J[n + m - 1, n:] = 1.0
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                return x0
            x = x + step[:n]
            lam = lam + step[n:]
            if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(x)):
                break
        if m == 1 or lam.min() >= -1e-12:
            break
        # a piece priced out: drop it and re-solve on the smaller set
        active.pop(int(np.argmin(lam)))
        x = x0.copy()
    if not active or not np.all(np.isfinite(x)):
        return x0
    if residual(x, active) <= residual(x0, active):
        return x
    return x0


def reference_prox(problem):
    """Recompute the prox point independently of the stored ground truth.

    Classical cutting-plane prox iteration with exact subgradients and a full
    bundle, run until the gap certifies a distance below ``REFERENCE_TOL``.
    Raises ProblemCertificateError if the result disagrees with x_star by
    more than 1e-5.  A QP that misses its strict KKT target is retried at a
    1e2 and then a 1e4 looser one; each such recovery issues a
    ``RuntimeWarning`` that names the multiple and the bundle size m.
    """
    z, r = problem.z, problem.r
    # the model's planes e_i + g_i'(x - z), one row each
    e, G = np.empty(0), np.empty((0, z.size))
    x, lam = z, None
    f_x, _, g_x = problem.evaluate(x)
    for _ in range(REFERENCE_MAX_ITER):
        e = np.append(e, f_x + np.einsum("ij,ij->i", g_x[None], (z - x)[None]))
        G = np.vstack([G, g_x])
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
        if mult != 1.0:
            warnings.warn(f"reference_prox: the QP at m={e.size} missed the "
                          f"strict KKT target and met the {mult:g}x looser "
                          "one", RuntimeWarning, stacklevel=2)
        x = z - (lam @ G) / r
        phi = float((e + G @ (x - z)).max())
        f_x, _, g_x = problem.evaluate(x)
        if np.sqrt(max(f_x - phi, 0.0) / r) <= REFERENCE_TOL:
            break
    else:
        raise ProblemCertificateError(
            f"reference prox solve did not converge in {REFERENCE_MAX_ITER} "
            "iterations")
    x = _newton_polish(problem, x)
    if np.linalg.norm(x - problem.x_star) > 1e-5:
        raise ProblemCertificateError(
            "reference prox disagrees with the stored ground truth: "
            f"distance {np.linalg.norm(x - problem.x_star):.3e}")
    return x


# ---------------------------------------------------------------------------
# serialization: self-describing JSON, bit-exact round trip


def problem_to_dict(problem):
    def arr(a):
        return np.asarray(a).tolist()

    return {
        "format": "proxbundle-maxquad",
        "version": 1,
        "n": problem.n,
        "r": problem.r,
        "seed": problem.seed,
        "sparse": problem.sparse,
        "z": arr(problem.z),
        "x_star": arr(problem.x_star),
        "active_at_xstar": list(problem.active_at_xstar),
        "active_at_z": list(problem.active_at_z),
        "quadratics": [
            {"A": arr(q.A), "b": arr(q.b), "c": q.c, "center": arr(q.center)}
            for q in problem.quadratics
        ],
    }


def problem_from_dict(data):
    """The problem ``problem_to_dict`` wrote, after ``check_problem``;
    malformed data raises ValueError, naming a missing field."""
    if not isinstance(data, dict) or data.get("format") != "proxbundle-maxquad":
        raise ValueError("not a proxbundle max-of-quadratics problem file")
    try:
        stacks = [np.array([q[key] for q in data["quadratics"]], dtype=float)
                  for key in ("A", "b", "c", "center")]
        problem = MaxQuadProblem(
            *stacks, np.array(data["z"], dtype=float), float(data["r"]),
            np.array(data["x_star"], dtype=float),
            tuple(data["active_at_xstar"]), tuple(data["active_at_z"]),
            int(data["seed"]), bool(data.get("sparse", False)))
    except KeyError as exc:
        raise ValueError(f"problem file: missing field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed problem file: {exc}") from None
    check_problem(problem)
    return problem


def save_problem(problem, path):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=1)


def load_problem(path):
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
