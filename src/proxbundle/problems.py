"""Max-of-quadratics instances with controlled activity and known prox points.

The generator draws the true prox point x* first, then builds quadratics
around it so that a designated active set shares the maximum at x*, the
prox optimality certificate r(z - x*) in hull{grad q_i(x*)} holds by
construction, and a designated set is active at the prox-centre z.

Quadratics are stored in centred form, q(x) = 0.5 (x-c)'A(x-c) + b'(x-c) + w,
so the designated values at x* are exact in floating point (the difference
x - c vanishes bitwise at x = c).  With c = 0 this is the plain
0.5 x'Ax + b'x + w parametrization.

A problem's piece values come from three batched matrix products over
arrays that stack their Hessians, linear terms, offsets and centres.  The
Hessians are held once: each piece's ``A`` is a view into the problem's
(nf, n, n) stack, which the generator and the loader fill directly.  A
single piece's value is the same batched formula on a one-piece stack, so
the generator's exact ties are the ties that ``evaluate`` and
``check_problem`` see.  ``piece_values`` evaluates every piece.  On large
stacks ``evaluate`` evaluates only the pieces whose certified upper bound
(from each Hessian's largest eigenvalue) reaches an evaluated piece's
value, with the same products on views of the stack, so its result is
bitwise that of evaluating every piece.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
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


class ProblemCertificateError(RuntimeError):
    """A generated problem failed its ground-truth certificate."""


def _values_of_hessians(b, w, C, x):
    """The values at x of the pieces stacked as b (k, 1, n), w (k,) and
    centres C (k, n), as a function of their Hessians A (k, n, n):
    0.5 e'Ae + b'e + w with e = x - c, per piece.  Every piece value in this
    module comes from here, so exact ties set up by the generator are the
    ties that ``evaluate`` and ``check_problem`` see."""
    E = x - C
    row, col = E[:, None, :], E[:, :, None]
    linear = (b @ col)[:, 0, 0]

    def values(A):
        return 0.5 * ((row @ A) @ col)[:, 0, 0] + linear + w

    return values


def _piece_values(A, b, w, C, x):
    return _values_of_hessians(b, w, C, x)(A)


def _point(x, n):
    """x as a float array of shape (n,); anything else would broadcast
    against the pieces' centres and be evaluated at another point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"point of shape {x.shape}, expected ({n},)")
    return x


def _shared_hessians(quads):
    """The (nf, n, n) array whose slices are the pieces' Hessians in order,
    or None if they are not views into one array."""
    base = quads[0].A.base
    if not (isinstance(base, np.ndarray) and base.ndim == 3
            and base.flags.c_contiguous and len(base) == len(quads)):
        return None
    if all(q.A.base is base and q.A.shape == base.shape[1:]
           and q.A.ctypes.data == base[i].ctypes.data
           for i, q in enumerate(quads)):
        return base
    return None


@dataclass(frozen=True)
class Quadratic:
    """Convex quadratic 0.5 (x-c)'A(x-c) + b'(x-c) + w with PSD A."""

    A: np.ndarray
    b: np.ndarray
    c: float
    center: np.ndarray

    def __post_init__(self):
        # store C-ordered float arrays: on a Fortran-ordered A the value
        # rounds differently from the C-ordered copy in a problem's stack
        A = np.ascontiguousarray(self.A, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.ascontiguousarray(self.b, dtype=float))
        object.__setattr__(self, "center",
                           np.ascontiguousarray(self.center, dtype=float))
        if not np.all(np.abs(A - A.T) <= 1e-12 * (1.0 + np.abs(A).max())):
            raise ValueError("Hessian must be symmetric")
        # the largest eigenvalue bounds the piece in MaxQuadProblem.evaluate
        lam_max = 0.0
        if A.size:
            eigs = np.linalg.eigvalsh(A)
            if eigs.min() < -1e-10:
                raise ValueError("Hessian must be positive semidefinite")
            lam_max = float(eigs[-1])
        object.__setattr__(self, "_lam_max", lam_max)

    @classmethod
    def plain(cls, A, b, c):
        """Quadratic 0.5 x'Ax + b'x + c (centred at the origin)."""
        A = np.asarray(A, dtype=float)
        return cls(A, np.asarray(b, dtype=float), float(c), np.zeros(A.shape[0]))

    def value(self, x):
        # the problem's formula on a one-piece stack
        return float(_piece_values(self.A[None], self.b[None, None], self.c,
                                   self.center[None],
                                   _point(x, self.center.size))[0])

    def gradient(self, x):
        e = _point(x, self.center.size) - self.center
        return self.A @ e + self.b


@dataclass(frozen=True)
class MaxQuadProblem:
    """f(x) = max_i q_i(x) with certified prox ground truth at (z, r)."""

    quadratics: tuple
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
        return len(self.quadratics)

    def __post_init__(self):
        # hold every Hessian once: pieces whose A are not yet views into one
        # (nf, n, n) array are copied into one and re-pointed at its slices
        qs = tuple(self.quadratics)
        if not qs:
            raise ValueError("a problem needs at least one quadratic")
        A = _shared_hessians(qs)
        if A is None:
            A = np.stack([q.A for q in qs])
            qs = tuple(replace(q, A=A[i]) for i, q in enumerate(qs))
            object.__setattr__(self, "quadratics", qs)
        object.__setattr__(self, "_pieces", (
            A, np.stack([q.b for q in qs])[:, None, :],
            np.array([q.c for q in qs], dtype=float),
            np.stack([q.center for q in qs])))

    def piece_values(self, x):
        """Every piece's value at x; the same formula as ``Quadratic.value``."""
        return _piece_values(*self._pieces, _point(x, self.n))

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
        E = x - C
        row, col = E[:, None, :], E[:, :, None]
        linear = (b @ col)[:, 0, 0]
        picked = None
        if A.size >= PRUNE_MIN_SIZE:
            picked = self._candidate_values(E, row, col, linear)
        if picked is None:
            cand, vals = None, 0.5 * ((row @ A) @ col)[:, 0, 0] + linear + w
        else:
            cand, vals = picked
        top = float(vals.max())
        active = np.nonzero(vals == top)[0]
        if not active.size:  # no piece attains a NaN max
            raise ValueError(f"MaxQuadProblem.evaluate: the max is NaN at "
                             f"{x!r} (a non-finite point, or piece values "
                             f"that overflow)")
        if cand is not None:
            active = cand[active]
        active = tuple(int(i) for i in active)
        return top, active, self.quadratics[active[0]].gradient(x)

    @cached_property
    def _bound_terms(self):
        """The per-piece coefficients (k1, k0) of the bound
        U = (l + w) + s k1 + k0 in ``_candidate_values``.  A piece whose
        Hessian is not exactly symmetric (eigvalsh reads one triangle) gets
        an infinite k1 and is never dropped."""
        A, b, w, _ = self._pieces
        tiny = np.finfo(float).tiny
        sigma = (self.n + 2) ** 2 * np.finfo(float).eps
        rho = np.abs(A).sum(axis=2).max(axis=1) + tiny
        half_b = 0.5 * np.linalg.norm(b[:, 0, :], axis=1)
        lam = np.array([q._lam_max for q in self.quadratics])
        symmetric = (A == A.transpose(0, 2, 1)).all(axis=(1, 2))
        k1 = np.where(symmetric, 0.5 * lam + sigma * (rho + half_b), np.inf)
        return k1, sigma * (np.abs(w) + half_b + tiny)

    def _candidate_values(self, E, row, col, linear):
        """(cand, values): the ascending indices of the pieces that may
        attain the max at the point c_i + E[i], and their values; None when
        that is every piece.

        The quadratic terms come from the stacked products of
        ``piece_values`` on views of each run of consecutive candidates, so
        each value rounds as there and no Hessian is copied.  The piece with
        the largest l + w is evaluated first; its value is top0.  A piece is
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
        A, _, w, _ = self._pieces
        q = np.empty((self.nf, 1, 1))

        def quadratic_terms(lo, hi):
            np.matmul(row[lo:hi] @ A[lo:hi], col[lo:hi], out=q[lo:hi])

        lower = linear + w
        i0 = int(lower.argmax())
        quadratic_terms(i0, i0 + 1)
        top0 = float(0.5 * q[i0, 0, 0] + linear[i0] + w[i0])
        if not math.isfinite(top0):
            return None
        k1, k0 = self._bound_terms
        upper = lower + np.vecdot(E, E) * k1 + k0
        cand = np.flatnonzero(~(upper < top0))
        if cand.size == self.nf:
            return None
        # the runs go from c[0] and from each c[k + 1] to c[k] and to c[-1]
        ends = np.flatnonzero(cand[1:] - cand[:-1] > 1).tolist()
        c = cand.tolist()
        for lo, hi in zip([c[0]] + [c[k + 1] for k in ends],
                          [c[k] + 1 for k in ends] + [c[-1] + 1]):
            quadratic_terms(lo, hi)
        return cand, 0.5 * q[cand, 0, 0] + linear[cand] + w[cand]


def _pin_curvature(quad, x, target):
    """Return A' = A + t I (t >= 0) with the quadratic's value at x exactly
    equal to target, or None if no such float t is found.

    Adding t I leaves the value and gradient at the quadratic's own centre
    untouched, so activity at x* and the hull certificate survive.
    """
    A, b, w, c = quad.A, quad.b, quad.c, quad.center
    n = A.shape[0]
    eye = np.eye(n)
    values = _values_of_hessians(b[None, None], w, c[None], x)

    def val(t):
        return float(values((A + t * eye)[None])[0])

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


def _try_generate(rng, n, nf, nf_xstar, nf_z, r, sparse):
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

    # the pieces' Hessians are slices of one array, which the problem keeps
    hessians = np.empty((nf, n, n))
    quads = []
    for i in range(nf):
        B = standard_normals(rng, (n, n))
        if sparse:
            B = B * (rng.random((n, n)) < 0.05)
        hessians[i] = B.T @ B
        if i in act_x:
            w = 0.0
        else:
            w = -(ACTIVITY_MARGIN + (1.0 - ACTIVITY_MARGIN) * rng.random())
        quads.append(Quadratic(hessians[i], grads[i], w, x_star))

    # z-activity: raise designated quadratics to the current max at z by
    # adding t I; the addition vanishes at x* so the x* certificate is intact.
    # A piece changes only at its own turn, so until then vals_z holds for it
    vals_z = _piece_values(hessians, grads[:, None, :],
                           np.array([q.c for q in quads]),
                           np.broadcast_to(x_star, (nf, n)), z).tolist()
    top = int(np.argmax(vals_z))
    others = [i for i in range(nf) if i != top]
    act_z = sorted([top] + others[:nf_z - 1])
    M = vals_z[top]
    for i in act_z:
        if vals_z[i] == M:
            continue
        A_new = _pin_curvature(quads[i], z, M)
        if A_new is None:
            return None
        hessians[i] = A_new
        quads[i] = Quadratic(hessians[i], quads[i].b, quads[i].c, quads[i].center)

    # push non-designated quadratics below the margin at z
    for j in range(nf):
        if j in act_z:
            continue
        vj = vals_z[j]
        if vj > M - ACTIVITY_MARGIN:
            if j in act_x:
                return None
            quads[j] = replace(quads[j], c=quads[j].c - (vj - (M - 1.5 * ACTIVITY_MARGIN)))

    return MaxQuadProblem(tuple(quads), z, float(r), x_star,
                          tuple(act_x), tuple(act_z), seed=-1, sparse=sparse)


def generate_max_quad(n, nf, nf_xstar, nf_z, r, seed, sparse=False):
    """Generate a certified max-of-quadratics instance.

    Deterministic in ``seed`` for a fixed BLAS thread count.  At n = 100
    the Hessian products ``B.T @ B`` round differently with one BLAS thread
    than with several, so the instance then depends on the thread count
    too (``OPENBLAS_NUM_THREADS``).  Raises ValueError on bad parameters and
    ProblemCertificateError if no valid draw is found (not observed in
    practice; restarts are rare).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= nf_xstar <= nf and 1 <= nf_z <= nf):
        raise ValueError("need 1 <= nf_xstar <= nf and 1 <= nf_z <= nf")
    if not r > 0:
        raise ValueError("r must be positive")
    rng = make_rng(seed)
    for _ in range(80):
        prob = _try_generate(rng, n, nf, nf_xstar, nf_z, r, sparse)
        if prob is None:
            continue
        prob = replace(prob, seed=int(seed))
        check_problem(prob)
        return prob
    raise ProblemCertificateError(
        f"could not generate a certified instance for seed {seed}")


def check_problem(problem, hull_tol=1e-10):
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
    if dist > hull_tol:
        raise ProblemCertificateError(
            f"prox optimality certificate violated: hull distance {dist:.3e}")


def _newton_polish(problem, x, rounds=20):
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
        for _ in range(rounds):
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


def reference_prox(problem, tol=1e-7, max_iter=4000):
    """Recompute the prox point independently of the stored ground truth.

    Classical cutting-plane prox iteration with exact subgradients and a full
    bundle, run until the gap certifies a distance below ``tol``.  Raises
    ProblemCertificateError if the result disagrees with x_star by more than
    1e-5.
    """
    z, r = problem.z, problem.r
    sites, vals, grads = [], [], []
    x = z
    f_x, _, g_x = problem.evaluate(x)
    lam = None
    for _ in range(max_iter):
        sites.append(x)
        vals.append(f_x)
        grads.append(g_x)
        G = np.array(grads)  # (m, n)
        e = np.array(vals) + np.einsum("ij,ij->i", G, z[None, :] - np.array(sites))
        Q = (G @ G.T) / r
        warm = None
        if lam is not None:
            warm = np.append(lam, 1.0 / (lam.size + 1))
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
        if np.sqrt(max(f_x - phi, 0.0) / r) <= tol:
            break
    else:
        raise ProblemCertificateError(
            f"reference prox solve did not converge in {max_iter} iterations")
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
    if data.get("format") != "proxbundle-maxquad":
        raise ValueError("not a proxbundle max-of-quadratics problem file")
    hessians = np.array([q["A"] for q in data["quadratics"]], dtype=float)
    quads = tuple(
        Quadratic(A, np.array(q["b"], dtype=float),
                  float(q["c"]), np.array(q["center"], dtype=float))
        for A, q in zip(hessians, data["quadratics"]))
    return MaxQuadProblem(
        quads,
        np.array(data["z"], dtype=float),
        float(data["r"]),
        np.array(data["x_star"], dtype=float),
        tuple(data["active_at_xstar"]),
        tuple(data["active_at_z"]),
        int(data["seed"]),
        bool(data.get("sparse", False)),
    )


def save_problem(problem, path):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=1)


def load_problem(path):
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
