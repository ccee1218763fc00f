"""Inexact subgradient oracles: exact, ball-noise, and simplex-gradient.

Randomness discipline
---------------------
All randomized pieces draw from a numpy ``Generator`` backed by the PCG64
bit generator, seeded through ``SeedSequence([seed, *stream])``.  The stream
tail gives a documented split rule: one substream per trial, derived from the
trial's coordinates rather than from execution order, so results are
reproducible and independent of parallelism.  Normal deviates are produced by
the Marsaglia polar method from uniform draws only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OracleResponse",
    "make_rng",
    "standard_normals",
    "sample_ball",
    "ball_noise_oracle",
    "make_ball_noise_oracle",
    "exact_oracle",
    "make_exact_oracle",
    "simplex_gradient_oracle",
    "make_simplex_gradient_oracle",
]


@dataclass(frozen=True)
class OracleResponse:
    """Exact function value plus an approximate subgradient.

    ``eps_declared`` is the subgradient error bound the response claims; for
    ball-noise responses it holds by construction, for simplex gradients it
    is caller-supplied (the true error of a simplex gradient of a nonsmooth
    function is not certified).
    """

    value: float
    subgrad_approx: np.ndarray
    eps_declared: float


def make_rng(seed, *stream):
    """PCG64 generator from a master seed and a coordinate-derived substream."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, stream)])))


def standard_normals(rng, size):
    """Standard normal deviates via the Marsaglia polar method."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    total = math.prod(shape)
    parts, count = [], 0
    while count < total:
        pairs = max((total - count + 1) // 2, 8)
        # one call of 2 pairs draws the same doubles as two calls of pairs
        uv = 2.0 * rng.random(2 * pairs) - 1.0
        u, v = uv[:pairs], uv[pairs:]
        s = u * u + v * v
        keep = (s > 0.0) & (s < 1.0)
        s = s[keep]
        f = np.sqrt(-2.0 * np.log(s) / s)
        parts += [u[keep] * f, v[keep] * f]
        count += 2 * s.size
    return np.concatenate(parts or [np.empty(0)])[:total].reshape(shape)


def sample_ball(rng, n, radius):
    """Uniform draw from the open n-ball of the given radius about the origin."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    w = standard_normals(rng, n)
    u = rng.random()
    nw = np.linalg.norm(w)
    if nw == 0.0 or radius == 0.0:
        return np.zeros(n)
    return radius * u ** (1.0 / n) * (w / nw)


def exact_oracle(problem, x):
    """Exact value and the gradient of the first (lowest-index) active piece."""
    value, _, grad = problem.evaluate(x)
    return OracleResponse(value, grad, 0.0)


def make_exact_oracle(problem):
    return lambda x: exact_oracle(problem, x)


def ball_noise_oracle(problem, eps, rng, x):
    """Exact value; subgradient of the first active piece plus uniform ball noise."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    x = np.asarray(x, dtype=float)
    value, _, grad = problem.evaluate(x)
    return OracleResponse(value, grad + sample_ball(rng, x.size, eps), float(eps))


def make_ball_noise_oracle(problem, eps, rng):
    return lambda x: ball_noise_oracle(problem, eps, rng, x)


def default_simplex_delta(x):
    return 1e-5 * (1.0 + np.linalg.norm(x))


def simplex_gradient_oracle(f, x, delta=None, eps_declared=0.0):
    """Forward-simplex interpolation gradient from function values only.

    Solves the linear interpolation system over the canonical forward simplex
    {x, x + delta e_1, ..., x + delta e_n}, i.e.
    ``g_j = (f(x + delta e_j) - f(x)) / delta``.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"simplex gradient at a non-finite point {x!r}")
    if delta is None:
        delta = default_simplex_delta(x)
    if not delta > 0:
        raise ValueError("delta must be positive")
    f0 = float(f(x))
    diffs = np.empty(x.size)
    for j in range(x.size):
        xj = x.copy()
        xj[j] += delta
        diffs[j] = float(f(xj)) - f0
    return OracleResponse(f0, diffs / delta, float(eps_declared))


def make_simplex_gradient_oracle(f, delta=None, eps_declared=0.0):
    return lambda x: simplex_gradient_oracle(f, x, delta=delta,
                                             eps_declared=eps_declared)
