"""Named convex test functions for the derivative-free benchmark.

Each function is a finite max of smooth convex pieces: ``piece_values(x)``
gives the nf piece values, ``piece_gradients(x)`` their (nf, n) gradients.
``f(x)`` and ``f.evaluate(x) -> (value, active, first_active_grad)``, the
max-of-quadratics protocol, share one evaluation: it checks the point,
evaluates the pieces once and takes the max, and raises ``ValueError`` for a
point not of shape ``(dimension,)``, outside the domain, where a piece value
is NaN (a NaN point, or inf - inf), or where the max is infinite at a
non-finite point.

Every value is bitwise that of its piece as a scalar expression: pieces on a
few coordinates keep it, in its operation order, on ``np.float64`` scalars;
pieces over the whole coordinate vector use ``np.exp``, ``np.log`` and
``np.float_power``, which round as the scalar calls do (array ``**`` does not
always), and return a list, since builtin max is slower on an array.  The
default start point, all ones, lies in every domain.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TestFunction", "TEST_FUNCTIONS", "get_test_function"]

P_ALPHA_COEFF = 10_000.0


class TestFunction:
    """Pointwise max of smooth pieces with analytic piece gradients."""

    def __init__(self, name, dimension, piece_values, piece_gradients,
                 domain=None):
        self.name = name
        self.dimension = dimension
        self.piece_values = piece_values
        self.piece_gradients = piece_gradients
        self.domain = domain  # optional predicate

    def _max(self, x):
        """The checked point, its piece values and their max."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"{self.name}: point of shape {x.shape}, "
                             f"expected ({self.dimension},)")
        if self.domain is not None and not self.domain(x):
            raise ValueError(f"{self.name}: point outside the function's domain")
        vals = self.piece_values(x)
        # builtin max skips a NaN after the first value, so look for one
        if any(map(math.isnan, vals)):
            raise ValueError(f"{self.name}: the max is NaN at {x!r} (a non-finite "
                             f"point, or piece values that overflow)")
        top = max(vals)
        # an infinite max at a finite point is an overflow, and is returned;
        # the point is scanned only then
        if not math.isfinite(top) and not np.isfinite(x).all():
            raise ValueError(f"{self.name}: the max is {top} at the non-finite "
                             f"point {x!r}")
        return x, vals, top

    def __call__(self, x):
        return self._max(x)[2]

    def evaluate(self, x):
        x, vals, top = self._max(x)
        active = tuple(i for i, v in enumerate(vals) if v == top)
        return float(top), active, self.piece_gradients(x)[active[0]]

    def start_point(self):
        return np.ones(self.dimension)


def _p_alpha_values(x):
    sq = x[0] ** 2
    return (sq + P_ALPHA_COEFF * x[1],
            sq - P_ALPHA_COEFF * x[1])


def _p_alpha_gradients(x):
    return np.array([[2 * x[0], P_ALPHA_COEFF],
                     [2 * x[0], -P_ALPHA_COEFF]])


def _dem_values(x):
    return (5 * x[0] + x[1],
            -5 * x[0] + x[1],
            x[0] ** 2 + x[1] ** 2 + 4 * x[1])


def _dem_gradients(x):
    return np.array([[5.0, 1.0],
                     [-5.0, 1.0],
                     [2 * x[0], 2 * x[1] + 4]])


def _cb2_values(x):
    return (x[0] ** 2 + x[1] ** 4,
            (2 - x[0]) ** 2 + (2 - x[1]) ** 2,
            2 * np.exp(x[1] - x[0]))


def _cb2_gradients(x):
    e = 2 * np.exp(x[1] - x[0])
    return np.array([[2 * x[0], 4 * x[1] ** 3],
                     [2 * (x[0] - 2), 2 * (x[1] - 2)],
                     [-e, e]])


# mifflin2: -x1 + 2(x1^2+x2^2-1) + 1.75|x1^2+x2^2-1| as a max of two pieces
def _mifflin2_values(x):
    u = x[0] ** 2 + x[1] ** 2 - 1.0
    return (-x[0] + 3.75 * u,
            -x[0] + 0.25 * u)


def _mifflin2_gradients(x):
    du = np.array([2 * x[0], 2 * x[1]])
    return np.array([-1.0, 0.0]) + np.array([[3.75], [0.25]]) * du


def _evd52_values(x):
    sq = x[0] ** 2 + x[1] ** 2
    w = 5 * x[2] - x[0] + 1.0
    return (sq + x[2] ** 2 - 1.0,
            sq + (x[2] - 2.0) ** 2,
            x[0] + x[1] + x[2] - 1.0,
            x[0] + x[1] - x[2] + 1.0,
            # convexified: the cubic leading term is raised to a quartic
            2 * x[0] ** 4 + 6 * x[1] ** 2 + 2 * w ** 2,
            x[0] ** 2 - 9 * x[2])


def _evd52_gradients(x):
    w = 5 * x[2] - x[0] + 1.0
    return np.array([[2 * x[0], 2 * x[1], 2 * x[2]],
                     [2 * x[0], 2 * x[1], 2 * (x[2] - 2.0)],
                     [1.0, 1.0, 1.0],
                     [1.0, 1.0, -1.0],
                     [8 * x[0] ** 3 - 4 * w, 12 * x[1], 20 * w],
                     [2 * x[0], 0.0, -9.0]])


# oet6, convexified (the bilinear x1*exp, x2*exp couplings become sums)
_OET6_T = np.array([-0.5 + i / 20.0 for i in range(21)])
_OET6_SHIFT = 1.0 / (1.0 + _OET6_T)


def _oet6_values(x):
    t = _OET6_T
    return (x[0] + np.exp(x[2] * t) + x[1] + np.exp(x[3] * t) - _OET6_SHIFT).tolist()


def _oet6_gradients(x):
    t, ones = _OET6_T, np.ones(_OET6_T.size)
    return np.column_stack([ones, ones, t * np.exp(x[2] * t), t * np.exp(x[3] * t)])


# wong3: f1, then f1 + 10 * each constraint; the indefinite cross terms x1*x2
# (in f1) and -2*x1*x2 (in the fourth constraint) are dropped for convexity
def _wong3_values(x):
    f1 = (x[0] ** 2 + x[1] ** 2 - 14 * x[0] - 16 * x[1]
          + (x[2] - 10) ** 2 + 4 * (x[3] - 5) ** 2 + (x[4] - 3) ** 2
          + 2 * (x[5] - 1) ** 2 + 5 * x[6] ** 2 + 7 * (x[7] - 11) ** 2
          + 2 * (x[8] - 10) ** 2 + (x[9] - 7) ** 2 + (x[10] - 9) ** 2
          + 10 * (x[11] - 1) ** 2 + 5 * (x[12] - 7) ** 2
          + 4 * (x[13] - 14) ** 2 + 27 * (x[14] - 1) ** 2 + x[15] ** 4
          + (x[16] - 2) ** 2 + 13 * (x[17] - 2) ** 2 + (x[18] - 3) ** 2
          + x[19] ** 2 + 95.0)
    constraints = (
        3 * (x[0] - 2) ** 2 + 4 * (x[1] - 3) ** 2 + 2 * x[2] ** 2 - 7 * x[3] - 120,
        5 * x[0] ** 2 + 8 * x[1] + (x[2] - 6) ** 2 - 2 * x[3] - 40,
        0.5 * (x[0] - 8) ** 2 + 2 * (x[1] - 4) ** 2 + 3 * x[4] ** 2 - x[5] - 30,
        x[0] ** 2 + 2 * (x[1] - 2) ** 2 + 14 * x[4] - 6 * x[5],
        4 * x[0] + 5 * x[1] - 3 * x[6] + 9 * x[7] - 105.0,
        10 * x[0] - 8 * x[1] - 17 * x[6] + 2 * x[7],
        -3 * x[0] + 6 * x[1] + 12 * (x[8] - 8) ** 2 - 7 * x[9],
        -8 * x[0] + 2 * x[1] + 5 * x[8] - 2 * x[9] - 12.0,
        x[0] + x[1] + 4 * x[10] - 21 * x[11],
        x[0] ** 2 + 15 * x[10] - 8 * x[11] - 28,
        4 * x[0] + 9 * x[1] + 5 * x[12] ** 2 - 9 * x[13] - 87,
        3 * x[0] + 4 * x[1] + 3 * (x[12] - 6) ** 2 - 14 * x[13] - 10,
        14 * x[0] ** 2 + 35 * x[14] - 79 * x[15] - 92,
        15 * x[1] ** 2 + 11 * x[14] - 61 * x[15] - 54,
        5 * x[0] ** 2 + 2 * x[1] + 9 * x[16] ** 4 - x[17] - 68,
        x[0] ** 2 - x[1] + 19 * x[18] - 20 * x[19] + 19,
        7 * x[0] ** 2 + 5 * x[1] ** 2 + x[18] ** 2 - 30 * x[19])
    return [f1] + [f1 + 10.0 * c for c in constraints]


def _wong3_gradients(x):
    df1 = np.array([
        2 * x[0] - 14, 2 * x[1] - 16, 2 * (x[2] - 10), 8 * (x[3] - 5),
        2 * (x[4] - 3), 4 * (x[5] - 1), 10 * x[6], 14 * (x[7] - 11),
        4 * (x[8] - 10), 2 * (x[9] - 7), 2 * (x[10] - 9), 20 * (x[11] - 1),
        10 * (x[12] - 7), 8 * (x[13] - 14), 54 * (x[14] - 1), 4 * x[15] ** 3,
        2 * (x[16] - 2), 26 * (x[17] - 2), 2 * (x[18] - 3), 2 * x[19]])
    dc = np.zeros((17, 20))  # row k: gradient of constraint k
    dc[0, [0, 1, 2, 3]] = 6 * (x[0] - 2), 8 * (x[1] - 3), 4 * x[2], -7
    dc[1, [0, 1, 2, 3]] = 10 * x[0], 8, 2 * (x[2] - 6), -2
    dc[2, [0, 1, 4, 5]] = x[0] - 8, 4 * (x[1] - 4), 6 * x[4], -1
    dc[3, [0, 1, 4, 5]] = 2 * x[0], 4 * (x[1] - 2), 14, -6
    dc[4, [0, 1, 6, 7]] = 4, 5, -3, 9
    dc[5, [0, 1, 6, 7]] = 10, -8, -17, 2
    dc[6, [0, 1, 8, 9]] = -3, 6, 24 * (x[8] - 8), -7
    dc[7, [0, 1, 8, 9]] = -8, 2, 5, -2
    dc[8, [0, 1, 10, 11]] = 1, 1, 4, -21
    dc[9, [0, 10, 11]] = 2 * x[0], 15, -8
    dc[10, [0, 1, 12, 13]] = 4, 9, 10 * x[12], -9
    dc[11, [0, 1, 12, 13]] = 3, 4, 6 * (x[12] - 6), -14
    dc[12, [0, 14, 15]] = 28 * x[0], 35, -79
    dc[13, [1, 14, 15]] = 30 * x[1], 11, -61
    dc[14, [0, 1, 16, 17]] = 10 * x[0], 2, 36 * x[16] ** 3, -1
    dc[15, [0, 1, 18, 19]] = 2 * x[0], -1, 19, -20
    dc[16, [0, 1, 18, 19]] = 14 * x[0], 10 * x[1], 2 * x[18], -30
    return np.vstack([df1, df1 + 10.0 * dc])


# maxexp, maxlog and max10: piece i depends on x_i alone, with weight i
_WEIGHTS = np.arange(1.0, 31.0)


def _maxexp_values(x):
    return (_WEIGHTS[:12] * np.exp(x)).tolist()


def _maxexp_gradients(x):
    return np.diag(_WEIGHTS[:12] * np.exp(x))


def _maxlog_values(x):
    return (-_WEIGHTS * np.log(x)).tolist()


def _maxlog_gradients(x):
    return np.diag(-_WEIGHTS / x)


def _max10_values(x):
    return (_WEIGHTS[:10] * np.float_power(x, 10)).tolist()


def _max10_gradients(x):
    return np.diag(10 * _WEIGHTS[:10] * np.float_power(x, 9))


TEST_FUNCTIONS = {fn.name: fn for fn in (
    TestFunction("p_alpha", 2, _p_alpha_values, _p_alpha_gradients),
    TestFunction("dem", 2, _dem_values, _dem_gradients),
    TestFunction("wong3", 20, _wong3_values, _wong3_gradients),
    TestFunction("cb2", 2, _cb2_values, _cb2_gradients),
    TestFunction("mifflin2", 2, _mifflin2_values, _mifflin2_gradients),
    TestFunction("evd52", 3, _evd52_values, _evd52_gradients),
    TestFunction("oet6", 4, _oet6_values, _oet6_gradients),
    TestFunction("maxexp", 12, _maxexp_values, _maxexp_gradients),
    TestFunction("maxlog", 30, _maxlog_values, _maxlog_gradients,
                 domain=lambda x: bool(np.all(x > 0))),
    TestFunction("max10", 10, _max10_values, _max10_gradients),
)}


def get_test_function(name):
    try:
        return TEST_FUNCTIONS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown test function {name!r}; available: {sorted(TEST_FUNCTIONS)}"
        ) from None
