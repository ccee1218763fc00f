"""Named convex test functions for the derivative-free benchmark.

Each function is a finite max of smooth convex pieces and exposes the same
``evaluate(x) -> (value, active, first_active_grad)`` protocol as the
generated max-of-quadratics problems, so the exact and simplex-gradient
oracles apply uniformly.  Default start point is the all-ones vector, which
lies inside every documented domain (max-log needs strictly positive
coordinates).
"""

from __future__ import annotations

import numpy as np

__all__ = ["TestFunction", "TEST_FUNCTIONS", "get_test_function"]

P_ALPHA_COEFF = 10_000.0


class TestFunction:
    """Pointwise max of smooth pieces with analytic piece gradients."""

    def __init__(self, name, dimension, pieces, domain=None, description=""):
        self.name = name
        self.dimension = dimension
        self.pieces = pieces  # list of (value_fn, grad_fn)
        self.domain = domain  # optional predicate
        self.description = description

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.dimension:
            raise ValueError(f"{self.name} expects dimension {self.dimension}")
        if self.domain is not None and not self.domain(x):
            raise ValueError(f"{self.name}: point outside the function's domain")
        return x

    def __call__(self, x):
        x = self._check(x)
        return max(v(x) for v, _ in self.pieces)

    def evaluate(self, x):
        x = self._check(x)
        vals = np.array([v(x) for v, _ in self.pieces])
        top = float(vals.max())
        active = tuple(int(i) for i in np.nonzero(vals == top)[0])
        if not active:  # no piece attains a NaN max
            raise ValueError(f"{self.name}.evaluate: the max is NaN at {x!r} "
                             f"(a non-finite point, or piece values that "
                             f"overflow)")
        return top, active, np.asarray(self.pieces[active[0]][1](x), dtype=float)

    def start_point(self):
        return np.ones(self.dimension)


def _p_alpha():
    a = P_ALPHA_COEFF
    return TestFunction(
        "p_alpha", 2,
        [(lambda x: x[0] ** 2 + a * x[1], lambda x: np.array([2 * x[0], a])),
         (lambda x: x[0] ** 2 - a * x[1], lambda x: np.array([2 * x[0], -a]))],
        description="max of 2 quadratics")


def _dem():
    return TestFunction(
        "dem", 2,
        [(lambda x: 5 * x[0] + x[1], lambda x: np.array([5.0, 1.0])),
         (lambda x: -5 * x[0] + x[1], lambda x: np.array([-5.0, 1.0])),
         (lambda x: x[0] ** 2 + x[1] ** 2 + 4 * x[1],
          lambda x: np.array([2 * x[0], 2 * x[1] + 4]))],
        description="max of 3 quadratics")


def _cb2():
    return TestFunction(
        "cb2", 2,
        [(lambda x: x[0] ** 2 + x[1] ** 4,
          lambda x: np.array([2 * x[0], 4 * x[1] ** 3])),
         (lambda x: (2 - x[0]) ** 2 + (2 - x[1]) ** 2,
          lambda x: np.array([2 * (x[0] - 2), 2 * (x[1] - 2)])),
         (lambda x: 2 * np.exp(x[1] - x[0]),
          lambda x: 2 * np.exp(x[1] - x[0]) * np.array([-1.0, 1.0]))],
        description="max of exponential, quartic, quadratic")


def _mifflin2():
    # -x1 + 2(x1^2+x2^2-1) + 1.75|x1^2+x2^2-1| as a max of two smooth pieces
    def u(x):
        return x[0] ** 2 + x[1] ** 2 - 1.0

    def du(x):
        return np.array([2 * x[0], 2 * x[1]])

    return TestFunction(
        "mifflin2", 2,
        [(lambda x: -x[0] + 3.75 * u(x),
          lambda x: np.array([-1.0, 0.0]) + 3.75 * du(x)),
         (lambda x: -x[0] + 0.25 * u(x),
          lambda x: np.array([-1.0, 0.0]) + 0.25 * du(x))],
        description="absolute value + quadratic")


def _evd52():
    return TestFunction(
        "evd52", 3,
        [(lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 1.0,
          lambda x: np.array([2 * x[0], 2 * x[1], 2 * x[2]])),
         (lambda x: x[0] ** 2 + x[1] ** 2 + (x[2] - 2.0) ** 2,
          lambda x: np.array([2 * x[0], 2 * x[1], 2 * (x[2] - 2.0)])),
         (lambda x: x[0] + x[1] + x[2] - 1.0,
          lambda x: np.array([1.0, 1.0, 1.0])),
         (lambda x: x[0] + x[1] - x[2] + 1.0,
          lambda x: np.array([1.0, 1.0, -1.0])),
         # convexified: the cubic leading term is raised to a quartic
         (lambda x: 2 * x[0] ** 4 + 6 * x[1] ** 2 + 2 * (5 * x[2] - x[0] + 1.0) ** 2,
          lambda x: np.array([8 * x[0] ** 3 - 4 * (5 * x[2] - x[0] + 1.0),
                              12 * x[1],
                              20 * (5 * x[2] - x[0] + 1.0)])),
         (lambda x: x[0] ** 2 - 9 * x[2],
          lambda x: np.array([2 * x[0], 0.0, -9.0]))],
        description="max of quartic, quadratics, linears")


def _oet6():
    # convexified variant: the bilinear x1*exp, x2*exp couplings become sums
    ts = [-0.5 + i / 20.0 for i in range(21)]

    def make(t):
        def val(x):
            return x[0] + np.exp(x[2] * t) + x[1] + np.exp(x[3] * t) - 1.0 / (1.0 + t)

        def grad(x):
            return np.array([1.0, 1.0, t * np.exp(x[2] * t), t * np.exp(x[3] * t)])

        return val, grad

    return TestFunction("oet6", 4, [make(t) for t in ts],
                        description="max of exponentials")


def _wong3():
    # 20 variables, 18 pieces; base objective plus penalized constraint
    # functions, with the indefinite cross terms dropped for convexity
    # (x1*x2 removed from the base, -2*x1*x2 removed from piece 5)
    def f1(x):
        return (x[0] ** 2 + x[1] ** 2 - 14 * x[0] - 16 * x[1]
                + (x[2] - 10) ** 2 + 4 * (x[3] - 5) ** 2 + (x[4] - 3) ** 2
                + 2 * (x[5] - 1) ** 2 + 5 * x[6] ** 2 + 7 * (x[7] - 11) ** 2
                + 2 * (x[8] - 10) ** 2 + (x[9] - 7) ** 2 + (x[10] - 9) ** 2
                + 10 * (x[11] - 1) ** 2 + 5 * (x[12] - 7) ** 2
                + 4 * (x[13] - 14) ** 2 + 27 * (x[14] - 1) ** 2 + x[15] ** 4
                + (x[16] - 2) ** 2 + 13 * (x[17] - 2) ** 2 + (x[18] - 3) ** 2
                + x[19] ** 2 + 95.0)

    def df1(x):
        g = np.zeros(20)
        g[0] = 2 * x[0] - 14
        g[1] = 2 * x[1] - 16
        g[2] = 2 * (x[2] - 10)
        g[3] = 8 * (x[3] - 5)
        g[4] = 2 * (x[4] - 3)
        g[5] = 4 * (x[5] - 1)
        g[6] = 10 * x[6]
        g[7] = 14 * (x[7] - 11)
        g[8] = 4 * (x[8] - 10)
        g[9] = 2 * (x[9] - 7)
        g[10] = 2 * (x[10] - 9)
        g[11] = 20 * (x[11] - 1)
        g[12] = 10 * (x[12] - 7)
        g[13] = 8 * (x[13] - 14)
        g[14] = 54 * (x[14] - 1)
        g[15] = 4 * x[15] ** 3
        g[16] = 2 * (x[16] - 2)
        g[17] = 26 * (x[17] - 2)
        g[18] = 2 * (x[18] - 3)
        g[19] = 2 * x[19]
        return g

    def lin(coeffs, const):
        idx = list(coeffs)

        def val(x):
            return sum(c * x[i] for i, c in coeffs.items()) + const

        def grad(x):
            g = np.zeros(20)
            for i in idx:
                g[i] = coeffs[i]
            return g

        return val, grad

    # (value, gradient) pairs for the penalized constraint terms
    def c2(x):
        return 3 * (x[0] - 2) ** 2 + 4 * (x[1] - 3) ** 2 + 2 * x[2] ** 2 - 7 * x[3] - 120

    def dc2(x):
        g = np.zeros(20)
        g[0] = 6 * (x[0] - 2)
        g[1] = 8 * (x[1] - 3)
        g[2] = 4 * x[2]
        g[3] = -7
        return g

    def c3(x):
        return 5 * x[0] ** 2 + 8 * x[1] + (x[2] - 6) ** 2 - 2 * x[3] - 40

    def dc3(x):
        g = np.zeros(20)
        g[0] = 10 * x[0]
        g[1] = 8
        g[2] = 2 * (x[2] - 6)
        g[3] = -2
        return g

    def c4(x):
        return 0.5 * (x[0] - 8) ** 2 + 2 * (x[1] - 4) ** 2 + 3 * x[4] ** 2 - x[5] - 30

    def dc4(x):
        g = np.zeros(20)
        g[0] = x[0] - 8
        g[1] = 4 * (x[1] - 4)
        g[4] = 6 * x[4]
        g[5] = -1
        return g

    def c5(x):
        # indefinite -2*x1*x2 dropped for convexity
        return x[0] ** 2 + 2 * (x[1] - 2) ** 2 + 14 * x[4] - 6 * x[5]

    def dc5(x):
        g = np.zeros(20)
        g[0] = 2 * x[0]
        g[1] = 4 * (x[1] - 2)
        g[4] = 14
        g[5] = -6
        return g

    def c8(x):
        return -3 * x[0] + 6 * x[1] + 12 * (x[8] - 8) ** 2 - 7 * x[9]

    def dc8(x):
        g = np.zeros(20)
        g[0] = -3
        g[1] = 6
        g[8] = 24 * (x[8] - 8)
        g[9] = -7
        return g

    def c11(x):
        return x[0] ** 2 + 15 * x[10] - 8 * x[11] - 28

    def dc11(x):
        g = np.zeros(20)
        g[0] = 2 * x[0]
        g[10] = 15
        g[11] = -8
        return g

    def c12(x):
        return 4 * x[0] + 9 * x[1] + 5 * x[12] ** 2 - 9 * x[13] - 87

    def dc12(x):
        g = np.zeros(20)
        g[0] = 4
        g[1] = 9
        g[12] = 10 * x[12]
        g[13] = -9
        return g

    def c13(x):
        return 3 * x[0] + 4 * x[1] + 3 * (x[12] - 6) ** 2 - 14 * x[13] - 10

    def dc13(x):
        g = np.zeros(20)
        g[0] = 3
        g[1] = 4
        g[12] = 6 * (x[12] - 6)
        g[13] = -14
        return g

    def c14(x):
        return 14 * x[0] ** 2 + 35 * x[14] - 79 * x[15] - 92

    def dc14(x):
        g = np.zeros(20)
        g[0] = 28 * x[0]
        g[14] = 35
        g[15] = -79
        return g

    def c15(x):
        return 15 * x[1] ** 2 + 11 * x[14] - 61 * x[15] - 54

    def dc15(x):
        g = np.zeros(20)
        g[1] = 30 * x[1]
        g[14] = 11
        g[15] = -61
        return g

    def c16(x):
        return 5 * x[0] ** 2 + 2 * x[1] + 9 * x[16] ** 4 - x[17] - 68

    def dc16(x):
        g = np.zeros(20)
        g[0] = 10 * x[0]
        g[1] = 2
        g[16] = 36 * x[16] ** 3
        g[17] = -1
        return g

    def c17(x):
        return x[0] ** 2 - x[1] + 19 * x[18] - 20 * x[19] + 19

    def dc17(x):
        g = np.zeros(20)
        g[0] = 2 * x[0]
        g[1] = -1
        g[18] = 19
        g[19] = -20
        return g

    def c18(x):
        return 7 * x[0] ** 2 + 5 * x[1] ** 2 + x[18] ** 2 - 30 * x[19]

    def dc18(x):
        g = np.zeros(20)
        g[0] = 14 * x[0]
        g[1] = 10 * x[1]
        g[18] = 2 * x[18]
        g[19] = -30
        return g

    lin6 = lin({0: 4, 1: 5, 6: -3, 7: 9}, -105.0)
    lin7 = lin({0: 10, 1: -8, 6: -17, 7: 2}, 0.0)
    lin9 = lin({0: -8, 1: 2, 8: 5, 9: -2}, -12.0)
    lin10 = lin({0: 1, 1: 1, 10: 4, 11: -21}, 0.0)

    constraints = [(c2, dc2), (c3, dc3), (c4, dc4), (c5, dc5), lin6, lin7,
                   (c8, dc8), lin9, lin10, (c11, dc11), (c12, dc12),
                   (c13, dc13), (c14, dc14), (c15, dc15), (c16, dc16),
                   (c17, dc17), (c18, dc18)]

    def penalized(cv, cg):
        return (lambda x: f1(x) + 10.0 * cv(x),
                lambda x: df1(x) + 10.0 * cg(x))

    pieces = [(f1, df1)] + [penalized(cv, cg) for cv, cg in constraints]
    return TestFunction("wong3", 20, pieces, description="max of 18 quadratics")


def _maxexp():
    def make(i):
        return (lambda x: i * np.exp(x[i - 1]),
                lambda x: i * np.exp(x[i - 1]) * _unit(12, i - 1))

    return TestFunction("maxexp", 12, [make(i) for i in range(1, 13)],
                        description="max of exponentials")


def _maxlog():
    def make(i):
        return (lambda x: -i * np.log(x[i - 1]),
                lambda x: (-i / x[i - 1]) * _unit(30, i - 1))

    return TestFunction("maxlog", 30, [make(i) for i in range(1, 31)],
                        domain=lambda x: bool(np.all(x > 0)),
                        description="max of negative logarithms")


def _max10():
    def make(i):
        return (lambda x: i * x[i - 1] ** 10,
                lambda x: 10 * i * x[i - 1] ** 9 * _unit(10, i - 1))

    return TestFunction("max10", 10, [make(i) for i in range(1, 11)],
                        description="max of 10th-degree monomials")


def _unit(n, j):
    e = np.zeros(n)
    e[j] = 1.0
    return e


TEST_FUNCTIONS = {
    fn.name: fn
    for fn in (_p_alpha(), _dem(), _wong3(), _cb2(), _mifflin2(),
               _evd52(), _oet6(), _maxexp(), _maxlog(), _max10())
}


def get_test_function(name):
    try:
        return TEST_FUNCTIONS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown test function {name!r}; available: {sorted(TEST_FUNCTIONS)}"
        ) from None
