"""Main loop: oracle calls, tilt correction, prox subproblem, stopping test.

One run computes the proximal point of a convex function at a fixed
prox-centre z with fixed prox-parameter r, from exact function values and
inexact subgradients.  The iterate sequence is driven entirely by the model;
the configured subgradient error bound eps is metadata used only for the
reported error bound.

Each model prox is solved once, to a gap of ``THETA r s_tol**2``, and the
run stops on the gap of the aggregate plane of the QP's weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import (Bundle, BundleElement, BundleVariant, eval_model,
                    next_bundle, select_bundle, tilt_correct)
from .qp import prox_of_model

__all__ = [
    "StopReason",
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "stopping_test",
    "error_bound",
    "default_iteration_cap",
    "run",
]

# Each model prox's gap delta is held to this fraction of r s_tol**2, the
# stopping test's threshold on the aggregate's gap
THETA = 0.1


class StopReason(Enum):
    TOLERANCE_MET = "tolerance-met"
    ITERATION_CAP = "iteration-cap"


def default_iteration_cap(n):
    """100n for the low-dimension regime, 20n in high dimension."""
    return 100 * n if n <= 25 else 20 * n


@dataclass
class SolverConfig:
    prox_centre: np.ndarray
    prox_param: float = 1.0
    stop_tol: float = 1e-3
    variant: BundleVariant = BundleVariant.FULL
    max_iterations: int | None = None
    record_trace: bool = True
    eps: float = 0.0

    def __post_init__(self):
        self.prox_centre = np.asarray(self.prox_centre, dtype=float)
        if not 0 < self.prox_param < math.inf:
            raise ValueError("prox_param must be positive and finite")
        try:  # run's prox-QP target; a tiny stop_tol underflows it to 0
            target = THETA * self.prox_param * self.stop_tol ** 2
        except OverflowError:
            target = math.inf
        if not (self.stop_tol > 0 and 0.0 < target < math.inf):
            raise ValueError("stop_tol must be positive, with THETA * "
                             "prox_param * stop_tol**2 positive and finite")
        if not self.eps >= 0:
            raise ValueError("eps must be nonnegative")
        if self.max_iterations is None:
            self.max_iterations = default_iteration_cap(self.prox_centre.size)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    x_next: np.ndarray
    model_value: float
    model_at_centre: float
    merit: float
    gap: float
    tilt_corrected: bool
    bundle_size: int


@dataclass
class SolveResult:
    """Outcome of one run.

    ``gap`` is the last aggregate gap (f(x_out) - a(x_out))/r, where the
    aggregate a = lam . planes combines the planes with the last model
    prox's dual weights.  ``delta_max`` and ``delta_final`` are the largest
    and the last model prox's primal-dual gap delta = phi(x) - a(x): the
    model value at the prox point less the aggregate's value there, which
    is the QP's residual.  Each is at most ``THETA r s_tol**2``, up to
    rounding.
    """

    x_out: np.ndarray
    stop_reason: StopReason
    iterations: int
    tilt_corrections: int
    trace: list = field(default_factory=list)
    error_bound: float = np.inf
    f_out: float = np.nan
    gap: float = np.nan
    delta_max: float = np.nan
    delta_final: float = np.nan


def stopping_test(f_next, agg_value, r, s_tol):
    """True when (f_next - agg_value)/r <= s_tol**2 (inclusive), where
    ``agg_value`` is the aggregate's value at x_next.

    A negative left side (aggregate above f, possible with inexact
    subgradients) also stops.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    return (f_next - agg_value) / r <= s_tol * s_tol


def error_bound(gap, eps, r):
    """Distance bound ``sqrt(gap + eps**2/(4 r**2)) + eps/(2r)`` from the
    approximal point to the true prox point.

    ``gap`` is (f(x_next) - a(x_next))/r for the aggregate a of the last
    model prox; a negative gap is clamped at zero inside the radicand.
    With gap <= s_tol**2 the bound is <= s_tol + eps/r.

    x_next is the exact prox point of a, however inexact the QP was, since
    a's slope is r (z - x_next).  With an exact oracle and a <= f, r-strong
    convexity gives ``||x_next - prox(z)|| <= sqrt(gap)``; the eps form for
    inexact subgradients is the candidate that Kiwiel's analysis of
    inexact linearizations (SIAM J. Optim. 16, 2006) suggests.  The bound
    rests on a <= f, which is observed, not proved: the bundle stores each
    aggregate plane through phi(x_next), delta above a(x_next), so a later
    aggregate that weights it may sit that much above f.  Carrying that
    lift, or an a-posteriori distance certificate, would make it a proof.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    return float(np.sqrt(max(gap, 0.0) + eps * eps / (4.0 * r * r)) + eps / (2.0 * r))


def run(oracle, config):
    """Iterate the tilt-corrected bundle algorithm until the stopping test.

    ``oracle`` maps an n-vector to an OracleResponse with an exact value and
    an approximate subgradient.  Returns a SolveResult; stop_reason is
    TOLERANCE_MET when (f_{k+1} - a_k(x_{k+1}))/r <= stop_tol**2 fired for
    the aggregate a_k of the k-th model prox, ITERATION_CAP otherwise.
    Each model prox is solved to the gap ``THETA r stop_tol**2``; a QP that
    cannot reach it raises ``QPConvergenceError``.
    """
    z = config.prox_centre
    r = config.prox_param
    tol_kkt = THETA * r * config.stop_tol ** 2
    resp0 = oracle(z)
    f_z = float(resp0.value)
    if not np.isfinite(f_z) or not np.all(np.isfinite(resp0.subgrad_approx)):
        raise ValueError("oracle returned non-finite output at the prox-centre")
    # the prox-centre element is never corrected (its excess is identically 0)
    g0, _ = tilt_correct(z, f_z, z, f_z, resp0.subgrad_approx)
    bundle = Bundle([BundleElement(0, z.copy(), f_z, g0)], z, r)

    trace = []
    tilt_count = 0
    warm = None
    x_next = z
    f_next = f_z
    gap = np.nan
    delta_max = -math.inf

    for k in range(config.max_iterations):
        x_next, lam, _ = prox_of_model(bundle, tol_kkt=tol_kkt,
                                       warm_start=warm)
        ev = eval_model(bundle, x_next)
        model_value = ev.value
        agg_value = float(lam.dot(ev.planes))
        delta = model_value - agg_value
        delta_max = max(delta_max, delta)

        resp = oracle(x_next)
        f_next = float(resp.value)
        g_tilde = resp.subgrad_approx
        # a finite sum of squares (vdot does not warn) means finite
        # entries; only one that overflows or is NaN needs the scan
        if not (math.isfinite(f_next)
                and (math.isfinite(np.vdot(g_tilde, g_tilde))
                     or np.isfinite(g_tilde).all())):
            raise ValueError(f"oracle returned non-finite output at iteration {k}")

        gap = (f_next - agg_value) / r
        stop = stopping_test(f_next, agg_value, r, config.stop_tol)

        corrected = False
        if not stop:
            g_new, report = tilt_correct(z, f_z, x_next, f_next, g_tilde)
            corrected = report.corrected
            if corrected:
                tilt_count += 1

        if config.record_trace:
            merit = model_value + 0.5 * r * float((z - x_next) @ (z - x_next))
            model_at_centre = float(bundle.centre_values.max())
            trace.append(IterationRecord(k, x_next.copy(), model_value,
                                         model_at_centre, merit, gap,
                                         corrected, len(bundle)))

        if stop:
            reason, iterations = StopReason.TOLERANCE_MET, k + 1
            break

        keep = select_bundle(config.variant, bundle, ev, lam)
        bundle, warm = next_bundle(bundle, keep, x_next, model_value, f_next,
                                   g_new, lam)
    else:
        reason, iterations = StopReason.ITERATION_CAP, config.max_iterations

    return SolveResult(x_next, reason, iterations, tilt_count, trace,
                       error_bound(gap, config.eps, r), f_next, gap,
                       delta_max, delta)
