"""Main loop: oracle calls, tilt correction, prox subproblem, stopping test.

One run computes the proximal point of a convex function at a fixed
prox-centre z with fixed prox-parameter r, from exact function values and
inexact subgradients.  The iterate sequence is driven entirely by the model;
the configured subgradient error bound eps is metadata used only for the
reported error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import (Bundle, BundleElement, BundleVariant, eval_model,
                    next_bundle, select_bundle, tilt_correct)
from .qp import QPConvergenceError, default_tol_kkt, prox_of_model

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
        if not self.prox_param > 0:
            raise ValueError("prox_param must be positive")
        if not self.stop_tol >= 0:
            raise ValueError("stop_tol must be nonnegative")
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

    ``loosened_prox`` counts the prox QPs that met only the 10x and only the
    100x loosened KKT target (see ``_prox_with_fallback``).  ``delta_max``
    and ``delta_final`` are the largest and the last model prox's
    primal-dual gap delta = phi(x) - lam . planes(x): the model value at
    the prox point less the QP weights' combination of the plane values
    there.  r-strong convexity certifies that prox point only to
    sqrt(2 delta / r) of the model's true prox point.
    """

    x_out: np.ndarray
    stop_reason: StopReason
    iterations: int
    tilt_corrections: int
    trace: list = field(default_factory=list)
    error_bound: float = np.inf
    f_out: float = np.nan
    gap: float = np.nan
    loosened_prox: tuple = (0, 0)
    delta_max: float = np.nan
    delta_final: float = np.nan


def stopping_test(f_next, model_value, r, s_tol):
    """True when (f_next - model_value)/r <= s_tol**2 (inclusive).

    A negative left side (model above f, possible with inexact subgradients)
    also stops.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    return (f_next - model_value) / r <= s_tol * s_tol


def error_bound(gap, eps, r):
    """Distance bound from the approximal point to the true prox point.

    ``gap`` is (f(x_next) - model_value)/r; a negative gap is clamped at zero
    inside the radicand.  With gap <= s_tol**2 the bound is <= s_tol + eps/r.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    return float(np.sqrt(max(gap, 0.0) + eps * eps / (4.0 * r * r)) + eps / (2.0 * r))


def _prox_with_fallback(bundle, warm, loosened):
    """Prox of the model, loosening the KKT target on ill-conditioned duals.

    The strict default is tried first; if the inner QP stalls the target is
    relaxed by 10x and 100x before the failure propagates.  A call that
    succeeds on the 10x (100x) target adds one to ``loosened[0]``
    (``loosened[1]``).
    """
    base = default_tol_kkt(bundle)
    for rung, mult in enumerate((1.0, 10.0, 100.0)):
        try:
            out = prox_of_model(bundle, tol_kkt=base * mult, warm_start=warm)
        except QPConvergenceError:
            if mult == 100.0:
                raise
            continue
        if rung:
            loosened[rung - 1] += 1
        return out


def run(oracle, config):
    """Iterate the tilt-corrected bundle algorithm until the stopping test.

    ``oracle`` maps an n-vector to an OracleResponse with an exact value and
    an approximate subgradient.  Returns a SolveResult; stop_reason is
    TOLERANCE_MET when (f_{k+1} - phi_k(x_{k+1}))/r <= stop_tol**2 fired,
    ITERATION_CAP otherwise.
    """
    z = config.prox_centre
    r = config.prox_param
    resp0 = oracle(z)
    f_z = float(resp0.value)
    if not np.isfinite(f_z) or not np.all(np.isfinite(resp0.subgrad_approx)):
        raise ValueError("oracle returned non-finite output at the prox-centre")
    # the prox-centre element is never corrected (its excess is identically 0)
    g0, _ = tilt_correct(z, f_z, z, f_z, resp0.subgrad_approx)
    bundle = Bundle([BundleElement(0, z.copy(), f_z, g0)], z, r)

    trace = []
    tilt_count = 0
    loosened = [0, 0]
    warm = None
    x_next = z
    f_next = f_z
    gap = np.nan
    delta_max = -math.inf

    for k in range(config.max_iterations):
        x_next, lam, _ = _prox_with_fallback(bundle, warm, loosened)
        ev = eval_model(bundle, x_next)
        model_value = ev.value
        delta = model_value - float(lam.dot(ev.planes))
        delta_max = max(delta_max, delta)

        resp = oracle(x_next)
        f_next = float(resp.value)
        if not (math.isfinite(f_next)
                and np.isfinite(resp.subgrad_approx).all()):
            raise ValueError(f"oracle returned non-finite output at iteration {k}")

        gap = (f_next - model_value) / r
        stop = stopping_test(f_next, model_value, r, config.stop_tol)

        corrected = False
        if not stop:
            g_new, report = tilt_correct(z, f_z, x_next, f_next,
                                         resp.subgrad_approx)
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

        keep = select_bundle(config.variant, bundle, ev)
        bundle, warm = next_bundle(bundle, keep, x_next, model_value, f_next,
                                   g_new, lam)
    else:
        reason, iterations = StopReason.ITERATION_CAP, config.max_iterations

    return SolveResult(x_next, reason, iterations, tilt_count, trace,
                       error_bound(gap, config.eps, r), f_next, gap,
                       tuple(loosened), delta_max, delta)
