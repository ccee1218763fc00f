"""Main loop: oracle calls, tilt correction, prox subproblem, stopping test.

One run computes the proximal point of a convex function at a fixed
prox-centre z with fixed prox-parameter r, from exact function values and
inexact subgradients.  The iterate sequence is driven entirely by the model;
the configured subgradient error bound eps is metadata used only for the
reported error bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import (AGGREGATE_INDEX, Bundle, BundleElement, BundleVariant,
                    eval_model, make_aggregate, select_bundle, tilt_correct)
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
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")
        if self.eps < 0:
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
    x_out: np.ndarray
    stop_reason: StopReason
    iterations: int
    tilt_corrections: int
    trace: list = field(default_factory=list)
    error_bound: float = np.inf
    f_out: float = np.nan
    gap: float = np.nan


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
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return float(np.sqrt(max(gap, 0.0) + eps * eps / (4.0 * r * r)) + eps / (2.0 * r))


def _prox_with_fallback(bundle, warm):
    """Prox of the model, loosening the KKT target on ill-conditioned duals.

    The strict default is tried first; if the inner QP stalls the target is
    relaxed by 10x and 100x before the failure propagates.
    """
    base = default_tol_kkt(bundle)
    for mult in (1.0, 10.0, 100.0):
        try:
            return prox_of_model(bundle, tol_kkt=base * mult, warm_start=warm)
        except QPConvergenceError:
            if mult == 100.0:
                raise


def _warm_start(lam, old_bundle, keep):
    """Map previous dual weights onto the next bundle's rows.

    The next bundle is the new aggregate, the rows of ``old_bundle`` kept by
    ``keep``, and the newest plane.  The aggregate takes the old aggregate's
    weight and kept rows keep theirs; the newest plane, and the aggregate on
    the first step, get uniform weight.  The whole vector is renormalized
    (the QP projects it anyway); its sum is at least the newest plane's 1/m.
    """
    kept = lam[keep]
    m = kept.size + 2
    agg = lam[:1] if old_bundle.indices[0] == AGGREGATE_INDEX else [1.0 / m]
    out = np.concatenate((agg, kept, [1.0 / m]))
    return out / out.sum()


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
    warm = None
    x_next = z
    f_next = f_z
    gap = np.nan

    for k in range(config.max_iterations):
        x_next, lam, _ = _prox_with_fallback(bundle, warm)
        ev = eval_model(bundle, x_next)
        model_value = ev.value

        resp = oracle(x_next)
        f_next = float(resp.value)
        if not np.isfinite(f_next) or not np.all(np.isfinite(resp.subgrad_approx)):
            raise ValueError(f"oracle returned non-finite output at iteration {k}")

        gap = (f_next - model_value) / r
        stop = stopping_test(f_next, model_value, r, config.stop_tol)

        corrected = False
        if not stop:
            g_new, report = tilt_correct(z, f_z, x_next, f_next, resp.subgrad_approx)
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
            return SolveResult(x_next, StopReason.TOLERANCE_MET, k + 1,
                               tilt_count, trace,
                               error_bound(gap, config.eps, r), f_next, gap)

        keep = select_bundle(config.variant, bundle, ev)
        warm = _warm_start(lam, bundle, keep)
        bundle = Bundle([make_aggregate(bundle, x_next, model_value),
                         BundleElement(k + 1, x_next, f_next, g_new)],
                        z, r, parent=bundle, keep=keep)

    return SolveResult(x_next, StopReason.ITERATION_CAP, config.max_iterations,
                       tilt_count, trace, error_bound(gap, config.eps, r),
                       f_next, gap)
