"""Bundle storage, the piecewise-linear model, tilt correction, and bundle selection.

A bundle is a set of row arrays (element indices, sites, values and
subgradients) in ascending index order, with the planes' values at the
prox-centre.  ``Bundle`` stacks, sorts and checks it from loose elements;
the solver builds each later bundle with ``next_bundle``: the new aggregate,
the parent's rows that the boolean row mask from ``select_bundle`` keeps, and
the newest plane, gathered from the parent's rows in one ``take`` per column,
together with the warm start for the next prox.  The kept rows carry their
centre values, so only the two fresh rows are evaluated at the centre.
Plane values come from one expression, ``_plane_values``.  ``eval_model``
returns the model value with every row's plane value, from which
``select_bundle`` builds only the mask its variant reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "AGGREGATE_INDEX",
    "CENTRE_INDEX",
    "NEAR_ACTIVE_SLACK",
    "BundleVariant",
    "BundleElement",
    "TiltReport",
    "ModelEvaluation",
    "Bundle",
    "tilt_correct",
    "eval_model",
    "make_aggregate",
    "select_bundle",
    "next_bundle",
]

AGGREGATE_INDEX = -1
CENTRE_INDEX = 0
# absolute slack for the "almost active" test
NEAR_ACTIVE_SLACK = 1e-6


class BundleVariant(Enum):
    """Bundle retention policies compared by the benchmark harness."""

    THREE = "three"
    FULL = "full"
    ACTIVE = "active"
    ALMOST_ACTIVE = "almost-active"


@dataclass(frozen=True)
class BundleElement:
    """One linearization: a plane x -> value + subgrad @ (x - site).

    Index -1 is reserved for the aggregate plane, 0 for the prox-centre
    element, and k >= 1 for the k-th iterate.
    """

    index: int
    site: np.ndarray
    value: float
    subgrad: np.ndarray


@dataclass(frozen=True)
class TiltReport:
    excess: float
    corrected: bool
    correction_norm: float


@dataclass(frozen=True)
class ModelEvaluation:
    """Model value at a point, with every row's plane value there."""

    value: float
    planes: np.ndarray


class Bundle:
    """Immutable linearizations anchored at a prox-centre, held as row arrays.

    Row i is the plane ``values[i] + subgrads[i] @ (x - sites[i])`` with
    element index ``indices[i]``; rows are in ascending index order, and
    ``centre_values`` holds every plane's value at the prox-centre (a
    read-only array, which the QP's linear term and the default KKT target
    both read).

    The rows are the ``elements`` (``BundleElement`` objects), stacked,
    sorted by index and checked for duplicates; ``next_bundle`` builds the
    solver's successors from their parent's rows.
    """

    __slots__ = ("prox_centre", "prox_param", "indices", "sites", "values",
                 "subgrads", "centre_values")

    def __init__(self, elements, prox_centre, prox_param):
        prox_param = float(prox_param)
        if not prox_param > 0.0:
            raise ValueError("prox_param must be positive")
        self.prox_centre = np.asarray(prox_centre, dtype=float)
        self.prox_param = prox_param
        columns = (np.array([el.index for el in elements], dtype=int),
                   np.array([el.value for el in elements], dtype=float),
                   np.array([el.site for el in elements], dtype=float),
                   np.array([el.subgrad for el in elements], dtype=float))
        idx = columns[0]
        if idx.size == 0:
            raise ValueError("bundle must contain at least one element")
        order = np.argsort(idx, kind="stable")
        self.indices, self.values, self.sites, self.subgrads = (
            col.take(order, 0) for col in columns)
        if (self.indices[1:] == self.indices[:-1]).any():
            raise ValueError(f"duplicate bundle indices: {self.indices.tolist()}")
        self.centre_values = self.plane_values(self.prox_centre)
        self.centre_values.flags.writeable = False

    def __len__(self):
        return self.indices.size

    def plane_values(self, x):
        """Per-row plane values at x."""
        return _plane_values(self.values, self.sites, self.subgrads,
                             np.asarray(x, dtype=float))


def _plane_values(values, sites, subgrads, x):
    """The planes ``values[i] + subgrads[i] @ (x - sites[i])`` at x."""
    return values + np.einsum("ij,ij->i", subgrads, x[None, :] - sites)


def _successor_rows(keep):
    """Parent rows gathered into a successor: 0, then the rows that the mask
    ``keep`` sets in ascending order, then 0.  The first and last entries
    are placeholders for the fresh aggregate and the newest plane."""
    kept = np.flatnonzero(keep)
    rows = np.zeros(kept.size + 2, dtype=np.intp)
    rows[1:-1] = kept
    return rows


def _require_finite(args):
    """Raise tilt_correct's error unless every argument is finite."""
    z, f_z, x_k, f_k, g_tilde = args
    if not (math.isfinite(f_z) and math.isfinite(f_k)
            and np.isfinite(z).all() and np.isfinite(x_k).all()
            and np.isfinite(g_tilde).all()):
        raise ValueError("tilt_correct: non-finite input")


def tilt_correct(z, f_z, x_k, f_k, g_tilde):
    """Repair a subgradient so its plane does not exceed f at the prox-centre.

    Computes the excess ``E = f_k + g_tilde @ (z - x_k) - f_z``.  If E <= 0
    the input is returned unchanged; otherwise the minimal-norm correction
    ``g = g_tilde - E (z - x_k) / ||z - x_k||^2`` is applied, which makes the
    plane pass through (z, f_z) exactly.

    ``z``, ``x_k`` and ``g_tilde`` of shapes other than one 1-d shape raise
    ``ValueError`` before any arithmetic.  A non-finite input raises
    ``ValueError``.  The inputs are scanned only once the excess is not
    finite, so with NumPy's default settings a non-finite input may issue an
    invalid-value ``RuntimeWarning`` before the error; where floating-point
    errors or warnings raise, the scan runs when the arithmetic raises, and
    the error is still the ``ValueError``.
    """
    z = np.asarray(z, dtype=float)
    x_k = np.asarray(x_k, dtype=float)
    g_tilde = np.asarray(g_tilde, dtype=float)
    if not (z.ndim == 1 and z.shape == x_k.shape == g_tilde.shape):
        raise ValueError("tilt_correct: z, x_k and g_tilde need one 1-d shape")
    args = (z, f_z, x_k, f_k, g_tilde)
    try:
        d = z - x_k
        if not d.any():
            _require_finite(args)
            if f_k != f_z:
                raise ValueError("oracle inconsistency: x_k equals the "
                                 "prox-centre but f_k != f(z)")
            return g_tilde.copy(), TiltReport(0.0, False, 0.0)
        excess = float(f_k + g_tilde @ d - f_z)
    except (FloatingPointError, RuntimeWarning):
        # raised by the arithmetic under np.errstate(...="raise") or with
        # warnings as errors: a non-finite input still raises its own error
        _require_finite(args)
        raise
    # with z != x_k a non-finite input makes the excess non-finite, so the
    # inputs are scanned only then; a finite excess needs no scan
    if not math.isfinite(excess):
        _require_finite(args)
    if excess <= 0.0:
        return g_tilde.copy(), TiltReport(excess, False, 0.0)
    dd = float(d @ d)
    g = g_tilde - (excess / dd) * d
    return g, TiltReport(excess, True, excess / np.sqrt(dd))


def eval_model(bundle, x):
    """Evaluate the piecewise-linear model max_i(value_i + g_i @ (x - site_i)).

    Returns the value and every row's plane value at x, from which
    ``select_bundle`` reads the rows it keeps.

    A point not of the bundle's point shape raises ``ValueError`` before any
    arithmetic.  A non-finite point raises ``ValueError``.  It is scanned
    only once the model value is not finite; the arithmetic before that scan
    (the subtraction of the bundle's finite sites, the ``einsum`` and the
    max) issues no floating-point warning or error on it, so the
    ``ValueError`` comes alone under any ``np.errstate`` or warnings filter.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != bundle.sites.shape[1:]:
        raise ValueError(f"eval_model: point of shape {x.shape}, expected "
                         f"{bundle.sites.shape[1:]}")
    # a non-finite point makes every plane value, so the max, non-finite,
    # and the point is scanned only then
    planes = bundle.plane_values(x)
    value = float(np.maximum.reduce(planes))
    if not math.isfinite(value) and not np.isfinite(x).all():
        raise ValueError("eval_model: non-finite input point")
    return ModelEvaluation(value, planes)


def make_aggregate(bundle, x_next, model_value):
    """Aggregate element at the model's own prox point.

    Plane through (x_next, phi(x_next)) with slope r (z - x_next); it
    minorizes every later model built from this bundle.  ``model_value`` is
    phi(x_next), ``eval_model(bundle, x_next).value``.
    """
    x_next = np.asarray(x_next, dtype=float)
    subgrad = bundle.prox_param * (bundle.prox_centre - x_next)
    return BundleElement(AGGREGATE_INDEX, x_next.copy(), model_value, subgrad)


def select_bundle(variant, bundle, eval_at_next):
    """Row mask of ``bundle`` carried into the next model.

    Every policy keeps the prox-centre row and drops the old aggregate, which
    the new aggregate replaces; with the newest plane that makes {-1, 0, k},
    the minimum required for convergence.  ACTIVE adds ``eval_at_next``'s
    exact argmax rows, ALMOST_ACTIVE its rows within ``NEAR_ACTIVE_SLACK``.
    """
    idx = bundle.indices
    if variant is BundleVariant.THREE:
        return idx == CENTRE_INDEX
    if variant is BundleVariant.FULL:
        return idx != AGGREGATE_INDEX
    if variant is BundleVariant.ACTIVE:
        chosen = eval_at_next.planes == eval_at_next.value
    elif variant is BundleVariant.ALMOST_ACTIVE:
        chosen = eval_at_next.planes >= eval_at_next.value - NEAR_ACTIVE_SLACK
    else:
        raise ValueError(f"unknown bundle variant: {variant!r}")
    return (chosen | (idx == CENTRE_INDEX)) & (idx != AGGREGATE_INDEX)


def next_bundle(bundle, keep, x_next, model_value, f_next, g_next, lam):
    """The solver's next bundle and the warm start for its prox.

    The successor holds the aggregate at ``x_next`` (``make_aggregate`` with
    ``model_value``), the rows of ``bundle`` that the boolean row mask
    ``keep`` sets, and the newest plane ``(x_next, f_next, g_next)`` under
    the index after the parent's last, at the parent's prox-centre.  The
    rows are gathered from the parent's in one ``take`` per column, and the
    kept rows carry their centre values.  ``keep`` must have one entry per
    row and may not keep the old aggregate, and ``x_next`` and ``g_next``
    must have the bundle's point shape; anything else raises ``ValueError``.

    The warm start gathers the dual weights ``lam`` with the same rows: the
    aggregate takes the old aggregate's weight and kept rows keep theirs;
    the newest plane, and the aggregate on the first step, get uniform
    weight.  The whole vector is renormalized (the QP projects it anyway);
    its sum is at least the newest plane's 1/m.
    """
    point = bundle.sites.shape[1:]
    if np.shape(keep) != (len(bundle),):
        raise ValueError("a successor needs one keep entry per parent row")
    first_step = bundle.indices[0] != AGGREGATE_INDEX
    if keep[0] and not first_step:
        raise ValueError("a successor replaces the old aggregate")
    if not np.shape(x_next) == np.shape(g_next) == point:
        raise ValueError("a successor's fresh rows have the parent's "
                         "dimension")
    agg = make_aggregate(bundle, x_next, model_value)
    rows = _successor_rows(keep)
    nxt = Bundle.__new__(Bundle)
    nxt.prox_centre = z = bundle.prox_centre
    nxt.prox_param = bundle.prox_param
    nxt.indices = idx = bundle.indices.take(rows)
    nxt.values = vals = bundle.values.take(rows)
    nxt.sites = S = bundle.sites.take(rows, 0)
    nxt.subgrads = G = bundle.subgrads.take(rows, 0)
    idx[0], vals[0], S[0], G[0] = (AGGREGATE_INDEX, agg.value, agg.site,
                                   agg.subgrad)
    idx[-1], vals[-1], S[-1], G[-1] = (bundle.indices[-1] + 1, f_next,
                                       x_next, g_next)
    # kept rows keep their centre values; the two fresh rows (first and
    # last) are evaluated at the centre
    e = bundle.centre_values.take(rows)
    fresh = slice(None, None, rows.size - 1)
    e[fresh] = _plane_values(vals[fresh], S[fresh], G[fresh], z)
    e.flags.writeable = False
    nxt.centre_values = e
    warm = lam.take(rows)
    m = warm.size
    if first_step:
        warm[0] = 1.0 / m
    warm[-1] = 1.0 / m
    return nxt, warm / warm.sum()
