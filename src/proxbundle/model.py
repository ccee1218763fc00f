"""Bundle storage, the piecewise-linear model, tilt correction, and bundle selection.

A bundle is a set of row arrays (element indices, sites, values and
subgradients) in ascending index order.  Each iteration carries rows forward
through the boolean row mask that ``select_bundle`` returns and appends the
new aggregate and the newest plane.
"""

from __future__ import annotations

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
    """Model value at a point, with boolean masks over the bundle's rows."""

    value: float
    argmax_rows: np.ndarray
    near_active_rows: np.ndarray


class Bundle:
    """Immutable linearizations anchored at a prox-centre, held as row arrays.

    Row i is the plane ``values[i] + subgrads[i] @ (x - sites[i])`` with
    element index ``indices[i]``; rows are in ascending index order.

    ``elements`` (``BundleElement`` objects) add one fresh row each.  With
    ``parent``, an earlier bundle, its rows are carried forward where the
    boolean row mask ``keep`` is set (all of them when it is None).
    """

    __slots__ = ("prox_centre", "prox_param", "indices", "sites", "values",
                 "subgrads", "_centre_values")

    def __init__(self, elements, prox_centre, prox_param, parent=None,
                 keep=None):
        prox_param = float(prox_param)
        if not prox_param > 0.0:
            raise ValueError("prox_param must be positive")
        columns = (np.array([el.index for el in elements], dtype=int),
                   np.array([el.value for el in elements], dtype=float),
                   np.array([el.site for el in elements], dtype=float),
                   np.array([el.subgrad for el in elements], dtype=float))
        if parent is not None:
            old = (parent.indices, parent.values, parent.sites, parent.subgrads)
            if keep is not None:
                if len(keep) != len(parent):
                    raise ValueError("keep needs one entry per parent row")
                old = [col.compress(keep, 0) for col in old]
            # np.concatenate refuses a fresh row of the wrong dimension
            columns = [np.concatenate(pair) for pair in zip(old, columns)]
        idx = columns[0]
        if idx.size == 0:
            raise ValueError("bundle must contain at least one element")
        order = np.argsort(idx, kind="stable")
        self.indices, self.values, self.sites, self.subgrads = (
            col.take(order, 0) for col in columns)
        if (self.indices[1:] == self.indices[:-1]).any():
            raise ValueError(f"duplicate bundle indices: {self.indices.tolist()}")
        self.prox_centre = np.asarray(prox_centre, dtype=float)
        self.prox_param = prox_param
        self._centre_values = None

    def __len__(self):
        return self.indices.size

    def plane_values(self, x):
        """Per-row plane values at x."""
        x = np.asarray(x, dtype=float)
        diffs = x[None, :] - self.sites
        return self.values + np.einsum("ij,ij->i", self.subgrads, diffs)

    @property
    def centre_values(self):
        """Plane values at the prox-centre, computed on first use.

        The QP's linear term and the default KKT target both read them; the
        array is shared, so it is read-only.
        """
        if self._centre_values is None:
            e = self.plane_values(self.prox_centre)
            e.flags.writeable = False
            self._centre_values = e
        return self._centre_values


def tilt_correct(z, f_z, x_k, f_k, g_tilde):
    """Repair a subgradient so its plane does not exceed f at the prox-centre.

    Computes the excess ``E = f_k + g_tilde @ (z - x_k) - f_z``.  If E <= 0
    the input is returned unchanged; otherwise the minimal-norm correction
    ``g = g_tilde - E (z - x_k) / ||z - x_k||^2`` is applied, which makes the
    plane pass through (z, f_z) exactly.
    """
    z = np.asarray(z, dtype=float)
    x_k = np.asarray(x_k, dtype=float)
    g_tilde = np.asarray(g_tilde, dtype=float)
    if not (np.isfinite(f_z) and np.isfinite(f_k)
            and np.all(np.isfinite(z)) and np.all(np.isfinite(x_k))
            and np.all(np.isfinite(g_tilde))):
        raise ValueError("tilt_correct: non-finite input")
    d = z - x_k
    if not d.any():
        if f_k != f_z:
            raise ValueError(
                "oracle inconsistency: x_k equals the prox-centre but f_k != f(z)")
        return g_tilde.copy(), TiltReport(0.0, False, 0.0)
    excess = float(f_k + g_tilde @ d - f_z)
    if excess <= 0.0:
        return g_tilde.copy(), TiltReport(excess, False, 0.0)
    dd = float(d @ d)
    g = g_tilde - (excess / dd) * d
    return g, TiltReport(excess, True, excess / np.sqrt(dd))


def eval_model(bundle, x):
    """Evaluate the piecewise-linear model max_i(value_i + g_i @ (x - site_i)).

    Argmax ties use exact floating-point equality; the near-active rows allow
    an absolute slack of 1e-6.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("eval_model: non-finite input point")
    planes = bundle.plane_values(x)
    value = float(planes.max())
    return ModelEvaluation(value, planes == value,
                           planes >= value - NEAR_ACTIVE_SLACK)


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
    the minimum required for convergence.
    """
    idx = bundle.indices
    if variant is BundleVariant.THREE:
        return idx == CENTRE_INDEX
    if variant is BundleVariant.FULL:
        return idx != AGGREGATE_INDEX
    if variant is BundleVariant.ACTIVE:
        chosen = eval_at_next.argmax_rows
    elif variant is BundleVariant.ALMOST_ACTIVE:
        chosen = eval_at_next.near_active_rows
    else:
        raise ValueError(f"unknown bundle variant: {variant!r}")
    return (chosen | (idx == CENTRE_INDEX)) & (idx != AGGREGATE_INDEX)
