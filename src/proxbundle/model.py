"""Bundle storage, the piecewise-linear model, tilt correction, and bundle selection."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

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

    def plane_at(self, x):
        return float(self.value + self.subgrad @ (np.asarray(x, dtype=float) - self.site))


@dataclass(frozen=True)
class TiltReport:
    excess: float
    corrected: bool
    correction_norm: float


@dataclass(frozen=True)
class ModelEvaluation:
    value: float
    argmax_indices: frozenset
    near_active_indices: frozenset


class Bundle:
    """Immutable indexed collection of linearizations anchored at a prox-centre.

    Elements are stored in ascending index order; sites, values and
    subgradients are stacked into arrays for vectorized plane evaluation.

    ``parent`` is an earlier bundle whose elements may reappear here: each
    element that is the parent's own object under the same index takes its
    row from the parent's arrays instead of being stacked again.
    """

    __slots__ = ("elements", "prox_centre", "prox_param", "indices",
                 "sites", "values", "subgrads", "_row", "_centre_values")

    def __init__(self, elements, prox_centre, prox_param, parent=None):
        elements = sorted(elements, key=attrgetter("index"))
        if not elements:
            raise ValueError("bundle must contain at least one element")
        idx = [el.index for el in elements]
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate bundle indices: {idx}")
        prox_param = float(prox_param)
        if not prox_param > 0.0:
            raise ValueError("prox_param must be positive")
        self.elements = tuple(elements)
        self.prox_centre = np.asarray(prox_centre, dtype=float)
        self.prox_param = prox_param
        self.indices = tuple(idx)
        self._row = {i: row for row, i in enumerate(idx)}
        self._centre_values = None
        if parent is None:
            self.sites = np.stack([el.site for el in elements], dtype=float)
            self.values = np.array([el.value for el in elements], dtype=float)
            self.subgrads = np.stack([el.subgrad for el in elements],
                                     dtype=float)
            return
        src = [parent._row.get(i, -1) for i in idx]
        fresh = [row for row, (s, el) in enumerate(zip(src, elements))
                 if s < 0 or parent.elements[s] is not el]
        # fresh rows gather an arbitrary parent row and are overwritten below
        take = np.array(src)
        self.sites = parent.sites[take]
        self.values = parent.values[take]
        self.subgrads = parent.subgrads[take]
        # row assignment would broadcast a short vector that np.stack rejects
        dim = self.sites.shape[1:]
        for row in fresh:
            el = elements[row]
            if el.site.shape != dim or el.subgrad.shape != dim:
                raise ValueError(
                    f"element {el.index} does not match the bundle dimension")
            self.sites[row] = el.site
            self.values[row] = el.value
            self.subgrads[row] = el.subgrad

    def __len__(self):
        return len(self.elements)

    def __contains__(self, index):
        return index in self._row

    def element(self, index):
        return self.elements[self._row[index]]

    def plane_values(self, x):
        """Per-element plane values at x, in element order."""
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

    Argmax ties use exact floating-point equality; the near-active set allows
    an absolute slack of 1e-6.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("eval_model: non-finite input point")
    planes = bundle.plane_values(x)
    value = float(planes.max())
    argmax = frozenset(bundle.indices[i] for i in np.nonzero(planes == value)[0])
    near = frozenset(bundle.indices[i]
                     for i in np.nonzero(planes >= value - NEAR_ACTIVE_SLACK)[0])
    return ModelEvaluation(value, argmax, near)


def make_aggregate(bundle, x_next, model_value=None):
    """Aggregate element at the model's own prox point.

    Plane through (x_next, phi(x_next)) with slope r (z - x_next); it
    minorizes every later model built from this bundle.  ``model_value`` is
    ``eval_model(bundle, x_next).value`` when the caller already has it.
    """
    x_next = np.asarray(x_next, dtype=float)
    if model_value is None:
        model_value = eval_model(bundle, x_next).value
    subgrad = bundle.prox_param * (bundle.prox_centre - x_next)
    return BundleElement(AGGREGATE_INDEX, x_next.copy(), model_value, subgrad)


def select_bundle(variant, bundle, eval_at_next, k):
    """Index set retained for the next model.

    ``k`` is the index the newest oracle element will carry.  Every policy
    keeps {-1, 0, k}, the minimum required for convergence.
    """
    base = {AGGREGATE_INDEX, CENTRE_INDEX, k}
    if variant is BundleVariant.THREE:
        return frozenset(base)
    if variant is BundleVariant.FULL:
        return frozenset(base | set(range(1, k + 1)))
    if variant is BundleVariant.ACTIVE:
        return frozenset(base | set(eval_at_next.argmax_indices))
    if variant is BundleVariant.ALMOST_ACTIVE:
        return frozenset(base | set(eval_at_next.near_active_indices))
    raise ValueError(f"unknown bundle variant: {variant!r}")
