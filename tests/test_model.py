"""Tests for bundle structures, tilt correction, and selection policies."""

import contextlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from proxbundle import model
from proxbundle.model import (AGGREGATE_INDEX, CENTRE_INDEX,
                              NEAR_ACTIVE_SLACK, Bundle, BundleElement,
                              BundleVariant, ModelEvaluation, TiltReport,
                              eval_model, make_aggregate, next_bundle,
                              select_bundle, tilt_correct)


def vec(*vals):
    return np.array(vals, dtype=float)


def simple_bundle(planes, z, r=1.0, start_index=0):
    elements = [BundleElement(start_index + i, np.asarray(s, float),
                              float(v), np.asarray(g, float))
                for i, (s, v, g) in enumerate(planes)]
    return Bundle(elements, np.asarray(z, float), r)


def successor(parent, keep, x_next, model_value, f_next, g_next):
    """The bundle the solver builds from ``parent``: the aggregate at
    ``x_next``, the rows kept by ``keep`` and the newest plane."""
    lam = np.full(len(parent), 1.0 / len(parent))
    return next_bundle(parent, np.asarray(keep), x_next, model_value, f_next,
                       g_next, lam)[0]


def tilt_correct_scanning_first(z, f_z, x_k, f_k, g_tilde):
    """Reference: ``tilt_correct`` with every input scanned before any
    arithmetic."""
    z = np.asarray(z, dtype=float)
    x_k = np.asarray(x_k, dtype=float)
    g_tilde = np.asarray(g_tilde, dtype=float)
    if not (z.ndim == 1 and z.shape == x_k.shape == g_tilde.shape):
        raise ValueError("tilt_correct: z, x_k and g_tilde need one 1-d shape")
    if not (math.isfinite(f_z) and math.isfinite(f_k)
            and np.isfinite(z).all() and np.isfinite(x_k).all()
            and np.isfinite(g_tilde).all()):
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


def eval_model_scanning_first(bundle, x):
    """Reference: ``eval_model`` with the point scanned before any
    arithmetic."""
    x = np.asarray(x, dtype=float)
    if x.shape != bundle.subgrads.shape[1:]:
        raise ValueError(f"eval_model: point of shape {x.shape}, expected "
                         f"{bundle.subgrads.shape[1:]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("eval_model: non-finite input point")
    planes = bundle.plane_values(x)
    return ModelEvaluation(float(planes.max()), planes)


def reference_mask(variant, bundle, x, lam):
    """Reference for ``select_bundle``: the rows of positive dual weight
    (ACTIVE) or within ``NEAR_ACTIVE_SLACK`` of the model value at x
    (ALMOST_ACTIVE), with the prox-centre row and without the old
    aggregate."""
    planes = bundle.plane_values(x)
    value = float(planes.max())
    idx = bundle.indices
    chosen = {BundleVariant.THREE: np.zeros(len(bundle), dtype=bool),
              BundleVariant.FULL: np.ones(len(bundle), dtype=bool),
              BundleVariant.ACTIVE: np.asarray(lam) > 0.0,
              BundleVariant.ALMOST_ACTIVE:
                  planes >= value - NEAR_ACTIVE_SLACK}[variant]
    return (chosen | (idx == CENTRE_INDEX)) & (idx != AGGREGATE_INDEX)


def outcome(fn, *args, mode="always"):
    """What a call gives: its result as bytes, or its error, plus the
    warnings it issued.  ``mode`` "error" turns warnings into errors and
    "raise" makes NumPy's floating-point errors raise."""
    errors = (np.errstate(all="raise") if mode == "raise"
              else contextlib.nullcontext())
    with warnings.catch_warnings(record=True) as caught, errors:
        warnings.simplefilter("error" if mode == "error" else "always")
        try:
            got = fn(*args)
        except Exception as exc:
            got = (type(exc), str(exc))
        else:
            if isinstance(got, ModelEvaluation):
                got = vars(got).values()
            got = tuple(part.tobytes() if isinstance(part, np.ndarray)
                        else repr(part) for part in got)
    return got, [(w.category, str(w.message)) for w in caught]


def assert_as_scanning_first(fn, reference, *args):
    """``fn`` returns what ``reference`` returns, bitwise, or raises the same
    error.  Warnings agree when every input is finite; on a non-finite one
    the arithmetic that runs before the scan may warn first.  Where warnings
    or floating-point errors raise, every outcome agrees."""
    got, warned = outcome(fn, *args)
    want, ref_warned = outcome(reference, *args)
    assert got == want
    finite = all(np.isfinite(a).all() for a in args
                 if not isinstance(a, Bundle))
    if finite:
        assert warned == ref_warned
    for mode in ("error", "raise"):
        assert outcome(fn, *args, mode=mode) == outcome(reference, *args,
                                                         mode=mode)


class TestTiltCorrect:
    def test_overshooting_plane_is_flattened(self):
        # plane from (x=1, f=0, g=-1) would claim value 1 at z=0 where f=0
        g, report = tilt_correct(vec(0.0), 0.0, vec(1.0), 0.0, vec(-1.0))
        assert report.corrected
        assert report.excess == 1.0
        np.testing.assert_allclose(g, [0.0])
        # corrected plane passes through (z, f(z))
        assert 0.0 + g @ (vec(0.0) - vec(1.0)) == 0.0

    def test_consistent_plane_unchanged(self):
        g, report = tilt_correct(vec(0.0), 0.0, vec(1.0), 1.0, vec(3.0))
        assert not report.corrected
        assert report.excess == -2.0
        assert report.correction_norm == 0.0
        np.testing.assert_array_equal(g, [3.0])

    def test_site_equal_to_centre_never_corrected(self):
        z = vec(1.0, 2.0)
        g, report = tilt_correct(z, 5.0, z, 5.0, vec(9.0, -9.0))
        assert not report.corrected
        assert report.excess == 0.0
        np.testing.assert_array_equal(g, [9.0, -9.0])

    def test_site_equal_to_centre_with_wrong_value_rejected(self):
        z = vec(1.0)
        with pytest.raises(ValueError):
            tilt_correct(z, 5.0, z, 6.0, vec(1.0))

    def test_rejects_non_finite(self):
        good = (vec(0.0, 0.0), 0.0, vec(1.0, 1.0), 0.5, vec(1.0, -1.0))
        tilt_correct(*good)
        # every argument is checked, whichever way the plane would go
        for pos, bad in itertools.product(range(5), (np.inf, -np.inf, np.nan)):
            args = list(good)
            if pos in (1, 3):
                args[pos] = bad
            else:
                args[pos] = args[pos].copy()
                args[pos][1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                tilt_correct(*args)
        # inf - inf in z - x_k raises the same error where NumPy's
        # invalid-value errors raise
        with pytest.raises(ValueError, match="non-finite"), \
                np.errstate(invalid="raise"):
            tilt_correct(vec(np.inf), 0.0, vec(np.inf), 0.0, vec(1.0))

    def test_inputs_are_scanned_only_when_the_excess_is_not_finite(self):
        # every input is one tilt_correct always accepted or rejected the
        # same way: moved and unmoved points, finite inputs whose excess
        # overflows, and shapes other than one 1-d shape, which raise before
        # any arithmetic (even where it would broadcast)
        z, x, g = vec(0.0, 0.0), vec(1.0, 1.0), vec(1.0, -1.0)
        big = vec(1e308, 1e308)
        cases = [(z, 0.0, x, 0.5, g), (z, 0.0, z, 0.0, g),
                 (z, 0.0, z, 1.0, g),
                 # overflowing excess: +inf, -inf and inf - inf
                 (z, 0.0, -x, 1e308, big), (z, 1e308, -x, -1e308, -big),
                 (z, -1e308, x, 1e308, vec(-1e308, 1e308)),
                 (z, 0.0, vec(2e308 / 4, -1e308), 0.0, vec(-4.0, 4.0)),
                 # shapes: broadcast, rejected, 0-d and 2-d
                 (z, 0.0, vec(1.0), 0.5, g),
                 (z, 0.0, vec(1.0, 1.0, 1.0), 0.5, g),
                 (z, 0.0, x, 0.5, vec(1.0)), (vec(0.0), 0.0, vec(1.0), 0.5, g),
                 (np.float64(0.0), 0.0, np.float64(1.0), 0.5, np.float64(1.0)),
                 (np.zeros((2, 2)), 0.0, np.ones((2, 2)), 0.5, np.eye(2))]
        for case in list(cases):
            for pos, bad in itertools.product(range(5),
                                              (np.inf, -np.inf, np.nan)):
                args = list(case)
                if pos in (1, 3):
                    args[pos] = bad
                else:
                    args[pos] = np.array(args[pos], dtype=float)
                    args[pos].reshape(-1)[-1] = bad
                cases.append(tuple(args))
        for case in cases:
            assert_as_scanning_first(tilt_correct, tilt_correct_scanning_first,
                                     *case)
        for case in cases[7:13]:
            with pytest.raises(ValueError, match="1-d shape"):
                tilt_correct(*case)

    @given(
        st.integers(1, 5),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_corrected_plane_exact_at_centre_and_minimal(self, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=n)
        x_k = z + rng.normal(size=n) * rng.uniform(0.1, 2.0)
        if np.array_equal(x_k, z):
            return
        f_z = float(rng.normal())
        f_k = float(rng.normal())
        g_tilde = rng.normal(size=n)
        g, report = tilt_correct(z, f_z, x_k, f_k, g_tilde)
        excess = f_k + g_tilde @ (z - x_k) - f_z
        if excess <= 0:
            assert not report.corrected
            np.testing.assert_array_equal(g, g_tilde)
            return
        assert report.corrected
        # plane anchored at the centre
        assert abs(f_k + g @ (z - x_k) - f_z) <= 1e-12 * (1 + abs(f_z))
        # minimal-norm correction
        expected = excess / np.linalg.norm(z - x_k)
        assert abs(np.linalg.norm(g - g_tilde) - expected) <= 1e-12 * (
            1 + expected)
        assert abs(report.correction_norm - expected) <= 1e-12 * (1 + expected)


def rows_of(bundle, mask):
    return bundle.indices[mask].tolist()


def uniform(bundle):
    """Equal dual weights on every row of ``bundle``."""
    return np.full(len(bundle), 1.0 / len(bundle))


class TestBundle:
    def test_duplicate_indices_rejected(self):
        e = BundleElement(0, vec(0.0), 0.0, vec(1.0))
        with pytest.raises(ValueError):
            Bundle([e, e], vec(0.0), 1.0)

    def test_nonpositive_prox_param_rejected(self):
        e = BundleElement(0, vec(0.0), 0.0, vec(1.0))
        with pytest.raises(ValueError):
            Bundle([e], vec(0.0), 0.0)

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            Bundle([], vec(0.0), 1.0)

    def test_elements_sorted_by_index(self):
        # a successor: the aggregate at x_next = 2 (slope r (z - 2)), the
        # kept row, then the newest plane under the next index, each held
        # as its value at the centre z = 0
        b = simple_bundle([(vec(1.0), 1.0, vec(1.0))], vec(0.0))
        b2 = successor(b, [True], vec(2.0), 0.5, 2.0, vec(3.0))
        assert b2.indices.tolist() == [-1, 0, 1]
        np.testing.assert_array_equal(b2.centre_values, [4.5, 0.0, -4.0])
        np.testing.assert_array_equal(b2.subgrads, [[-2.0], [1.0], [3.0]])
        # elements given out of order are sorted
        shuffled = [BundleElement(i, vec(float(i)), float(i), vec(-i))
                    for i in (3, 1, 2)]
        b3 = Bundle(shuffled, vec(0.0), 1.0)
        assert b3.indices.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(b3.centre_values, [2.0, 6.0, 12.0])
        np.testing.assert_array_equal(b3.subgrads, [[-1.0], [-2.0], [-3.0]])

    def test_membership_and_lookup(self):
        b = simple_bundle([(vec(0.0), 0.0, vec(1.0)),
                           (vec(1.0), 1.0, vec(2.0))], vec(0.0))
        assert 0 in b.indices and 1 in b.indices and 2 not in b.indices
        assert b.indices.dtype.kind == "i"
        assert len(b) == 2
        np.testing.assert_array_equal(b.centre_values[b.indices == 1], [-1.0])
        np.testing.assert_array_equal(b.subgrads[b.indices == 1], [[2.0]])
        assert b.centre_values[b.indices == 5].size == 0

    def test_centre_values_are_plane_values_at_centre(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=3)
        planes = [(rng.normal(size=3), rng.normal(), rng.normal(size=3))
                  for _ in range(6)]
        b = simple_bundle(planes, z, r=1.5)
        e = b.centre_values
        np.testing.assert_array_equal(e, b.plane_values(z))
        assert b.centre_values is e
        with pytest.raises(ValueError):
            e[0] = 0.0
        # a successor carries its kept rows' values and evaluates the two
        # fresh rows; its array is read-only too
        x, value, g = planes[1]
        nxt = successor(b, np.arange(6) % 2 == 0, x, value, value, g)
        np.testing.assert_array_equal(nxt.centre_values,
                                      nxt.plane_values(z))
        with pytest.raises(ValueError):
            nxt.centre_values[0] = 0.0

    def test_successor_rows_match_restacked_bundle(self):
        rng = np.random.default_rng(5)
        n = 4
        z = rng.normal(size=n)

        def element(i):
            return BundleElement(i, rng.normal(size=n), float(rng.normal()),
                                 rng.normal(size=n))

        old = [element(i) for i in (-1, 0, 1, 3, 4, 6)]
        parent = Bundle(old, z, 2.0)
        keep = np.isin(parent.indices, (0, 3, 6))
        # a fresh aggregate replaces the parent's row under index -1
        x, value, f, g = (rng.normal(size=n), float(rng.normal()),
                          float(rng.normal()), rng.normal(size=n))
        carried = successor(parent, keep, x, value, f, g)
        fresh = [make_aggregate(parent, x, value), BundleElement(7, x, f, g)]
        stacked = Bundle(fresh + [old[i] for i in (1, 3, 5)], z, 2.0)
        assert carried.indices.tolist() == [-1, 0, 3, 6, 7]
        for name in ("indices", "subgrads", "centre_values"):
            np.testing.assert_array_equal(getattr(carried, name),
                                          getattr(stacked, name))
        assert not hasattr(carried, "sites")
        assert not hasattr(carried, "values")

    def test_integer_rows_stored_as_float(self):
        # integer rows are stored as floats, and a successor's fresh rows
        # are written into the parent's float rows without truncation
        ints = BundleElement(0, np.array([1, 2]), 3, np.array([4, 5]))
        parent = Bundle([ints], vec(0.0, 0.0), 1.0)
        assert parent.subgrads.dtype == parent.centre_values.dtype == float
        np.testing.assert_array_equal(parent.centre_values, [-11.0])
        b = successor(parent, [True], vec(0.5, 0.25), 2, 0.5, vec(-0.5, 1.5))
        np.testing.assert_array_equal(b.centre_values, [2.3125, -11.0, 0.375])
        np.testing.assert_array_equal(
            b.subgrads, [[-0.5, -0.25], [4.0, 5.0], [-0.5, 1.5]])
        assert b.subgrads.dtype == b.centre_values.dtype == float

    def test_successor_rejects_mismatched_dimension(self):
        parent = simple_bundle([(vec(0.0, 0.0), 0.0, vec(1.0, 1.0))],
                               vec(0.0, 0.0))
        x, g = vec(1.0, 1.0), vec(1.0, 1.0)
        successor(parent, [True], x, 0.5, 0.0, g)
        # the short point would broadcast into the parent's rows
        for x_next, g_next in ((x, vec(1.0)), (vec(1.0), g),
                               (vec(1.0), vec(1.0)), (np.ones((1, 2)), g)):
            with pytest.raises(ValueError):
                successor(parent, [True], x_next, 0.5, 0.0, g_next)
        short = BundleElement(1, vec(1.0), 0.0, vec(1.0))
        with pytest.raises(ValueError):
            Bundle([BundleElement(0, vec(0.0, 0.0), 0.0, vec(1.0, 1.0)),
                    short], vec(0.0, 0.0), 1.0)

    def test_successor_keeps_the_centre_and_replaces_the_old_aggregate(self):
        # the successor sits at its parent's prox-centre, and a mask that
        # keeps the old aggregate, or no mask, is refused
        z = vec(0.0, 0.0)
        parent = Bundle([BundleElement(i, vec(i, 1.0), float(i), vec(1.0, i))
                         for i in (-1, 0, 2, 4)], z, 1.0)
        keep = np.array([False, True, True, False])
        x, g = vec(3.0, 3.0), vec(-1.0, 1.0)
        nxt = successor(parent, keep, x, 0.5, 3.0, g)
        assert nxt.indices.tolist() == [-1, 0, 2, 5]
        assert nxt.prox_centre is parent.prox_centre
        assert nxt.prox_param == parent.prox_param
        for bad in (np.array([True, True, False, False]), None):
            with pytest.raises(ValueError):
                successor(parent, bad, x, 0.5, 3.0, g)

    def test_successor_rejects_mask_of_wrong_length(self):
        parent = simple_bundle([(vec(0.0), 0.0, vec(1.0)),
                                (vec(1.0), 1.0, vec(2.0))], vec(0.0))
        for keep in ([], [True], [True, False, True], [[True, False]]):
            with pytest.raises(ValueError):
                successor(parent, keep, vec(2.0), 0.5, 2.0, vec(3.0))


class TestEvalModel:
    def test_single_plane_at_own_site(self):
        z = vec(2.0)
        b = simple_bundle([(z, 7.0, vec(1.0))], z)
        ev = eval_model(b, z)
        assert ev.value == 7.0
        assert ev.planes.tolist() == [7.0]
        assert rows_of(b, select_bundle(BundleVariant.ALMOST_ACTIVE, b, ev,
                                        uniform(b))) == [0]

    def test_tie_reports_both_indices(self):
        # planes (site 0, val 0, g -1) and (site 2, val 0, g 1) meet at x=1;
        # neither is the prox-centre row, which every policy keeps
        b = simple_bundle([(vec(0.0), 0.0, vec(-1.0)),
                           (vec(2.0), 0.0, vec(1.0))], vec(0.0),
                          start_index=1)
        ev = eval_model(b, vec(1.0))
        assert ev.value == -1.0
        assert ev.planes.tolist() == [-1.0, -1.0]
        assert rows_of(b, select_bundle(BundleVariant.ALMOST_ACTIVE, b, ev,
                                        uniform(b))) == [1, 2]

    def test_near_active_includes_argmax(self):
        b = simple_bundle([(vec(0.0), 0.0, vec(0.0)),
                           (vec(0.0), -1e-7, vec(0.0)),
                           (vec(0.0), -1.0, vec(0.0))], vec(0.0),
                          start_index=1)
        ev = eval_model(b, vec(0.5))
        near = select_bundle(BundleVariant.ALMOST_ACTIVE, b, ev, uniform(b))
        assert near.dtype == bool
        assert rows_of(b, near) == [1, 2]

    def test_latest_plane_minorizes_model(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            z = rng.normal(size=n)
            planes = [(rng.normal(size=n), rng.normal(), rng.normal(size=n))
                      for _ in range(int(rng.integers(1, 5)))]
            b = simple_bundle(planes, z)
            x = rng.normal(size=n)
            # evaluate the last plane through the same code path so the
            # comparison is exact, not subject to reassociation
            last = simple_bundle(planes[-1:], z)
            plane = eval_model(last, x).value
            assert eval_model(b, x).value >= plane


    def test_point_scanned_only_when_the_value_is_not_finite(self):
        # non-finite points of every kind raise eval_model's error, and
        # finite points whose plane values overflow behave as when the point
        # was scanned first; points of another shape (even one the
        # arithmetic would broadcast) raise before any arithmetic
        b = simple_bundle([(vec(0.0, 0.0), 0.0, vec(1.0, 0.0)),
                           (vec(1.0, 1.0), 1e308, vec(0.0, 1e308))],
                          vec(0.0, 0.0))
        points = [vec(0.5, 0.5), vec(0.5, 3.0), vec(0.5, -3.0), vec(2.0),
                  vec(1.0, 2.0, 3.0), np.float64(1.0), np.ones((2, 2))]
        for point in list(points):
            for bad in (np.inf, -np.inf, np.nan):
                p = np.array(point, dtype=float)
                p.reshape(-1)[0] = bad
                points.append(p)
        for point in points:
            assert_as_scanning_first(eval_model, eval_model_scanning_first,
                                     b, point)
        for point in points[3:7]:
            with pytest.raises(ValueError, match="point of shape"):
                eval_model(b, point)
        for bad, invalid in itertools.product((np.inf, -np.inf, np.nan),
                                              ("ignore", "raise")):
            with pytest.raises(ValueError, match="non-finite input point"), \
                    np.errstate(invalid=invalid):
                eval_model(b, vec(bad, 0.0))


class TestMakeAggregate:
    def test_zero_step_gives_constant_plane(self):
        z = vec(0.0)
        b = simple_bundle([(z, 3.0, vec(1.0))], z)
        agg = make_aggregate(b, z, eval_model(b, z).value)
        assert agg.index == AGGREGATE_INDEX
        np.testing.assert_array_equal(agg.subgrad, [0.0])
        assert agg.value == 3.0

    def test_formula_substitution(self):
        z = vec(1.0, 0.0)
        x_next = vec(0.0, 0.0)
        b = simple_bundle([(x_next, 3.0, vec(0.0, 0.0))], z, r=2.0)
        agg = make_aggregate(b, x_next, eval_model(b, x_next).value)
        assert agg.index == AGGREGATE_INDEX
        np.testing.assert_array_equal(agg.site, x_next)
        assert agg.value == 3.0
        np.testing.assert_array_equal(agg.subgrad, [2.0, 0.0])

    def test_aggregate_plane_minorizes_next_model(self):
        # the aggregate must stay below any model that contains it
        rng = np.random.default_rng(8)
        z = vec(1.0, 0.0)
        planes = [(rng.normal(size=2), rng.normal(), rng.normal(size=2))
                  for _ in range(3)]
        b = simple_bundle(planes, z, r=2.0)
        x_next = vec(0.0, 0.0)
        value = eval_model(b, x_next).value
        agg = make_aggregate(b, x_next, value)
        nxt = successor(b, b.indices == 0, x_next, value, 0.0, vec(0.0, 0.0))
        # the aggregate anchored at z, as the successor holds it, so the
        # comparison is exact
        alone = Bundle([agg], z, 2.0)
        np.testing.assert_array_equal(alone.centre_values,
                                      nxt.centre_values[:1])
        for _ in range(100):
            x = rng.normal(size=2) * 3
            assert eval_model(nxt, x).value >= eval_model(alone, x).value


class TestKernels:
    """The centre values and plane values call NumPy's private
    ``c_einsum``, and the aggregate's slope skips the product by r = 1.0;
    all stay what the public NumPy expressions give, bit for bit."""

    def test_plane_values_are_einsum_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for m, n in ((1, 1), (2, 2), (3, 2), (7, 10), (40, 100)):
            for scale in (1e-150, 1.0, 1e150):
                values = rng.normal(size=m) * scale
                sites = rng.normal(size=(m, n))
                subgrads = rng.normal(size=(m, n)) * scale
                z, x = rng.normal(size=n), rng.normal(size=n)
                b = Bundle([BundleElement(i, *row) for i, row
                            in enumerate(zip(sites, values, subgrads))],
                           z, 1.0)
                e = values + np.einsum("ij,ij->i", subgrads, z - sites)
                assert b.centre_values.tobytes() == e.tobytes()
                want = e + np.einsum("ij,j->i", subgrads, x - z)
                assert b.plane_values(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("r", [1.0, 2.0, 0.3, 1e-300])
    def test_aggregate_slope_is_the_product(self, r):
        rng = np.random.default_rng(24)
        z = rng.normal(size=5)
        z[0] = -0.0
        b = simple_bundle([(z, 1.0, np.ones(5))], z, r=r)
        for x in (rng.normal(size=5), z.copy(), np.zeros(5)):
            want = r * (z - x)
            assert model._aggregate_slope(b, x).tobytes() == want.tobytes()
            out = np.empty(5)
            model._aggregate_slope(b, x, out=out)
            assert out.tobytes() == want.tobytes()


class TestSelectBundle:
    def _state(self, k):
        # the bundle of iteration k: aggregate, centre and planes 1..k-1
        z = vec(0.0)
        elements = [BundleElement(AGGREGATE_INDEX, vec(0.1), 0.1, vec(0.1)),
                    BundleElement(0, z, 0.0, vec(1.0))]
        elements += [BundleElement(i, vec(float(i)), float(i), vec(1.0))
                     for i in range(1, k)]
        return Bundle(elements, z, 1.0)

    @staticmethod
    def successor(bundle, keep):
        """The next bundle as the solver builds it: a fresh aggregate, the
        kept rows and the newest plane."""
        return successor(bundle, keep, vec(0.2), 0.2, 0.2, vec(1.0))

    def test_three_keeps_minimum_set(self):
        b = self._state(5)
        ev = eval_model(b, vec(0.5))
        keep = select_bundle(BundleVariant.THREE, b, ev, uniform(b))
        assert keep.dtype == bool and keep.shape == (len(b),)
        assert rows_of(b, keep) == [0]
        assert self.successor(b, keep).indices.tolist() == [-1, 0, 5]

    def test_full_keeps_everything(self):
        b = self._state(3)
        ev = eval_model(b, vec(0.5))
        keep = select_bundle(BundleVariant.FULL, b, ev, uniform(b))
        assert rows_of(b, keep) == [0, 1, 2]
        assert self.successor(b, keep).indices.tolist() == [-1, 0, 1, 2, 3]

    def test_active_keeps_the_dual_support(self):
        # the rows of positive weight and the centre, whether or not their
        # planes attain the model value: row 3 is below the max and kept,
        # row 2 attains it and is dropped with zero weight
        z = vec(0.0)
        elements = [BundleElement(AGGREGATE_INDEX, vec(0.1), -5.0, vec(0.0)),
                    BundleElement(0, z, -5.0, vec(0.0)),
                    BundleElement(2, vec(1.0), 1.0, vec(0.0)),
                    BundleElement(3, vec(2.0), 0.0, vec(0.0)),
                    BundleElement(4, vec(2.0), 0.5, vec(0.0))]
        b = Bundle(elements, z, 1.0)
        ev = eval_model(b, vec(3.0))
        assert ev.planes.tolist() == [-5.0, -5.0, 1.0, 0.0, 0.5]
        for lam, rows in (([0.0, 0.0, 0.0, 1.0, 0.0], [0, 3]),
                          ([0.0, 0.0, 0.6, 0.0, 0.4], [0, 2, 4]),
                          ([0.0, 1.0, 0.0, 0.0, 0.0], [0])):
            keep = select_bundle(BundleVariant.ACTIVE, b, ev, np.array(lam))
            assert keep.dtype == bool and keep.shape == (len(b),)
            assert rows_of(b, keep) == rows
        assert self.successor(b, keep).indices.tolist() == [-1, 0, 5]

    def test_active_drops_the_old_aggregate(self):
        # the old aggregate can carry weight; the new aggregate replaces it
        z = vec(0.0)
        elements = [BundleElement(AGGREGATE_INDEX, vec(0.1), 1.0, vec(0.0)),
                    BundleElement(0, z, -5.0, vec(0.0)),
                    BundleElement(1, vec(1.0), 1.0, vec(0.0))]
        b = Bundle(elements, z, 1.0)
        ev = eval_model(b, vec(3.0))
        for lam in ([1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.2, 0.3, 0.5]):
            keep = select_bundle(BundleVariant.ACTIVE, b, ev, np.array(lam))
            assert AGGREGATE_INDEX not in rows_of(b, keep)
            assert rows_of(b, keep) == [0] + ([1] if lam[2] else [])

    def test_active_reads_no_plane_values(self):
        # plane values moved by an ulp either way, which make and break
        # exact ties with the model value, leave the mask as it is
        z = vec(0.0)
        b = Bundle([BundleElement(AGGREGATE_INDEX, vec(0.1), 1.0, vec(0.0)),
                    BundleElement(0, z, 1.0, vec(0.0)),
                    BundleElement(1, vec(1.0), 1.0, vec(0.0)),
                    BundleElement(2, vec(2.0), 1.0, vec(0.0))], z, 1.0)
        ev = eval_model(b, vec(3.0))
        lam = np.array([0.25, 0.0, 0.75, 0.0])
        want = select_bundle(BundleVariant.ACTIVE, b, ev, lam)
        assert rows_of(b, want) == [0, 1]
        for step in (np.inf, -np.inf):
            for row in range(len(b)):
                planes = ev.planes.copy()
                planes[row] = np.nextafter(planes[row], step)
                moved = ModelEvaluation(float(planes.max()), planes)
                keep = select_bundle(BundleVariant.ACTIVE, b, moved, lam)
                assert keep.tobytes() == want.tobytes()

    def test_active_needs_one_weight_per_row(self):
        b = self._state(3)
        ev = eval_model(b, vec(0.5))
        for lam in (np.ones(len(b) - 1), np.ones(len(b) + 1),
                    np.ones((len(b), 1)), 1.0):
            with pytest.raises(ValueError, match="one dual weight per"):
                select_bundle(BundleVariant.ACTIVE, b, ev, lam)

    def test_almost_active_adds_near_ties(self):
        z = vec(0.0)
        elements = [BundleElement(AGGREGATE_INDEX, vec(0.1), -5.0, vec(0.0)),
                    BundleElement(0, z, -5.0, vec(0.0)),
                    BundleElement(1, vec(1.0), 1.0, vec(0.0)),
                    BundleElement(2, vec(2.0), 1.0 - 1e-7, vec(0.0)),
                    BundleElement(3, vec(3.0), 0.0, vec(0.0))]
        b = Bundle(elements, z, 1.0)
        ev = eval_model(b, vec(4.0))
        keep = select_bundle(BundleVariant.ALMOST_ACTIVE, b, ev, uniform(b))
        assert rows_of(b, keep) == [0, 1, 2]
        assert self.successor(b, keep).indices.tolist() == [-1, 0, 1, 2, 4]

    @pytest.mark.parametrize("top", [0.0, 1.0, -3.7, 1e3, 1e-9, -1e6])
    def test_exact_ties_and_the_slack_boundary(self, top):
        # constant planes take their values exactly: a tie with the top, one
        # ulp below it, exactly value - NEAR_ACTIVE_SLACK and one ulp below
        # that, beside the aggregate and the prox-centre rows.  ACTIVE
        # follows the weights (on the aggregate and the row one ulp below
        # the top), not the tie
        edge = top - NEAR_ACTIVE_SLACK
        values = [top, -1e9, top, np.nextafter(top, -np.inf), edge,
                  np.nextafter(edge, -np.inf)]
        z = vec(0.0)
        b = Bundle([BundleElement(i - 1, vec(float(i)), float(v), vec(0.0))
                    for i, v in enumerate(values)], z, 1.0)
        x = vec(0.25)
        lam = np.array([0.25, 0.0, 0.0, 0.75, 0.0, 0.0])
        ev = eval_model(b, x)
        assert ev.value == top and ev.planes.tolist() == values
        expected = {BundleVariant.THREE: [0],
                    BundleVariant.FULL: [0, 1, 2, 3, 4],
                    BundleVariant.ACTIVE: [0, 2],
                    BundleVariant.ALMOST_ACTIVE: [0, 1, 2, 3]}
        for variant, rows in expected.items():
            keep = select_bundle(variant, b, ev, lam)
            assert rows_of(b, keep) == rows
            assert keep.tobytes() == reference_mask(variant, b, x,
                                                    lam).tobytes()

    @given(st.sampled_from(list(BundleVariant)), st.integers(1, 4),
           st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_masks_match_the_reference(self, variant, n, m, seed):
        # random bundles with repeated rows (exact ties at every point) and
        # rows lowered by 0.5 to 20 slacks, near and beyond the slack, with
        # random weights that vanish on about a third of the rows
        rng = np.random.default_rng(seed)
        z = rng.normal(size=n)
        x = rng.normal(size=n)
        rows = [(rng.normal(size=n), float(rng.normal()), rng.normal(size=n))]
        for _ in range(m - 1):
            site, value, g = rows[int(rng.integers(len(rows)))]
            shift = float(rng.choice([0.0, 0.5, 1.0, 1.5, 20.0]))
            if rng.random() < 0.3:
                site, value, g = (rng.normal(size=n), float(rng.normal()),
                                  rng.normal(size=n))
            rows.append((site, value - shift * NEAR_ACTIVE_SLACK, g))
        b = Bundle([BundleElement(i - 1, s, v, g)
                    for i, (s, v, g) in enumerate(rows)], z, 1.0)
        lam = rng.dirichlet(np.ones(m))
        lam[rng.random(m) < 0.3] = 0.0
        keep = select_bundle(variant, b, eval_model(b, x), lam)
        assert keep.tobytes() == reference_mask(variant, b, x, lam).tobytes()

    def test_unknown_variant_rejected(self):
        b = self._state(2)
        with pytest.raises(ValueError):
            select_bundle("full", b, eval_model(b, vec(0.5)), uniform(b))

    @given(st.sampled_from(list(BundleVariant)), st.integers(1, 6))
    def test_mandatory_indices_always_kept(self, variant, k):
        b = self._state(k)
        ev = eval_model(b, vec(0.5))
        keep = select_bundle(variant, b, ev, uniform(b))
        assert CENTRE_INDEX in rows_of(b, keep)
        assert AGGREGATE_INDEX not in rows_of(b, keep)
        got = set(self.successor(b, keep).indices.tolist())
        assert {-1, 0, k} <= got
        assert got <= set(range(-1, k + 1))
