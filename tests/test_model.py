"""Tests for bundle structures, tilt correction, and selection policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from proxbundle.model import (AGGREGATE_INDEX, CENTRE_INDEX, Bundle,
                              BundleElement, BundleVariant, eval_model,
                              make_aggregate, select_bundle, tilt_correct)


def vec(*vals):
    return np.array(vals, dtype=float)


def simple_bundle(planes, z, r=1.0, start_index=0):
    elements = [BundleElement(start_index + i, np.asarray(s, float),
                              float(v), np.asarray(g, float))
                for i, (s, v, g) in enumerate(planes)]
    return Bundle(elements, np.asarray(z, float), r)


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
        with pytest.raises(ValueError):
            tilt_correct(vec(np.inf), 0.0, vec(1.0), 0.0, vec(1.0))

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


class TestBundle:
    def test_duplicate_indices_rejected(self):
        e = BundleElement(0, vec(0.0), 0.0, vec(1.0))
        with pytest.raises(ValueError):
            Bundle([e, e], vec(0.0), 1.0)
        # a fresh row may not repeat an index the parent carries forward
        parent = Bundle([e], vec(0.0), 1.0)
        with pytest.raises(ValueError):
            Bundle([e], vec(0.0), 1.0, parent=parent)
        Bundle([e], vec(0.0), 1.0, parent=parent, keep=np.array([False]))

    def test_nonpositive_prox_param_rejected(self):
        e = BundleElement(0, vec(0.0), 0.0, vec(1.0))
        with pytest.raises(ValueError):
            Bundle([e], vec(0.0), 0.0)

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            Bundle([], vec(0.0), 1.0)

    def test_elements_sorted_by_index(self):
        b = simple_bundle([(vec(1.0), 1.0, vec(1.0))], vec(0.0))
        agg = BundleElement(AGGREGATE_INDEX, vec(0.5), 0.5, vec(0.5))
        b2 = Bundle([agg], vec(0.0), 1.0, parent=b)
        assert b2.indices.tolist() == [-1, 0]
        np.testing.assert_array_equal(b2.values, [0.5, 1.0])
        np.testing.assert_array_equal(b2.sites, [[0.5], [1.0]])
        np.testing.assert_array_equal(b2.subgrads, [[0.5], [1.0]])
        # fresh elements given out of order are sorted too
        shuffled = [BundleElement(i, vec(float(i)), float(i), vec(-i))
                    for i in (3, 1, 2)]
        b3 = Bundle(shuffled, vec(0.0), 1.0)
        assert b3.indices.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(b3.values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(b3.subgrads, [[-1.0], [-2.0], [-3.0]])

    def test_membership_and_lookup(self):
        b = simple_bundle([(vec(0.0), 0.0, vec(1.0)),
                           (vec(1.0), 1.0, vec(2.0))], vec(0.0))
        assert 0 in b.indices and 1 in b.indices and 2 not in b.indices
        assert b.indices.dtype.kind == "i"
        assert len(b) == 2
        np.testing.assert_array_equal(b.values[b.indices == 1], [1.0])
        np.testing.assert_array_equal(b.subgrads[b.indices == 1], [[2.0]])
        assert b.values[b.indices == 5].size == 0

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
        fresh = [element(AGGREGATE_INDEX), element(7)]
        carried = Bundle(fresh, z, 2.0, parent=parent, keep=keep)
        stacked = Bundle(fresh + [old[i] for i in (1, 3, 5)], z, 2.0)
        assert carried.indices.tolist() == [-1, 0, 3, 6, 7]
        for name in ("indices", "sites", "values", "subgrads"):
            np.testing.assert_array_equal(getattr(carried, name),
                                          getattr(stacked, name))
        # without a mask every parent row is carried forward
        everything = Bundle([element(9)], z, 2.0, parent=parent)
        assert everything.indices.tolist() == [-1, 0, 1, 3, 4, 6, 9]
        np.testing.assert_array_equal(everything.subgrads[:-1],
                                      parent.subgrads)

    def test_integer_rows_stored_as_float(self):
        # fresh rows are concatenated with the parent's float rows and must
        # not be truncated on the way
        ints = BundleElement(0, np.array([1, 2]), 3, np.array([4, 5]))
        parent = Bundle([ints], vec(0.0, 0.0), 1.0)
        assert parent.sites.dtype == parent.subgrads.dtype == float
        assert parent.values.dtype == float
        fresh = BundleElement(1, vec(0.5, 0.25), 0.5, vec(-0.5, 1.5))
        b = Bundle([fresh], vec(0.0, 0.0), 1.0, parent=parent)
        np.testing.assert_array_equal(b.sites, [[1.0, 2.0], [0.5, 0.25]])
        np.testing.assert_array_equal(b.values, [3.0, 0.5])
        np.testing.assert_array_equal(b.subgrads, [[4.0, 5.0], [-0.5, 1.5]])

    def test_successor_rejects_mismatched_dimension(self):
        parent = simple_bundle([(vec(0.0, 0.0), 0.0, vec(1.0, 1.0))],
                               vec(0.0, 0.0))
        short = BundleElement(1, vec(1.0), 0.0, vec(1.0))
        with pytest.raises(ValueError):
            Bundle([short], vec(0.0, 0.0), 1.0, parent=parent)
        with pytest.raises(ValueError):
            Bundle([BundleElement(0, vec(0.0, 0.0), 0.0, vec(1.0, 1.0)),
                    short], vec(0.0, 0.0), 1.0)

    def test_successor_rejects_mask_of_wrong_length(self):
        parent = simple_bundle([(vec(0.0), 0.0, vec(1.0)),
                                (vec(1.0), 1.0, vec(2.0))], vec(0.0))
        fresh = [BundleElement(AGGREGATE_INDEX, vec(0.5), 0.5, vec(0.5))]
        for keep in ([True], [True, False, True]):
            with pytest.raises(ValueError):
                Bundle(fresh, vec(0.0), 1.0, parent=parent,
                       keep=np.array(keep))


class TestEvalModel:
    def test_single_plane_at_own_site(self):
        z = vec(2.0)
        b = simple_bundle([(z, 7.0, vec(1.0))], z)
        ev = eval_model(b, z)
        assert ev.value == 7.0
        assert rows_of(b, ev.argmax_rows) == [0]

    def test_tie_reports_both_indices(self):
        # planes (site 0, val 0, g -1) and (site 2, val 0, g 1) meet at x=1
        b = simple_bundle([(vec(0.0), 0.0, vec(-1.0)),
                           (vec(2.0), 0.0, vec(1.0))], vec(0.0))
        ev = eval_model(b, vec(1.0))
        assert ev.value == -1.0
        assert rows_of(b, ev.argmax_rows) == [0, 1]

    def test_near_active_includes_argmax(self):
        b = simple_bundle([(vec(0.0), 0.0, vec(0.0)),
                           (vec(0.0), -1e-7, vec(0.0)),
                           (vec(0.0), -1.0, vec(0.0))], vec(0.0))
        ev = eval_model(b, vec(0.5))
        assert ev.argmax_rows.dtype == ev.near_active_rows.dtype == bool
        assert rows_of(b, ev.argmax_rows) == [0]
        assert rows_of(b, ev.near_active_rows) == [0, 1]

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
        agg = make_aggregate(b, x_next, eval_model(b, x_next).value)
        nxt = Bundle([agg], z, 2.0, parent=b, keep=b.indices == 0)
        for _ in range(100):
            x = rng.normal(size=2) * 3
            plane = agg.value + agg.subgrad @ (x - agg.site)
            assert eval_model(nxt, x).value >= plane


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
    def successor(bundle, keep, k):
        """The next bundle as the solver builds it: a fresh aggregate, the
        kept rows and the newest plane k."""
        fresh = [BundleElement(AGGREGATE_INDEX, vec(0.2), 0.2, vec(0.2)),
                 BundleElement(k, vec(float(k)), float(k), vec(1.0))]
        return Bundle(fresh, bundle.prox_centre, bundle.prox_param,
                      parent=bundle, keep=keep)

    def test_three_keeps_minimum_set(self):
        b = self._state(5)
        ev = eval_model(b, vec(0.5))
        keep = select_bundle(BundleVariant.THREE, b, ev)
        assert keep.dtype == bool and keep.shape == (len(b),)
        assert rows_of(b, keep) == [0]
        assert self.successor(b, keep, 5).indices.tolist() == [-1, 0, 5]

    def test_full_keeps_everything(self):
        b = self._state(3)
        ev = eval_model(b, vec(0.5))
        keep = select_bundle(BundleVariant.FULL, b, ev)
        assert rows_of(b, keep) == [0, 1, 2]
        assert self.successor(b, keep, 3).indices.tolist() == [-1, 0, 1, 2, 3]

    def test_active_adds_argmax(self):
        z = vec(0.0)
        elements = [BundleElement(AGGREGATE_INDEX, vec(0.1), -5.0, vec(0.0)),
                    BundleElement(0, z, -5.0, vec(0.0)),
                    BundleElement(2, vec(1.0), 1.0, vec(0.0)),
                    BundleElement(3, vec(2.0), 0.0, vec(0.0))]
        b = Bundle(elements, z, 1.0)
        ev = eval_model(b, vec(3.0))
        assert rows_of(b, ev.argmax_rows) == [2]
        keep = select_bundle(BundleVariant.ACTIVE, b, ev)
        assert rows_of(b, keep) == [0, 2]
        assert self.successor(b, keep, 4).indices.tolist() == [-1, 0, 2, 4]

    def test_active_drops_the_old_aggregate(self):
        # the old aggregate can be the argmax; the new aggregate replaces it
        z = vec(0.0)
        elements = [BundleElement(AGGREGATE_INDEX, vec(0.1), 1.0, vec(0.0)),
                    BundleElement(0, z, -5.0, vec(0.0)),
                    BundleElement(1, vec(1.0), 1.0, vec(0.0))]
        b = Bundle(elements, z, 1.0)
        ev = eval_model(b, vec(3.0))
        assert rows_of(b, ev.argmax_rows) == [-1, 1]
        keep = select_bundle(BundleVariant.ACTIVE, b, ev)
        assert rows_of(b, keep) == [0, 1]

    def test_almost_active_adds_near_ties(self):
        z = vec(0.0)
        elements = [BundleElement(AGGREGATE_INDEX, vec(0.1), -5.0, vec(0.0)),
                    BundleElement(0, z, -5.0, vec(0.0)),
                    BundleElement(1, vec(1.0), 1.0, vec(0.0)),
                    BundleElement(2, vec(2.0), 1.0 - 1e-7, vec(0.0)),
                    BundleElement(3, vec(3.0), 0.0, vec(0.0))]
        b = Bundle(elements, z, 1.0)
        ev = eval_model(b, vec(4.0))
        keep = select_bundle(BundleVariant.ALMOST_ACTIVE, b, ev)
        assert rows_of(b, keep) == [0, 1, 2]
        assert self.successor(b, keep, 4).indices.tolist() == [-1, 0, 1, 2, 4]

    def test_unknown_variant_rejected(self):
        b = self._state(2)
        with pytest.raises(ValueError):
            select_bundle("full", b, eval_model(b, vec(0.5)))

    @given(st.sampled_from(list(BundleVariant)), st.integers(1, 6))
    def test_mandatory_indices_always_kept(self, variant, k):
        b = self._state(k)
        ev = eval_model(b, vec(0.5))
        keep = select_bundle(variant, b, ev)
        assert CENTRE_INDEX in rows_of(b, keep)
        assert AGGREGATE_INDEX not in rows_of(b, keep)
        got = set(self.successor(b, keep, k).indices.tolist())
        assert {-1, 0, k} <= got
        assert got <= set(range(-1, k + 1))
