import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmbpbb import (
    SeedSpec,
    TimeSeries,
    bootstrap_periodic_means,
    ci_band,
    pbb_resample,
    phase_partition,
)
from vmbpbb.bootstrap import bootstrap_phase_means
from vmbpbb.errors import InsufficientResamplesError, InvalidPeriodError


def quantile_oracle(values, q):
    """Linear interpolation between order statistics at rank (B-1)q + 1."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    frac = h - lo
    if frac == 0:
        return ordered[lo]
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


class TestSeedSpec:
    def test_same_labels_same_stream(self):
        a = SeedSpec(42).child(3, 7).generator().random(5)
        b = SeedSpec(42).child(3, 7).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_differ(self):
        a = SeedSpec(42).child(1).generator().random(5)
        b = SeedSpec(42).child(2).generator().random(5)
        assert not np.array_equal(a, b)

    def test_child_appends(self):
        assert SeedSpec(9, (1,)).child(2, 3).labels == (1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(1, (-2,))


class TestPhasePartition:
    def test_even_split(self):
        part = phase_partition(6, 2)
        np.testing.assert_array_equal(part.subsets[0], [0, 2, 4])
        np.testing.assert_array_equal(part.subsets[1], [1, 3, 5])

    def test_uneven_split(self):
        part = phase_partition(5, 2)
        np.testing.assert_array_equal(part.subsets[0], [0, 2, 4])
        np.testing.assert_array_equal(part.subsets[1], [1, 3])

    def test_singletons(self):
        part = phase_partition(4, 4)
        assert [list(s) for s in part.subsets] == [[0], [1], [2], [3]]

    def test_exclusive_exhaustive(self):
        part = phase_partition(17, 5)
        joined = np.sort(np.concatenate(part.subsets))
        np.testing.assert_array_equal(joined, np.arange(17))

    def test_period_too_large(self):
        with pytest.raises(InvalidPeriodError):
            phase_partition(4, 5)


class TestPbbResample:
    def test_constant_series(self):
        series = TimeSeries([2.0] * 9)
        out = pbb_resample(series, 3, SeedSpec(1).generator())
        np.testing.assert_array_equal(out.values, series.values)

    def test_singleton_phases_identity(self):
        series = TimeSeries([5.0, 6.0, 7.0])
        out = pbb_resample(series, 3, SeedSpec(1).generator())
        np.testing.assert_array_equal(out.values, series.values)

    def test_support_preserved(self):
        series = TimeSeries([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        rng = SeedSpec(8).generator()
        even, odd = {10.0, 30.0, 50.0}, {20.0, 40.0, 60.0}
        for _ in range(10_000):
            out = pbb_resample(series, 2, rng).values
            assert set(out[0::2]) <= even and set(out[1::2]) <= odd

    def test_slot_frequencies_uniform(self):
        series = TimeSeries([10.0, 20.0, 30.0, 40.0])
        rng = SeedSpec(3).generator()
        draws = np.array([pbb_resample(series, 2, rng).values for _ in range(20_000)])
        # every slot draws its two phase values with frequency -> 1/2
        for slot, pair in [(0, (10, 30)), (1, (20, 40)), (2, (10, 30)), (3, (20, 40))]:
            frac = np.mean(draws[:, slot] == pair[0])
            assert frac == pytest.approx(0.5, abs=0.02)


class TestBootstrapPeriodicMeans:
    def test_constant(self):
        run = bootstrap_periodic_means(TimeSeries([4.0] * 8), 2, 16, SeedSpec(0))
        np.testing.assert_array_equal(run.estimates, np.full((16, 2), 4.0))

    def test_singleton_phases(self):
        series = TimeSeries([1.0, 2.0, 3.0])
        run = bootstrap_periodic_means(series, 3, 10, SeedSpec(0))
        np.testing.assert_array_equal(run.estimates, np.tile(series.values, (10, 1)))

    def test_matches_exhaustive_enumeration(self):
        # phase 0 of [1,2,3,4] at p=2 draws pairs from {1,3}: means 1,2,2,3.
        run = bootstrap_periodic_means(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2, 20_000, SeedSpec(99))
        values, counts = np.unique(run.estimates[:, 0], return_counts=True)
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])
        freq = counts / counts.sum()
        np.testing.assert_allclose(freq, [0.25, 0.5, 0.25], atol=0.02)

    def test_mean_matches_sample_phase_mean(self):
        rng = np.random.default_rng(14)
        series = TimeSeries(rng.normal(size=12))
        run = bootstrap_periodic_means(series, 3, 100_000, SeedSpec(5))
        sample_means = np.array([series.values[s::3].mean() for s in range(3)])
        boot_mean = run.estimates.mean(axis=0)
        stderr = run.estimates.std(axis=0, ddof=1) / np.sqrt(run.resamples)
        assert np.all(np.abs(boot_mean - sample_means) <= 3 * stderr)

    def test_deterministic(self):
        series = TimeSeries(np.arange(10.0))
        a = bootstrap_periodic_means(series, 4, 25, SeedSpec(77, (1, 2)))
        b = bootstrap_periodic_means(series, 4, 25, SeedSpec(77, (1, 2)))
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_rows_equal_op_composition_exactly(self):
        # dual route: the inlined loop must reproduce the composed ops bit for bit
        rng = np.random.default_rng(20)
        series = TimeSeries(rng.normal(size=23))
        seed = SeedSpec(55, (4,))
        run = bootstrap_periodic_means(series, 5, 30, seed)
        from vmbpbb import periodic_mean

        for b in range(30):
            row = periodic_mean(pbb_resample(series, 5, seed.child(b).generator()), 5).means
            np.testing.assert_array_equal(run.estimates[b], row)

    def test_resample_rows_independent_of_batch(self):
        # row b only depends on seed.child(b), not on how many rows run
        series = TimeSeries(np.arange(10.0))
        small = bootstrap_periodic_means(series, 2, 3, SeedSpec(6))
        large = bootstrap_periodic_means(series, 2, 8, SeedSpec(6))
        np.testing.assert_array_equal(small.estimates, large.estimates[:3])

    @pytest.mark.parametrize("n,p", [(60, 6), (61, 6), (7, 7)])
    def test_stack_rows_equal_single_series_runs(self, n, p):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, n))
        seed = SeedSpec(8, (2,))
        rows = bootstrap_phase_means(stack, p, 12, seed)
        assert rows.shape == (3, 12, p)
        for values, est in zip(stack, rows):
            single = bootstrap_periodic_means(TimeSeries(values), p, 12, seed)
            np.testing.assert_array_equal(est, single.estimates)

    def test_needs_one_resample(self):
        with pytest.raises(InsufficientResamplesError):
            bootstrap_periodic_means(TimeSeries([1.0, 2.0]), 2, 0, SeedSpec(0))


class TestCiBand:
    def test_degenerate_rows(self):
        band = ci_band(np.full((7, 4), 2.5))
        np.testing.assert_array_equal(band.lower, [2.5] * 4)
        np.testing.assert_array_equal(band.upper, [2.5] * 4)
        np.testing.assert_array_equal(band.point, [2.5] * 4)

    def test_interpolated_quantiles_midband(self):
        band = ci_band(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]), alpha=0.5)
        assert band.lower[0] == quantile_oracle([1, 2, 3, 4, 5], 0.25) == 2.0
        assert band.upper[0] == quantile_oracle([1, 2, 3, 4, 5], 0.75) == 4.0

    def test_interpolated_quantiles_two_values(self):
        band = ci_band(np.array([[0.0], [10.0]]), alpha=0.05)
        assert band.lower[0] == pytest.approx(quantile_oracle([0, 10], 0.025)) == pytest.approx(0.25)
        assert band.upper[0] == pytest.approx(quantile_oracle([0, 10], 0.975)) == pytest.approx(9.75)

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(40, 6))
        band = ci_band(data, alpha=0.1)
        for col in range(6):
            assert band.lower[col] == pytest.approx(quantile_oracle(data[:, col], 0.05), rel=1e-12)
            assert band.upper[col] == pytest.approx(quantile_oracle(data[:, col], 0.95), rel=1e-12)

    @given(st.floats(0.01, 0.4), st.floats(0.45, 0.95), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_monotone_in_alpha(self, alpha_small, alpha_large, seed):
        data = np.random.default_rng(seed).normal(size=(25, 4))
        tight = ci_band(data, alpha=alpha_large)
        wide = ci_band(data, alpha=alpha_small)
        assert np.all(wide.width >= tight.width - 1e-12)

    @given(st.floats(0.1, 50), st.floats(-100, 100), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_affine_equivariance(self, a, b, seed):
        data = np.random.default_rng(seed).normal(size=(20, 3))
        base = ci_band(data)
        mapped = ci_band(a * data + b)
        scale = max(1.0, abs(a) * np.abs(data).max() + abs(b))
        np.testing.assert_allclose(mapped.lower, a * base.lower + b, atol=1e-12 * scale)
        np.testing.assert_allclose(mapped.upper, a * base.upper + b, atol=1e-12 * scale)
        np.testing.assert_allclose(mapped.point, a * base.point + b, atol=1e-12 * scale)

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientResamplesError):
            ci_band(np.ones((1, 4)))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ci_band(np.ones((3, 2)), alpha=0.0)
        with pytest.raises(ValueError):
            ci_band(np.ones((3, 2)), alpha=1.0)
