import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmbpbb import TimeSeries, periodic_mean
from vmbpbb.errors import InvalidPeriodError


def bincount_means(values, p):
    """Reference oracle: each phase's np.bincount weight sum over its member count."""
    phases = np.arange(values.size) % p
    return np.bincount(phases, weights=values, minlength=p) / np.bincount(phases, minlength=p)


class TestTimeSeries:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            TimeSeries([])
        with pytest.raises(ValueError):
            TimeSeries([1.0, np.nan])
        with pytest.raises(ValueError):
            TimeSeries([np.inf])

    def test_values_are_immutable(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestPeriodicMean:
    def test_constant_series(self):
        pm = periodic_mean(TimeSeries([3.5] * 4), 2)
        np.testing.assert_array_equal(pm, [3.5, 3.5])

    def test_small_example(self):
        pm = periodic_mean(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(pm, [2.0, 3.0])
        assert not pm.flags.writeable

    def test_sine_recovers_one_cycle(self):
        t = np.arange(1000)
        values = np.sin(2 * np.pi * t / 10)
        pm = periodic_mean(TimeSeries(values), 10)
        np.testing.assert_allclose(pm, values[:10], atol=1e-12)

    def test_uneven_counts(self):
        pm = periodic_mean(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        np.testing.assert_allclose(pm, [3.0, 3.0])
        # phases of 3, 2 and 2 samples
        pm = periodic_mean(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), 3)
        np.testing.assert_array_equal(pm, [4.0, 3.5, 4.5])

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 400),
        period=st.data(),
        data_seed=st.integers(0, 2**32 - 1),
        negative_zero=st.booleans(),
    )
    # p divides n; p does not divide n; p = 1; p = n; every sample -0.0.
    @example(n=336, period=168, data_seed=1, negative_zero=False)
    @example(n=400, period=168, data_seed=2, negative_zero=False)
    @example(n=300, period=1, data_seed=3, negative_zero=False)
    @example(n=97, period=97, data_seed=4, negative_zero=False)
    @example(n=61, period=7, data_seed=5, negative_zero=True)
    def test_equals_bincount_bit_for_bit(self, n, period, data_seed, negative_zero):
        p = period if isinstance(period, int) else period.draw(st.integers(1, n), label="p")
        if negative_zero:
            values = np.full(n, -0.0)
        else:
            # Both signs, magnitudes from 1e-8 to 1e16, where the summing order shows.
            rng = np.random.default_rng(data_seed)
            values = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-8, 16, n)
        got = periodic_mean(TimeSeries(values), p)
        want = bincount_means(values, p)
        assert got.shape == want.shape == (p,)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("p", [0, -1, 5])
    def test_invalid_periods(self, p):
        with pytest.raises(InvalidPeriodError):
            periodic_mean(TimeSeries([1.0, 2.0, 3.0, 4.0]), p)

    @given(
        st.integers(1, 6),
        st.lists(st.floats(-100, 100), min_size=6, max_size=24),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    def test_linearity(self, p, values, a, b):
        other = list(reversed(values))
        s1 = TimeSeries(values)
        s2 = TimeSeries(other)
        combined = periodic_mean(TimeSeries(a * s1.values + b * s2.values), p)
        separate = a * periodic_mean(s1, p) + b * periodic_mean(s2, p)
        np.testing.assert_allclose(combined, separate, atol=1e-12 * (1 + np.abs(separate).max()))

    @given(st.integers(1, 10), st.integers(10, 40))
    def test_counts_sum_to_n(self, p, n):
        # Every sample enters exactly one phase mean: weighted by the phase
        # sizes, the means give back the series total.
        values = np.arange(n, dtype=float)
        pm = periodic_mean(TimeSeries(values), p)
        sizes = [values[s::p].size for s in range(p)]
        assert sum(sizes) == n
        assert float(np.dot(sizes, pm)) == pytest.approx(values.sum())
