import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vmbpbb import TimeSeries, periodic_mean
from vmbpbb.errors import InvalidPeriodError


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
        np.testing.assert_array_equal(pm.means, [3.5, 3.5])

    def test_small_example(self):
        pm = periodic_mean(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(pm.means, [2.0, 3.0])
        np.testing.assert_array_equal(pm.counts, [2, 2])

    def test_sine_recovers_one_cycle(self):
        t = np.arange(1000)
        values = np.sin(2 * np.pi * t / 10)
        pm = periodic_mean(TimeSeries(values), 10)
        np.testing.assert_allclose(pm.means, values[:10], atol=1e-12)

    def test_uneven_counts(self):
        pm = periodic_mean(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        np.testing.assert_array_equal(pm.counts, [3, 2])
        np.testing.assert_allclose(pm.means, [3.0, 3.0])

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
        separate = a * periodic_mean(s1, p).means + b * periodic_mean(s2, p).means
        np.testing.assert_allclose(combined.means, separate, atol=1e-12 * (1 + np.abs(separate).max()))

    @given(st.integers(1, 10), st.integers(10, 40))
    def test_counts_sum_to_n(self, p, n):
        pm = periodic_mean(TimeSeries(np.arange(n, dtype=float)), p)
        assert pm.counts.sum() == n
