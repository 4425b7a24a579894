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
