import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmbpbb import ComplexSeries, PipelineConfig, SeedSpec, TimeSeries, run_pipeline
from vmbpbb.errors import InvalidPeriodError
from vmbpbb.series import _phase_layout, _phase_means

from oracles import bincount_means


def phase_means(values, p):
    """The phase-mean kernel on one series; like every caller, it holds 2 <= p and 2p <= n."""
    values = np.asarray(values, dtype=float)
    return _phase_means(values, _phase_layout(values.size, p)[1], np.empty(p))


class TestTimeSeries:
    # Both sample types share one constructor; each names itself in its messages.
    @pytest.mark.parametrize("kind,noun", [(TimeSeries, "time series"), (ComplexSeries, "complex series")],
                             ids=["TimeSeries", "ComplexSeries"])
    def test_rejects_empty_and_nonfinite(self, kind, noun):
        with pytest.raises(ValueError, match=f"^a {noun} needs at least one sample$"):
            kind([])
        with pytest.raises(ValueError, match=f"^{noun} samples must be finite$"):
            kind([1.0, np.nan])
        with pytest.raises(ValueError, match=f"^{noun} samples must be finite$"):
            kind([np.inf])

    @pytest.mark.parametrize("start_index", [2.5, -0.5, np.float64(1.75), np.inf, -np.inf, np.nan])
    def test_rejects_non_integral_start_index(self, start_index):
        # int() would quietly place TimeSeries([1.0, 2.0], start_index=2.5) at 2,
        # and raise OverflowError on inf and a bare ValueError on NaN.
        with pytest.raises(ValueError, match="start_index must be an integer, got"):
            TimeSeries([1.0, 2.0], start_index=start_index)

    def test_integral_start_index_is_stored_as_int(self):
        assert TimeSeries([1.0], start_index=3.0).start_index == 3
        assert type(TimeSeries([1.0], start_index=np.int64(3)).start_index) is int

    def test_values_are_immutable(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestPeriodicMean:
    """The periodic mean as series._phase_means computes it."""

    def test_constant_series(self):
        pm = phase_means([3.5] * 4, 2)
        np.testing.assert_array_equal(pm, [3.5, 3.5])

    def test_small_example(self):
        pm = phase_means([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_array_equal(pm, [2.0, 3.0])

    def test_sine_recovers_one_cycle(self):
        t = np.arange(1000)
        values = np.sin(2 * np.pi * t / 10)
        pm = phase_means(values, 10)
        np.testing.assert_allclose(pm, values[:10], atol=1e-12)

    def test_uneven_counts(self):
        pm = phase_means([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        np.testing.assert_allclose(pm, [3.0, 3.0])
        # phases of 3, 2 and 2 samples
        pm = phase_means([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 3)
        np.testing.assert_array_equal(pm, [4.0, 3.5, 4.5])

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(4, 400),
        period=st.data(),
        data_seed=st.integers(0, 2**32 - 1),
        negative_zero=st.booleans(),
    )
    # p divides n (n = 2p); p does not divide n; n = 2p + 1; every sample -0.0.
    @example(n=336, period=168, data_seed=1, negative_zero=False)
    @example(n=400, period=168, data_seed=2, negative_zero=False)
    @example(n=97, period=48, data_seed=4, negative_zero=False)
    @example(n=61, period=7, data_seed=5, negative_zero=True)
    def test_equals_bincount_bit_for_bit(self, n, period, data_seed, negative_zero):
        p = period if isinstance(period, int) else period.draw(st.integers(2, n // 2), label="p")
        if negative_zero:
            values = np.full(n, -0.0)
        else:
            # Both signs, magnitudes from 1e-8 to 1e16, where the summing order shows.
            rng = np.random.default_rng(data_seed)
            values = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-8, 16, n)
        got = phase_means(values, p)
        want = bincount_means(values, p)
        assert got.shape == want.shape == (p,)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("p", [0, -1, 5])
    def test_invalid_periods(self, p):
        # Rejected where a run enters, before any phase mean: p < 2 by
        # PipelineConfig, 2p > n by run_pipeline (pipeline.mode_filters).
        with pytest.raises(InvalidPeriodError):
            run_pipeline(TimeSeries([1.0, 2.0, 3.0, 4.0]), PipelineConfig((p,), 2, SeedSpec(0)))

    @given(
        st.integers(2, 6),
        st.lists(st.floats(-100, 100), min_size=12, max_size=24),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    def test_linearity(self, p, values, a, b):
        s1 = np.array(values)
        s2 = s1[::-1]
        combined = phase_means(a * s1 + b * s2, p)
        separate = a * phase_means(s1, p) + b * phase_means(s2, p)
        np.testing.assert_allclose(combined, separate, atol=1e-12 * (1 + np.abs(separate).max()))

    @given(st.integers(2, 10), st.integers(20, 40))
    def test_counts_sum_to_n(self, p, n):
        # Every sample enters exactly one phase mean: weighted by the phase
        # sizes, the means give back the series total.
        values = np.arange(n, dtype=float)
        pm = phase_means(values, p)
        sizes = [values[s::p].size for s in range(p)]
        assert sum(sizes) == n
        assert float(np.dot(sizes, pm)) == pytest.approx(values.sum())


class TestInterleavedPhaseMeans:
    """k series interleaved as one series of length n*k at period p*k, as bootstrap_phase_means sums them.

    Slot t of series i sits at t*k + i, whose phase at period p*k is
    (t mod p)*k + i, and that phase counts as many members as phase t mod p.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 3),
        rows=st.integers(1, 3),
        n=st.integers(4, 300),
        period=st.data(),
        data_seed=st.integers(0, 2**32 - 1),
        negative_zero=st.booleans(),
    )
    # n = 2p; p divides n; p does not divide n, one phase of three; rows of -0.0 among others.
    @example(k=2, rows=2, n=100, period=50, data_seed=1, negative_zero=False)
    @example(k=3, rows=1, n=300, period=50, data_seed=2, negative_zero=False)
    @example(k=2, rows=3, n=101, period=50, data_seed=3, negative_zero=False)
    @example(k=3, rows=2, n=97, period=7, data_seed=4, negative_zero=True)
    def test_equals_each_rows_own_phase_means_bit_for_bit(self, k, rows, n, period, data_seed,
                                                           negative_zero):
        p = period if isinstance(period, int) else period.draw(st.integers(2, n // 2), label="p")
        rng = np.random.default_rng(data_seed)
        # Both signs, magnitudes from 1e-8 to 1e16, where the summing order shows.
        values = rng.choice([-1.0, 1.0], (rows, k, n)) * rng.uniform(1.0, 10.0, (rows, k, n))
        values *= 10.0 ** rng.integers(-8, 16, (rows, k, n))
        if negative_zero:
            zero = rng.random((rows, k)) < 0.5
            zero[0, 0] = True
            values[zero] = -0.0
        interleaved = np.ascontiguousarray(values.transpose(0, 2, 1)).reshape(rows, n * k)
        counts = _phase_layout(n, p)[1]
        got = _phase_means(interleaved, np.repeat(counts, k), np.empty((rows, p * k))).reshape(rows, p, k)
        for j in range(rows):
            for i in range(k):
                own = phase_means(values[j, i], p)
                np.testing.assert_array_equal(got[j, :, i].view(np.uint64), own.view(np.uint64))
                np.testing.assert_array_equal(own.view(np.uint64), bincount_means(values[j, i], p).view(np.uint64))
