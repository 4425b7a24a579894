import numpy as np
import pytest

from vmbpbb import (
    ComplexSeries,
    EdgePolicy,
    FilterSpec,
    TimeSeries,
    energy_transfer,
    half_power_cutoff,
    kz_coefficients,
    kzft_apply,
    reconstruct_component,
    select_filter_specs,
)
from vmbpbb.errors import (
    DegenerateSeparationError,
    InvalidFilterError,
    InvalidPeriodError,
    SeriesTooShortError,
    UndefinedCutoffError,
)
from vmbpbb.filters import _integer_coefficients, _kzft_kernel, _smallest_odd_above, _tap_mass

from oracles import convolution_oracle


def kz(series, m, k, edge=EdgePolicy.RENORMALIZE):
    """The low-pass KZ filter: the bandpass filter centered at nu = 0."""
    return kzft_apply(series, FilterSpec(m, k, 0.0), edge)


def iterated_kz_oracle(values, m, k):
    """k passes of a plain centered moving average; valid points only."""
    out = np.asarray(values, dtype=float)
    for _ in range(k):
        out = np.convolve(out, np.full(m, 1.0 / m), mode="valid")
    return out


class TestCoefficients:
    def test_identity_filter(self):
        for k in (1, 2, 5):
            np.testing.assert_array_equal(kz_coefficients(1, k), [1.0])

    def test_plain_moving_average(self):
        np.testing.assert_array_equal(kz_coefficients(3, 1), np.array([1, 1, 1]) / 3.0)

    def test_m3_k2(self):
        np.testing.assert_array_equal(kz_coefficients(3, 2), np.array([1, 2, 3, 2, 1]) / 9.0)

    def test_m5_k3_matches_oracle_exactly(self):
        oracle = np.array(convolution_oracle(5, 3)) / 125.0
        np.testing.assert_array_equal(kz_coefficients(5, 3), oracle)

    # (21, 15) and (3, 40) have m**k > 2**63, beyond int64.
    @pytest.mark.parametrize("m,k", [(21, 15), (3, 40)])
    def test_python_int_path_matches_oracle_exactly(self, m, k):
        assert _integer_coefficients(m, k).dtype == object
        oracle = np.array(convolution_oracle(m, k), dtype=float) / float(m) ** k
        np.testing.assert_array_equal(kz_coefficients(m, k), oracle)

    # 3**646 < 1.8e308 < 3**647: (3, 646) is the largest k at m = 3 whose m**k is a float.
    @pytest.mark.parametrize("m,k", [(3, 1), (5, 2), (7, 3), (21, 5), (201, 1), (35, 4),
                                     (21, 15), (3, 40), (3, 646)])
    def test_table_invariants(self, m, k):
        weights = kz_coefficients(m, k)
        assert weights.size == k * (m - 1) + 1
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-12
        np.testing.assert_array_equal(weights, weights[::-1])
        assert not weights.flags.writeable

    @pytest.mark.parametrize("m", [3, 7, 21])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_k_fold_self_convolution(self, m, k):
        # Exact in integer space by construction; float path agrees to rounding.
        single = kz_coefficients(m, 1)
        folded = single
        for _ in range(k - 1):
            folded = np.convolve(folded, single)
        np.testing.assert_allclose(kz_coefficients(m, k), folded, rtol=1e-13)
        oracle = np.array(convolution_oracle(m, k), dtype=float) / float(m) ** k
        np.testing.assert_array_equal(kz_coefficients(m, k), oracle)

    # The last three have m**k beyond the float range the weights are divided in.
    @pytest.mark.parametrize("m,k", [(2, 1), (0, 1), (-3, 1), (3, 0), (3, 647), (3, 700), (201, 134)])
    def test_invalid_arguments(self, m, k):
        with pytest.raises(InvalidFilterError):
            kz_coefficients(m, k)


class TestIntegerFields:
    @pytest.mark.parametrize("m,k", [(3.5, 1), (3, 1.9), (np.float64(5.25), 2),
                                     (np.inf, 1), (3, -np.inf), (np.nan, 1)])
    def test_filter_spec_rejects_non_integral_m_and_k(self, m, k):
        # int() would quietly build FilterSpec(m=3.5, k=1.9) as m=3, k=1, and
        # raise OverflowError on inf and a bare ValueError on NaN.
        with pytest.raises(InvalidFilterError, match="must be an integer, got"):
            FilterSpec(m=m, k=k, nu=0.0)

    def test_filter_spec_stores_integral_floats_and_numpy_integers_as_int(self):
        spec = FilterSpec(m=3.0, k=np.int64(2), nu=0.1)
        assert (spec.m, spec.k) == (3, 2)
        assert {type(spec.m), type(spec.k)} == {int}

    @pytest.mark.parametrize("m,k", [(3.5, 1), (3, 1.5), (np.float64(5.25), 2), (5, np.float64(2.5)),
                                     (np.inf, 1), (5, -np.inf), (np.nan, 2)])
    @pytest.mark.parametrize("function", [
        lambda m, k: energy_transfer(0.1, m, k),
        half_power_cutoff,
        kz_coefficients,
    ])
    def test_filter_functions_reject_non_integral_m_and_k(self, function, m, k):
        # Unchecked, energy_transfer(0.1, 3.5, 1) read 0.679 and half_power_cutoff(3.5, 1.5) 0.105.
        with pytest.raises(InvalidFilterError, match="must be an integer, got"):
            function(m, k)

    def test_filter_functions_accept_integral_floats_and_numpy_integers(self):
        assert energy_transfer(0.1, 3.0, np.int64(2)) == energy_transfer(0.1, 3, 2)
        assert half_power_cutoff(np.float64(5.0), 2.0) == half_power_cutoff(5, 2)
        np.testing.assert_array_equal(kz_coefficients(3.0, np.int64(2)), kz_coefficients(3, 2))

    @pytest.mark.parametrize("start_index", [2.5, -0.5, np.float64(1.75), np.inf, -np.inf, np.nan])
    def test_complex_series_rejects_non_integral_start_index(self, start_index):
        with pytest.raises(ValueError, match="start_index must be an integer, got"):
            ComplexSeries([1j, 2j], start_index=start_index)

    def test_complex_series_stores_integral_start_index_as_int(self):
        assert type(ComplexSeries([1j], start_index=np.int64(3)).start_index) is int
        assert ComplexSeries([1j], start_index=3.0).start_index == 3


class TestKzApply:
    """The low-pass KZ filter, applied as kzft_apply at nu = 0."""

    def test_constant_preserved_everywhere(self):
        series = TimeSeries(np.full(40, 3.25))
        for m, k in [(3, 1), (5, 2), (9, 3)]:
            out = kz(series, m, k, EdgePolicy.RENORMALIZE)
            assert out.n == 40
            np.testing.assert_allclose(out.values.real, 3.25, rtol=1e-13)

    def test_period_m_sine_vanishes(self):
        t = np.arange(200)
        out = kz(TimeSeries(np.sin(2 * np.pi * t / 25)), 25, 1, EdgePolicy.TRUNCATE)
        assert np.abs(out.values.real).max() < 1e-10

    def test_direct_equals_iterated_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=120)
        for m, k in [(3, 2), (5, 3), (7, 2)]:
            out = kz(TimeSeries(values), m, k, EdgePolicy.TRUNCATE)
            np.testing.assert_allclose(out.values.real, iterated_kz_oracle(values, m, k), atol=1e-10)

    def test_nested_single_pass_equals_two_pass(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(rng.normal(size=60))
        once = kz(kz(series, 3, 1, EdgePolicy.TRUNCATE), 3, 1, EdgePolicy.TRUNCATE)
        both = kz(series, 3, 2, EdgePolicy.TRUNCATE)
        np.testing.assert_allclose(once.values.real, both.values.real, atol=1e-12)
        assert once.start_index == both.start_index == 2

    def test_truncate_geometry(self):
        out = kz(TimeSeries(np.arange(20.0), start_index=5), 5, 2, EdgePolicy.TRUNCATE)
        assert out.n == 20 - 2 * 4
        assert out.start_index == 5 + 4

    def test_truncate_too_short(self):
        with pytest.raises(SeriesTooShortError):
            kz(TimeSeries(np.arange(8.0)), 5, 2, EdgePolicy.TRUNCATE)

    def test_policies_agree_on_interior(self):
        rng = np.random.default_rng(7)
        series = TimeSeries(rng.normal(size=80))
        renorm = kz(series, 7, 2, EdgePolicy.RENORMALIZE)
        trunc = kz(series, 7, 2, EdgePolicy.TRUNCATE)
        np.testing.assert_allclose(renorm.values.real[6:-6], trunc.values.real, atol=1e-12)


class TestKzftApply:
    def test_nu_zero_reduces_to_kz(self):
        rng = np.random.default_rng(21)
        series = TimeSeries(rng.normal(size=50))
        cs = kzft_apply(series, FilterSpec(m=5, k=2, nu=0.0))
        assert np.abs(cs.values.imag).max() < 1e-12
        np.testing.assert_allclose(cs.values.real[4:-4], iterated_kz_oracle(series.values, 5, 2), atol=1e-12)

    def test_complex_exponential_at_center_passes(self):
        spec = FilterSpec(m=21, k=2, nu=0.1)
        t = np.arange(300)
        x = ComplexSeries(np.exp(2j * np.pi * spec.nu * t))
        out = kzft_apply(x, spec, EdgePolicy.TRUNCATE)
        expected = np.exp(2j * np.pi * spec.nu * (t[spec.half_width : 300 - spec.half_width]))
        np.testing.assert_allclose(out.values, expected, atol=1e-10)

    def test_cosine_at_first_zero_is_rejected(self):
        # |nu1 - nu2| = 1/25, so the interfering line lands on a transfer zero.
        nu1, nu2, m = 0.08, 0.12, 25
        t = np.arange(400)
        series = TimeSeries(np.cos(2 * np.pi * nu2 * t))
        out = kzft_apply(series, FilterSpec(m=m, k=1, nu=nu1), EdgePolicy.TRUNCATE)
        assert np.abs(out.values).max() <= 1e-6

    def test_cached_tables_equal_fresh_ones_and_are_read_only(self):
        spec = FilterSpec(m=21, k=2, nu=0.1)
        series = TimeSeries(np.random.default_rng(4).normal(size=300))
        first = kzft_apply(series, spec)
        _kzft_kernel.cache_clear()
        _tap_mass.cache_clear()
        fresh = kzft_apply(series, spec)
        cached = kzft_apply(series, spec)
        np.testing.assert_array_equal(first.values, fresh.values)
        np.testing.assert_array_equal(cached.values, fresh.values)
        assert _kzft_kernel.cache_info().hits >= 1 and _tap_mass.cache_info().hits >= 1
        # The uncached formulas, written out.
        weights = kz_coefficients(spec.m, spec.k)
        h = spec.half_width
        kernel = weights * np.exp(-2j * np.pi * spec.nu * np.arange(-h, h + 1))
        mass = np.convolve(np.ones(series.n), weights, mode="full")[h : h + series.n]
        cached_kernel = _kzft_kernel(spec.m, spec.k, spec.nu)
        np.testing.assert_array_equal(cached_kernel, kernel)
        np.testing.assert_array_equal(_tap_mass(spec.m, spec.k, series.n), mass)
        full = np.convolve(series.values, kernel[::-1], mode="full")[h : h + series.n]
        np.testing.assert_array_equal(cached.values, full / mass)
        for arr in (cached_kernel, _tap_mass(spec.m, spec.k, series.n)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("m,k", [(5, 1), (21, 2), (81, 1), (41, 3)])
    def test_measured_attenuation_matches_transfer(self, m, k):
        spec = FilterSpec(m=m, k=k, nu=0.25)
        n = spec.support + 200
        t = np.arange(n)
        for offset_frac in (0.25, 0.45, 1.5):
            lam = spec.nu + offset_frac / m
            x = ComplexSeries(np.exp(2j * np.pi * lam * t))
            out = kzft_apply(x, spec, EdgePolicy.TRUNCATE)
            measured = np.abs(out.values).mean()
            analytic = np.sqrt(energy_transfer(lam, m, k, spec.nu))
            assert measured == pytest.approx(analytic, rel=0.01)


class TestReconstruct:
    def test_real_path_doubles_smoothed_series(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(rng.normal(size=64))
        rebuilt = reconstruct_component(kzft_apply(series, FilterSpec(m=5, k=1, nu=0.0)))
        np.testing.assert_allclose(rebuilt.values, 2.0 * kz(series, 5, 1).values.real, atol=1e-14)

    def test_cosine_reconstruction_amplitude(self):
        nu, m = 0.05, 41
        t = np.arange(1200)
        series = TimeSeries(np.cos(2 * np.pi * nu * t))
        rebuilt = reconstruct_component(kzft_apply(series, FilterSpec(m=m, k=1, nu=nu)))
        interior = slice(m, 1200 - m)
        # DFT bandpass oracle: keep positive-frequency bins within 1/m of nu.
        spectrum = np.fft.fft(series.values)
        freqs = np.fft.fftfreq(1200)
        keep = (freqs > 0) & (np.abs(freqs - nu) < 1.0 / m)
        oracle = 2.0 * np.real(np.fft.ifft(np.where(keep, spectrum, 0.0)))
        amplitude = np.abs(rebuilt.values[interior]).max()
        assert amplitude == pytest.approx(1.0, abs=0.05)
        assert np.sqrt(np.mean((rebuilt.values[interior] - oracle[interior]) ** 2)) < 0.05

    def test_zero_series(self):
        out = reconstruct_component(kzft_apply(TimeSeries(np.zeros(30)), FilterSpec(m=3, k=1, nu=0.1)))
        np.testing.assert_array_equal(out.values, np.zeros(30))


class TestEnergyTransfer:
    def test_passband_center(self):
        for m, k in [(3, 1), (5, 2), (201, 1)]:
            assert energy_transfer(0.1, m, k, 0.1) == 1.0

    @pytest.mark.parametrize("m", [3, 5, 21, 201])
    def test_zero_at_one_over_m(self, m):
        assert energy_transfer(0.25 + 1.0 / m, m, 1, 0.25) <= 1e-12

    def test_known_value(self):
        assert energy_transfer(0.5, 3, 1, 0.0) == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_symmetry_about_center(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            nu = rng.uniform(0.05, 0.45)
            lam = rng.uniform(0, 0.5)
            left = energy_transfer(lam, 7, 2, nu)
            right = energy_transfer(2 * nu - lam, 7, 2, nu)
            assert left == pytest.approx(right, rel=1e-9, abs=1e-15)

    def test_all_pass_when_m_is_one(self):
        grid = np.linspace(0, 0.5, 11)
        np.testing.assert_allclose(energy_transfer(grid, 1, 3, 0.0), 1.0)

    def test_vectorized(self):
        grid = np.linspace(0, 0.5, 101)
        values = energy_transfer(grid, 5, 1, 0.0)
        assert values.shape == grid.shape
        assert values[0] == 1.0


class TestHalfPowerCutoff:
    def test_closed_form_values(self):
        # Frozen from direct evaluation of the closed form.
        assert half_power_cutoff(5, 1) == pytest.approx(0.0856130, abs=1e-6)
        assert half_power_cutoff(201, 1) == pytest.approx(0.0020994, abs=1e-6)

    @pytest.mark.parametrize("m", [5, 11, 21, 41, 81, 201])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_energy_near_half(self, m, k):
        cutoff = half_power_cutoff(m, k)
        assert 0.45 <= energy_transfer(cutoff, m, k, 0.0) <= 0.55

    def test_decreasing_in_k(self):
        cutoffs = [half_power_cutoff(5, k) for k in range(1, 6)]
        assert all(a > b for a, b in zip(cutoffs, cutoffs[1:]))

    def test_all_pass_has_no_cutoff(self):
        with pytest.raises(UndefinedCutoffError):
            half_power_cutoff(1, 1)


class TestSelectFilterSpecs:
    def test_paper_pair(self):
        specs = select_filter_specs([50, 100])
        assert [(s.m, s.k) for s in specs] == [(201, 1), (201, 1)]
        assert [s.nu for s in specs] == [0.02, 0.01]

    def test_narrowed_close_pair(self):
        specs = select_filter_specs([10, 25], narrow_factor=2)
        assert {s.m for s in specs} == {67}
        standard = select_filter_specs([10, 25])
        assert {s.m for s in standard} == {35}

    def test_single_period_band_excludes_dc(self):
        (spec,) = select_filter_specs([100])
        assert (spec.m, spec.k, spec.nu) == (201, 1, 0.01)
        assert energy_transfer(0.0, spec.m, spec.k, spec.nu) < 0.5

    def test_order_follows_input(self):
        specs = select_filter_specs([100, 50])
        assert [s.nu for s in specs] == [0.01, 0.02]

    def test_strictly_greater_tie_rule(self):
        # 1/11 - 1/33 = 2/33 exactly, so the target 2/d is the odd integer 33.
        specs = select_filter_specs([11, 33])
        assert {s.m for s in specs} == {35}
        assert _smallest_odd_above(33.0) == 35
        assert _smallest_odd_above(200.0) == 201
        assert _smallest_odd_above(66.67) == 67

    def test_errors(self):
        with pytest.raises(DegenerateSeparationError):
            select_filter_specs([10, 10])
        with pytest.raises(InvalidPeriodError):
            select_filter_specs([1, 10])
        for narrow_factor in (0.5, float("nan"), float("inf"), 1e308):
            with pytest.raises(InvalidFilterError):
                select_filter_specs([10, 25], narrow_factor=narrow_factor)
