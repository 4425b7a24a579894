import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmbpbb import (
    Mode,
    PipelineConfig,
    Resample,
    ScenarioConfig,
    SeedSpec,
    TimeSeries,
    ci_band,
    energy_transfer,
    kzft_apply,
    reconstruct_component,
    run_paired,
    run_pipeline,
    run_scenario_detail,
    select_filter_specs,
)
from vmbpbb import bootstrap, pipeline
from vmbpbb.bootstrap import MAX_RESAMPLES, bootstrap_periodic_means
from vmbpbb.errors import InsufficientResamplesError, InvalidFilterError, InvalidPeriodError

from oracles import bincount_means, decompose


def two_sine(n=1000, p1=50, p2=100):
    t = np.arange(n)
    return np.sin(2 * np.pi * t / p1), np.sin(2 * np.pi * t / p2)


class TestPipelineConfig:
    def test_rejects_single_resample(self):
        with pytest.raises(InsufficientResamplesError):
            PipelineConfig(periods=(4,), resamples=1, seed=SeedSpec(0))

    def test_rejects_bad_periods(self):
        with pytest.raises(InvalidPeriodError):
            PipelineConfig(periods=(4, 4), resamples=8, seed=SeedSpec(0))
        with pytest.raises(InvalidPeriodError):
            PipelineConfig(periods=(1,), resamples=8, seed=SeedSpec(0))
        with pytest.raises(InvalidPeriodError):
            PipelineConfig(periods=(), resamples=8, seed=SeedSpec(0))

    @pytest.mark.parametrize("periods,resamples,error", [
        ((50.5, 100), 20, InvalidPeriodError),
        ((50, np.float64(100.25)), 20, InvalidPeriodError),
        ((50, 100), 20.7, ValueError),
        ((float("inf"), 50), 20, InvalidPeriodError),
        ((50, -np.inf), 20, InvalidPeriodError),
        ((np.nan, 50), 20, InvalidPeriodError),
        ((50, 100), np.inf, ValueError),
        ((50, 100), np.nan, ValueError),
    ])
    def test_rejects_non_integral_periods_and_resamples(self, periods, resamples, error):
        # int() would quietly run 50.5 at period 50 and 20.7 resamples as 20, and
        # raise OverflowError on inf and a bare ValueError on NaN.
        with pytest.raises(error, match="must be an integer, got"):
            PipelineConfig(periods=periods, resamples=resamples, seed=SeedSpec(0))

    def test_integral_floats_and_numpy_integers_are_stored_as_int(self):
        cfg = PipelineConfig(periods=(50.0, np.int64(100)), resamples=np.float64(20.0), seed=SeedSpec(0))
        assert cfg.periods == (50, 100) and cfg.resamples == 20
        assert {type(v) for v in (*cfg.periods, cfg.resamples)} == {int}

    def test_rejects_unknown_resample(self):
        with pytest.raises(ValueError):
            PipelineConfig(periods=(4,), resamples=8, seed=SeedSpec(0), resample="blocks")

    @pytest.mark.parametrize("mode", list(Mode))
    def test_mode_given_by_value_runs_that_mode(self, mode):
        # Stored as given, mode="vmbpbb" ran the all-pass PBB pipeline and still read "vmbpbb".
        values = np.random.default_rng(1).normal(size=200)
        series = TimeSeries(values - values.mean())
        cfg = PipelineConfig(periods=(10, 25), resamples=20, seed=SeedSpec(1), mode=mode.value)
        assert cfg.mode is mode
        got = run_pipeline(series, cfg)
        want = run_pipeline(series, replace(cfg, mode=mode))
        filters = cfg.filters if mode is Mode.VMBPBB else (None, None)
        assert got.mode is mode and tuple(c.filter for c in got.components) == filters
        for name in ("lower", "point", "upper"):
            assert getattr(got.aggregate_band, name).tobytes() == getattr(want.aggregate_band, name).tobytes()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            PipelineConfig(periods=(4,), resamples=8, seed=SeedSpec(0), mode="x")

    @pytest.mark.parametrize("seed", [42, None, np.random.default_rng(0)])
    def test_rejects_a_seed_that_is_not_a_seed_spec(self, seed):
        # Unchecked, seed=42 built a config whose run failed in seed.child with AttributeError.
        with pytest.raises(TypeError, match="seed must be a SeedSpec, got"):
            PipelineConfig(periods=(25, 50), resamples=10, seed=seed)

    def test_filters_designed_once_per_config(self, monkeypatch):
        calls = []
        design = pipeline.select_filter_specs
        monkeypatch.setattr(pipeline, "select_filter_specs", lambda *args: calls.append(args) or design(*args))
        cfg = PipelineConfig(periods=(10, 25), resamples=4, seed=SeedSpec(0))
        values = np.random.default_rng(0).normal(size=200)
        series = TimeSeries(values - values.mean())
        run_pipeline(series, cfg)
        run_paired(series, cfg)
        assert len(calls) == 1
        assert cfg.filters == tuple(select_filter_specs((10, 25)))
        with pytest.raises(TypeError):
            PipelineConfig(periods=(10, 25), resamples=4, seed=SeedSpec(0), filters=())

    def test_pbb_config_checks_narrow_factor(self):
        with pytest.raises(InvalidFilterError):
            PipelineConfig(periods=(4,), resamples=8, seed=SeedSpec(0), mode=Mode.PBB, narrow_factor=0.5)

    def test_window_rule_applies_to_vmbpbb_runs_only(self):
        values = np.random.default_rng(0).normal(size=100)
        series = TimeSeries(values - values.mean())
        # The (24, 25) windows have m = 1201.
        cfg = PipelineConfig(periods=(24, 25), resamples=4, seed=SeedSpec(0), mode=Mode.PBB)
        run_pipeline(series, cfg)
        with pytest.raises(InvalidFilterError, match="m=1201"):
            run_pipeline(series, replace(cfg, mode=Mode.VMBPBB))
        with pytest.raises(InvalidFilterError, match="m=1201"):
            run_paired(series, cfg)


class TestDecompose:
    def test_recovers_generating_sines(self):
        s50, s100 = two_sine()
        comps = decompose(TimeSeries(s50 + s100), [50, 100])
        interior = slice(100, 900)
        for comp, truth in zip(comps, (s50, s100)):
            rms = np.sqrt(np.mean((comp.values[interior] - truth[interior]) ** 2))
            assert rms <= 0.05

    def test_zero_series(self):
        comps = decompose(TimeSeries(np.zeros(600)), [50, 100])
        for comp in comps:
            np.testing.assert_array_equal(comp.values, np.zeros(600))

    def test_single_period_passthrough(self):
        t = np.arange(1000)
        truth = np.sin(2 * np.pi * t / 100)
        (comp,) = decompose(TimeSeries(truth), [100])
        interior = slice(201, 799)
        assert np.abs(comp.values[interior]).max() == pytest.approx(1.0, abs=0.1)
        assert np.sqrt(np.mean((comp.values[interior] - truth[interior]) ** 2)) < 0.05


class TestRunPipeline:
    def test_pbb_equals_manual_all_pass_construction(self):
        rng = np.random.default_rng(0)
        series = TimeSeries(rng.normal(size=200))
        seed = SeedSpec(12)
        cfg = PipelineConfig(periods=(4, 10), resamples=40, seed=seed, mode=Mode.PBB)
        result = run_pipeline(series, cfg)

        # independent reconstruction: bootstrap the original series per period
        # with the period-keyed substreams and sum rows in ascending order
        runs = {p: bootstrap_periodic_means(series, p, 40, seed.child(p)) for p in (4, 10)}
        trajectories = np.zeros((40, 200))
        for p in sorted(runs):
            trajectories += runs[p][:, np.arange(200) % p]
        np.testing.assert_array_equal(result.aggregate_band.point, trajectories.mean(axis=0))
        oracle_band = ci_band(trajectories, 0.05)
        np.testing.assert_array_equal(result.aggregate_band.lower, oracle_band.lower)
        np.testing.assert_array_equal(result.aggregate_band.upper, oracle_band.upper)
        for comp in result.components:
            assert comp.filter is None
            np.testing.assert_array_equal(comp.component_series.values, series.values)

    @pytest.mark.parametrize("periods,n", [((7, 24), 150), ((24, 7, 5), 130)])
    def test_aggregate_sums_partial_cycles_when_lcm_exceeds_n(self, periods, n):
        # cycle = n here, and no period divides it: each period's last partial cycle is summed too.
        series = TimeSeries(np.random.default_rng(1).normal(size=n))
        seed = SeedSpec(4)
        result = run_pipeline(series, PipelineConfig(periods=periods, resamples=20, seed=seed, mode=Mode.PBB))
        trajectories = np.zeros((20, n))
        for p in sorted(periods):
            trajectories += bootstrap_periodic_means(series, p, 20, seed.child(p))[:, np.arange(n) % p]
        band = ci_band(trajectories, 0.05)
        np.testing.assert_array_equal(result.aggregate_band.point, trajectories.mean(axis=0))
        np.testing.assert_array_equal(result.aggregate_band.lower, band.lower)
        np.testing.assert_array_equal(result.aggregate_band.upper, band.upper)

    def test_constant_series_pbb_doubles_mean(self):
        c = 1.5
        series = TimeSeries(np.full(40, c))
        cfg = PipelineConfig(periods=(2, 5), resamples=16, seed=SeedSpec(3), mode=Mode.PBB)
        with pytest.warns(UserWarning):
            result = run_pipeline(series, cfg)
        np.testing.assert_allclose(result.aggregate_band.point, 2 * c)
        assert result.aggregate_band.width.max() == 0.0
        for comp in result.components:
            assert comp.band.width.max() == 0.0

    def test_constant_series_vmbpbb_attenuates_dc(self):
        c = 1.5
        series = TimeSeries(np.full(40, c))
        cfg = PipelineConfig(periods=(2, 5), resamples=16, seed=SeedSpec(3), mode=Mode.VMBPBB)
        with pytest.warns(UserWarning):
            result = run_pipeline(series, cfg)
        specs = select_filter_specs([2, 5])
        bound = sum(2 * c * np.sqrt(energy_transfer(0.0, s.m, s.k, s.nu)) for s in specs)
        assert bound < 0.8 * 2 * c
        assert np.abs(result.aggregate_band.point).max() <= bound * 1.01

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        s50, s100 = two_sine(600)
        series = TimeSeries(s50 + s100 + rng.normal(0, 1, 600))
        a = run_pipeline(series, PipelineConfig(periods=(50, 100), resamples=30, seed=SeedSpec(9)))
        b = run_pipeline(series, PipelineConfig(periods=(100, 50), resamples=30, seed=SeedSpec(9)))
        np.testing.assert_array_equal(a.aggregate_band.point, b.aggregate_band.point)
        np.testing.assert_array_equal(a.aggregate_band.lower, b.aggregate_band.lower)
        np.testing.assert_array_equal(a.aggregate_band.upper, b.aggregate_band.upper)
        assert [c.period for c in a.components] == [50, 100]
        assert [c.period for c in b.components] == [100, 50]
        for comp_a in a.components:
            comp_b = next(c for c in b.components if c.period == comp_a.period)
            np.testing.assert_array_equal(comp_a.estimates, comp_b.estimates)

    def test_aggregate_linearity(self):
        rng = np.random.default_rng(8)
        series = TimeSeries(rng.normal(size=120))
        result = run_pipeline(series, PipelineConfig(periods=(3, 8), resamples=25, seed=SeedSpec(4), mode=Mode.PBB))
        rebuilt = np.zeros((25, 120))
        for comp in sorted(result.components, key=lambda c: c.period):
            rebuilt += comp.estimates[:, np.arange(120) % comp.period]
        np.testing.assert_array_equal(result.aggregate_band.point, rebuilt.mean(axis=0))

    def test_band_ordering_holds_pointwise(self):
        rng = np.random.default_rng(13)
        s50, s100 = two_sine(500)
        series = TimeSeries(s50 + s100 + rng.normal(0, 2, 500))
        result = run_pipeline(series, PipelineConfig(periods=(50, 100), resamples=40, seed=SeedSpec(2)))
        assert np.all(result.aggregate_band.lower <= result.aggregate_band.point)
        assert np.all(result.aggregate_band.point <= result.aggregate_band.upper)

    def test_nondegenerate_band_with_two_resamples(self):
        rng = np.random.default_rng(1)
        series = TimeSeries(rng.normal(size=60))
        result = run_pipeline(series, PipelineConfig(periods=(5,), resamples=2, seed=SeedSpec(0), mode=Mode.PBB))
        assert result.aggregate_band.width.max() > 0.0

    def test_vm_band_narrower_than_pbb(self):
        rng = np.random.default_rng(77)
        s50, s100 = two_sine()
        series = TimeSeries(s50 + s100 + rng.normal(0, np.sqrt(10), 1000))
        seed = SeedSpec(21)
        pbb = run_pipeline(series, PipelineConfig(periods=(50, 100), resamples=60, seed=seed, mode=Mode.PBB))
        vm = run_pipeline(series, PipelineConfig(periods=(50, 100), resamples=60, seed=seed, mode=Mode.VMBPBB))
        assert np.median(pbb.aggregate_band.width / vm.aggregate_band.width) > 1.0

    @pytest.mark.parametrize("resample", list(Resample))
    def test_result_arrays_are_read_only(self, resample):
        series = TimeSeries(np.random.default_rng(3).normal(size=100))
        cfg = PipelineConfig(periods=(4, 10), resamples=5, seed=SeedSpec(1), resample=resample)
        result = run_pipeline(series, cfg)
        for comp in result.components:
            assert comp.estimates.shape == (5, comp.period)
            assert not comp.estimates.flags.writeable
        assert not result.aggregate_band.point.flags.writeable
        assert not bootstrap_periodic_means(series, 4, 3, SeedSpec(0)).flags.writeable

    @pytest.mark.parametrize("resample", list(Resample))
    def test_paired_estimates_are_read_only_and_never_alias(self, resample):
        # Under COMPONENTS a period's modes may be views of one (B, p, k) buffer, of disjoint elements.
        series = TimeSeries(np.random.default_rng(5).normal(size=120))
        cfg = PipelineConfig(periods=(4, 10), resamples=7, seed=SeedSpec(2), resample=resample)
        results = run_paired(series, cfg)
        for pbb, vm in zip(results[Mode.PBB].components, results[Mode.VMBPBB].components):
            assert pbb.period == vm.period
            for comp in (pbb, vm):
                assert comp.estimates.shape == (7, comp.period)
                assert not comp.estimates.flags.writeable
                with pytest.raises(ValueError):
                    comp.estimates[0, 0] = 1.0
            assert not np.shares_memory(pbb.estimates, vm.estimates)

    def test_period_longer_than_series(self):
        with pytest.raises(InvalidPeriodError):
            run_pipeline(TimeSeries(np.zeros(10)), PipelineConfig(periods=(20,), resamples=4, seed=SeedSpec(0)))


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.aggregate_band.point, b.aggregate_band.point)
    np.testing.assert_array_equal(a.aggregate_band.lower, b.aggregate_band.lower)
    np.testing.assert_array_equal(a.aggregate_band.upper, b.aggregate_band.upper)
    for comp_a in a.components:
        comp_b = next(c for c in b.components if c.period == comp_a.period)
        np.testing.assert_array_equal(comp_a.estimates, comp_b.estimates)
        np.testing.assert_array_equal(comp_a.band.lower, comp_b.band.lower)
        np.testing.assert_array_equal(comp_a.band.upper, comp_b.band.upper)


class TestRunPaired:
    @pytest.mark.parametrize("periods,n,resample", [
        ((50, 100), 1000, Resample.COMPONENTS),
        ((7, 24), 150, Resample.COMPONENTS),  # lcm 168 > n: no repeated columns
        ((24, 10), 500, Resample.SERIES),
    ])
    def test_each_mode_equals_its_single_mode_run(self, periods, n, resample):
        rng = np.random.default_rng(17)
        t = np.arange(n)
        series = TimeSeries(sum(np.sin(2 * np.pi * t / p) for p in periods) + rng.normal(0, 2, n))
        # The paired run does not read cfg.mode.
        cfg = PipelineConfig(periods=periods, resamples=30, seed=SeedSpec(6), mode=Mode.PBB,
                             resample=resample)
        paired = run_paired(series, cfg)
        assert set(paired) == {Mode.PBB, Mode.VMBPBB}
        for mode, result in paired.items():
            single = run_pipeline(series, PipelineConfig(periods=periods, resamples=30, seed=SeedSpec(6),
                                                         mode=mode, resample=resample))
            assert result.mode is mode
            assert_same_result(result, single)
            for comp_a, comp_b in zip(result.components, single.components):
                assert comp_a.filter == comp_b.filter
                np.testing.assert_array_equal(comp_a.component_series.values,
                                              comp_b.component_series.values)

    @settings(max_examples=30, deadline=None)
    @given(
        periods=st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True),
        resample=st.sampled_from(list(Resample)),
        resamples=st.integers(2, 5),
        extra=st.integers(0, 30),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_see_only_inputs_the_entry_rules_admit(self, periods, resample, resamples, extra,
                                                          data_seed):
        # _resample_blocks and _phase_sums check nothing, so every call a valid run makes
        # must hold 2 <= p, 2p <= n and 1 <= B <= MAX_RESAMPLES by itself.
        cfg = PipelineConfig(periods=periods, resamples=resamples, seed=SeedSpec(data_seed),
                             resample=resample)
        # The shortest series that meets every rule of mode_filters, plus a few samples.
        lcm_rule = 2 * math.lcm(*periods) if resample is Resample.SERIES else 0
        n = extra + max(2 * max(periods), lcm_rule, *(spec.support for spec in cfg.filters))
        real_blocks, real_sums = bootstrap._resample_blocks, bootstrap._phase_sums
        calls = []

        def check(where, n, p, count=1):
            calls.append(where)
            assert 2 <= p and 2 * p <= n and 1 <= count <= MAX_RESAMPLES, (where, n, p, count)

        def resample_blocks(values, p, count, seed):
            check("_resample_blocks", values.shape[-1], p, count)
            return real_blocks(values, p, count, seed)

        def phase_sums(values, out):
            check("_phase_sums", values.shape[-1], out.shape[-1])
            return real_sums(values, out)

        values = np.random.default_rng(data_seed).normal(size=n)
        with pytest.MonkeyPatch.context() as patch:
            for module in (pipeline, bootstrap):
                patch.setattr(module, "_resample_blocks", resample_blocks)
                patch.setattr(module, "_phase_sums", phase_sums)
            run_paired(TimeSeries(values - values.mean()), cfg)
        assert set(calls) == {"_resample_blocks", "_phase_sums"}


class TestComponentBands:
    """Component bands are built on first read; a paired repetition reads only the aggregates."""

    def test_paired_desk_repetition_builds_two_bands(self, monkeypatch):
        shapes = []
        real = pipeline.ci_band

        def counting(samples, alpha):
            shapes.append(np.shape(samples))
            return real(samples, alpha)

        monkeypatch.setattr(pipeline, "ci_band", counting)
        run_scenario_detail(ScenarioConfig(p1=50, p2=100, snr=(1, 10), reps=1, seed=SeedSpec(42)))
        # One aggregate band per mode, over lcm(50, 100) = 100 columns.
        assert shapes == [(200, 100), (200, 100)]

    def test_band_is_built_once(self, monkeypatch):
        series = TimeSeries(np.random.default_rng(3).normal(size=200))
        result = run_pipeline(series, PipelineConfig(periods=(4, 10), resamples=20, seed=SeedSpec(1)))
        calls = []
        real = pipeline.ci_band
        monkeypatch.setattr(pipeline, "ci_band", lambda samples, alpha: calls.append(1) or real(samples, alpha))
        comp = result.components[0]
        assert comp.band is comp.band
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("resample", list(Resample))
    def test_bands_equal_the_eager_construction(self, mode, resample):
        n = 300
        t = np.arange(n)
        series = TimeSeries(np.sin(2 * np.pi * t / 12) + np.random.default_rng(5).normal(size=n))
        cfg = PipelineConfig(periods=(12, 5), resamples=40, seed=SeedSpec(9), mode=mode, alpha=0.1,
                             resample=resample)
        for comp in run_pipeline(series, cfg).components:
            want = pipeline._tiled_band(ci_band(comp.estimates, 0.1), np.arange(n) % comp.period)
            assert comp.band.alpha == 0.1
            for name in ("lower", "point", "upper"):
                got_values, want_values = getattr(comp.band, name), getattr(want, name)
                assert got_values.shape == (n,)
                np.testing.assert_array_equal(got_values.view(np.uint64), want_values.view(np.uint64))


class TestSeriesResample:
    def noisy_series(self, n=600):
        rng = np.random.default_rng(31)
        s50, s100 = two_sine(n)
        return TimeSeries(s50 + s100 + rng.normal(0, 2, n))

    def test_period_swap_and_rerun_bit_identical(self):
        series = self.noisy_series()
        for mode in Mode:
            kw = dict(resamples=20, seed=SeedSpec(9), mode=mode, resample=Resample.SERIES)
            first = run_pipeline(series, PipelineConfig(periods=(50, 100), **kw))
            swapped = run_pipeline(series, PipelineConfig(periods=(100, 50), **kw))
            rerun = run_pipeline(series, PipelineConfig(periods=(50, 100), **kw))
            assert_same_result(first, swapped)
            assert_same_result(first, rerun)
            assert [c.period for c in swapped.components] == [100, 50]

    def test_modes_consume_identical_draws(self):
        series = self.noisy_series(1000)
        seed = SeedSpec(4)
        # lcm(50, 100) = 100 divides n, lcm(24, 168) = 168 does not. At n = 1000
        # a draw block holds 16 resamples, so 37 resamples take three blocks.
        for periods in ((50, 100), (24, 168)):
            kw = dict(periods=periods, resamples=37, seed=seed, resample=Resample.SERIES)
            pbb = run_pipeline(series, PipelineConfig(mode=Mode.PBB, **kw))
            vm = run_pipeline(series, PipelineConfig(mode=Mode.VMBPBB, **kw))
            # one whole-series draw per resample at L = lcm(periods), on seed.child(0, b):
            # slot t takes a uniform draw from the slots congruent to t modulo L
            cycle = math.lcm(*periods)
            phases = np.arange(series.n) % cycle
            counts = np.bincount(phases, minlength=cycle)
            draws = [series.values[phases + cycle * seed.child(0, b).generator().integers(0, counts[phases])]
                     for b in range(37)]
            specs = dict(zip(periods, select_filter_specs(periods)))
            for comp in pbb.components:
                rows = np.array([bincount_means(d, comp.period) for d in draws])
                np.testing.assert_array_equal(comp.estimates.view(np.uint64), rows.view(np.uint64))
            for comp in vm.components:
                spec = specs[comp.period]
                rows = np.array([bincount_means(reconstruct_component(kzft_apply(TimeSeries(d), spec)).values,
                                                comp.period) for d in draws])
                np.testing.assert_array_equal(comp.estimates.view(np.uint64), rows.view(np.uint64))
                assert comp.filter == spec
            for comp in pbb.components:
                assert comp.filter is None
                np.testing.assert_array_equal(comp.component_series.values, series.values)

    def test_rejects_fewer_than_two_lcm_cycles(self):
        rng = np.random.default_rng(2)
        # lcm(30, 50) = 150; the (30, 50) windows, m = 151, fit both lengths.
        cfg = PipelineConfig(periods=(30, 50), resamples=4, seed=SeedSpec(0), resample=Resample.SERIES)
        with pytest.raises(InvalidPeriodError):
            run_pipeline(TimeSeries(rng.normal(size=299)), cfg)
        run_pipeline(TimeSeries(rng.normal(size=300)), cfg)
        # n = 200 covers two cycles of each period but not of lcm(30, 50) = 150.
        # (The (50, 75) window, m = 301, would not fit n = 300.)
        with pytest.raises(InvalidPeriodError):
            ScenarioConfig(p1=30, p2=50, snr=(1, 10), n=200, resample=Resample.SERIES)
        ScenarioConfig(p1=30, p2=50, snr=(1, 10), n=300, resample=Resample.SERIES)

    def test_threads_match_serial(self):
        cfg = ScenarioConfig(p1=10, p2=25, snr=(1, 10), n=200, resamples=20, reps=4,
                             seed=SeedSpec(7), resample=Resample.SERIES)
        swapped = ScenarioConfig(p1=25, p2=10, snr=(1, 10), n=200, resamples=20, reps=4,
                                 seed=SeedSpec(7), resample=Resample.SERIES)
        serial = run_scenario_detail(cfg)[0]
        assert run_scenario_detail(cfg, threads=2)[0] == serial
        assert run_scenario_detail(swapped)[0] == serial

    def test_unset_resample_is_components(self):
        assert PipelineConfig(periods=(4,), resamples=8, seed=SeedSpec(0)).resample is Resample.COMPONENTS
        assert ScenarioConfig(p1=10, p2=25, snr=(1, 10)).resample is Resample.COMPONENTS
