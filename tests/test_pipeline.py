import numpy as np
import pytest

from vmbpbb import (
    EdgePolicy,
    Mode,
    PipelineConfig,
    Resample,
    ScenarioConfig,
    SeedSpec,
    TimeSeries,
    bootstrap_periodic_means,
    ci_band,
    component_seed,
    decompose,
    energy_transfer,
    kzft_apply,
    pbb_resample,
    periodic_mean,
    reconstruct_component,
    run_paired,
    run_pipeline,
    run_scenario,
    select_filter_specs,
)
from vmbpbb.errors import InsufficientResamplesError, InvalidPeriodError


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

    def test_rejects_truncate(self):
        with pytest.raises(ValueError):
            PipelineConfig(periods=(4,), resamples=8, seed=SeedSpec(0), edge=EdgePolicy.TRUNCATE)

    def test_rejects_unknown_resample(self):
        with pytest.raises(ValueError):
            PipelineConfig(periods=(4,), resamples=8, seed=SeedSpec(0), resample="blocks")


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


class TestComponentSeed:
    def test_keyed_by_period_value(self):
        base = SeedSpec(10)
        assert component_seed(base, 50) == base.child(50)
        assert component_seed(base, 50).generator().random() == component_seed(base, 50).generator().random()

    def test_distinct_labels_distinct_streams(self):
        base = SeedSpec(10)
        a = component_seed(base, 50).generator().random(4)
        b = component_seed(base, 100).generator().random(4)
        assert not np.array_equal(a, b)


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
            trajectories += runs[p].estimates[:, np.arange(200) % p]
        np.testing.assert_array_equal(result.aggregate_point.values, trajectories.mean(axis=0))
        oracle_band = ci_band(trajectories, 0.05)
        np.testing.assert_array_equal(result.aggregate_band.lower, oracle_band.lower)
        np.testing.assert_array_equal(result.aggregate_band.upper, oracle_band.upper)
        for comp in result.components:
            assert comp.filter is None
            np.testing.assert_array_equal(comp.component_series.values, series.values)

    def test_constant_series_pbb_doubles_mean(self):
        c = 1.5
        series = TimeSeries(np.full(40, c))
        cfg = PipelineConfig(periods=(2, 5), resamples=16, seed=SeedSpec(3), mode=Mode.PBB)
        with pytest.warns(UserWarning):
            result = run_pipeline(series, cfg)
        np.testing.assert_allclose(result.aggregate_point.values, 2 * c)
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
        assert np.abs(result.aggregate_point.values).max() <= bound * 1.01

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        s50, s100 = two_sine(600)
        series = TimeSeries(s50 + s100 + rng.normal(0, 1, 600))
        a = run_pipeline(series, PipelineConfig(periods=(50, 100), resamples=30, seed=SeedSpec(9)))
        b = run_pipeline(series, PipelineConfig(periods=(100, 50), resamples=30, seed=SeedSpec(9)))
        np.testing.assert_array_equal(a.aggregate_point.values, b.aggregate_point.values)
        np.testing.assert_array_equal(a.aggregate_band.lower, b.aggregate_band.lower)
        np.testing.assert_array_equal(a.aggregate_band.upper, b.aggregate_band.upper)
        assert [c.period for c in a.components] == [50, 100]
        assert [c.period for c in b.components] == [100, 50]
        for comp_a in a.components:
            comp_b = next(c for c in b.components if c.period == comp_a.period)
            np.testing.assert_array_equal(comp_a.run.estimates, comp_b.run.estimates)

    def test_aggregate_linearity(self):
        rng = np.random.default_rng(8)
        series = TimeSeries(rng.normal(size=120))
        result = run_pipeline(series, PipelineConfig(periods=(3, 8), resamples=25, seed=SeedSpec(4), mode=Mode.PBB))
        rebuilt = np.zeros((25, 120))
        for comp in sorted(result.components, key=lambda c: c.period):
            rebuilt += comp.run.estimates[:, np.arange(120) % comp.period]
        np.testing.assert_array_equal(result.aggregate_point.values, rebuilt.mean(axis=0))

    def test_band_ordering_holds_pointwise(self):
        rng = np.random.default_rng(13)
        s50, s100 = two_sine(500)
        series = TimeSeries(s50 + s100 + rng.normal(0, 2, 500))
        result = run_pipeline(series, PipelineConfig(periods=(50, 100), resamples=40, seed=SeedSpec(2)))
        assert np.all(result.aggregate_band.lower <= result.aggregate_point.values)
        assert np.all(result.aggregate_point.values <= result.aggregate_band.upper)

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

    def test_period_longer_than_series(self):
        with pytest.raises(InvalidPeriodError):
            run_pipeline(TimeSeries(np.zeros(10)), PipelineConfig(periods=(20,), resamples=4, seed=SeedSpec(0)))


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.aggregate_point.values, b.aggregate_point.values)
    np.testing.assert_array_equal(a.aggregate_band.lower, b.aggregate_band.lower)
    np.testing.assert_array_equal(a.aggregate_band.upper, b.aggregate_band.upper)
    for comp_a in a.components:
        comp_b = next(c for c in b.components if c.period == comp_a.period)
        np.testing.assert_array_equal(comp_a.run.estimates, comp_b.run.estimates)
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
        series = self.noisy_series()
        seed = SeedSpec(4)
        kw = dict(periods=(50, 100), resamples=6, seed=seed, resample=Resample.SERIES)
        pbb = run_pipeline(series, PipelineConfig(mode=Mode.PBB, **kw))
        vm = run_pipeline(series, PipelineConfig(mode=Mode.VMBPBB, **kw))
        # one whole-series draw per resample at lcm(50, 100), on seed.child(0, b)
        draws = [pbb_resample(series, 100, seed.child(0, b).generator()) for b in range(6)]
        specs = dict(zip((50, 100), select_filter_specs((50, 100))))
        for comp in pbb.components:
            rows = [periodic_mean(d, comp.period).means for d in draws]
            np.testing.assert_array_equal(comp.run.estimates, np.array(rows))
        for comp in vm.components:
            spec = specs[comp.period]
            rows = [periodic_mean(reconstruct_component(kzft_apply(d, spec)), comp.period).means
                    for d in draws]
            np.testing.assert_array_equal(comp.run.estimates, np.array(rows))
            assert comp.filter == spec
        for comp in pbb.components:
            assert comp.filter is None
            np.testing.assert_array_equal(comp.component_series.values, series.values)

    def test_rejects_fewer_than_two_lcm_cycles(self):
        rng = np.random.default_rng(2)
        cfg = PipelineConfig(periods=(4, 6), resamples=4, seed=SeedSpec(0), resample=Resample.SERIES)
        with pytest.raises(InvalidPeriodError):
            run_pipeline(TimeSeries(rng.normal(size=23)), cfg)
        run_pipeline(TimeSeries(rng.normal(size=24)), cfg)
        # n = 200 covers two cycles of each period but not of lcm(50, 75) = 150
        with pytest.raises(InvalidPeriodError):
            ScenarioConfig(p1=50, p2=75, snr=(1, 10), n=200, resample=Resample.SERIES)
        ScenarioConfig(p1=50, p2=75, snr=(1, 10), n=300, resample=Resample.SERIES)

    def test_threads_match_serial(self):
        cfg = ScenarioConfig(p1=10, p2=25, snr=(1, 10), n=200, resamples=20, reps=4,
                             seed=SeedSpec(7), resample=Resample.SERIES)
        swapped = ScenarioConfig(p1=25, p2=10, snr=(1, 10), n=200, resamples=20, reps=4,
                                 seed=SeedSpec(7), resample=Resample.SERIES)
        serial = run_scenario(cfg)
        assert run_scenario(cfg, threads=2) == serial
        assert run_scenario(swapped) == serial

    def test_unset_resample_is_components(self):
        assert PipelineConfig(periods=(4,), resamples=8, seed=SeedSpec(0)).resample is Resample.COMPONENTS
        assert ScenarioConfig(p1=10, p2=25, snr=(1, 10)).resample is Resample.COMPONENTS
