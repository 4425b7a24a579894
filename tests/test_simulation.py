import numpy as np
import pytest

from vmbpbb import (
    CIBand,
    ScenarioConfig,
    SeedSpec,
    TimeSeries,
    bootstrap_periodic_means,
    ci_ratio,
    generate_mpc,
    outside_fraction,
    run_grid,
    run_scenario_detail,
)
from vmbpbb.errors import (
    DegenerateBandError,
    InsufficientResamplesError,
    InvalidFilterError,
    InvalidPeriodError,
    UndefinedCorrelationError,
)
from vmbpbb.simulation import _squared_correlation_percent


def small_cfg(**overrides):
    base = dict(p1=10, p2=25, snr=(1, 2), n=200, resamples=20, reps=4, seed=SeedSpec(42))
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_rejects_equal_periods(self):
        with pytest.raises(InvalidPeriodError):
            small_cfg(p1=25, p2=25)

    def test_rejects_single_resample(self):
        with pytest.raises(InsufficientResamplesError):
            small_cfg(resamples=1)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            small_cfg(n=49, p1=10, p2=25)

    def test_rejects_filter_window_wider_than_series(self):
        # Doubled, the (25, 50) window is the smallest odd m > 2 * 2 / (1/25 - 1/50) = 200.
        with pytest.raises(InvalidFilterError, match=r"cell \(25, 50\).*m=201.*n=120"):
            small_cfg(p1=25, p2=50, n=120, narrow_factor=2.0)
        assert small_cfg(p1=25, p2=50, n=201, narrow_factor=2.0).n == 201

    def test_rejects_bad_snr(self):
        with pytest.raises(ValueError):
            small_cfg(snr=(0, 2))
        with pytest.raises(ValueError):
            small_cfg(snr=(1, -1))


class TestGenerateMpc:
    def test_noiseless_path_is_exact(self):
        cfg = small_cfg(snr=(1, 0))
        series, truth = generate_mpc(cfg, cfg.seed.generator())
        np.testing.assert_array_equal(series.values, truth.mpc.values)
        np.testing.assert_array_equal(truth.mpc.values, truth.comp1.values + truth.comp2.values)
        assert truth.noise_sigma == 0.0

    def test_component_periodicity(self):
        cfg = small_cfg(p1=50, p2=100, n=1000)
        _, truth = generate_mpc(cfg, cfg.seed.generator())
        np.testing.assert_allclose(truth.comp1.values[:-50], truth.comp1.values[50:], atol=1e-12)

    def test_noise_variance_matches_snr(self):
        cfg = small_cfg(p1=50, p2=100, n=100_000, snr=(1, 10))
        series, truth = generate_mpc(cfg, SeedSpec(4).generator())
        noise = series.values - truth.mpc.values
        assert truth.noise_sigma**2 == pytest.approx(10.0)
        assert noise.var() == pytest.approx(10.0, rel=0.05)

    def test_unit_amplitude(self):
        # RMS of a unit sine sampled over whole cycles is exactly sqrt(1/2)
        cfg = small_cfg(p1=50, p2=100, n=1000)
        _, truth = generate_mpc(cfg, cfg.seed.generator())
        rms = np.sqrt(np.mean(truth.comp1.values**2))
        assert rms == pytest.approx(np.sqrt(0.5), rel=1e-12)


class TestCiRatio:
    def test_identical_bands(self):
        band = CIBand(lower=np.zeros(5), point=np.ones(5), upper=np.full(5, 2.0))
        assert ci_ratio(band, band) == 1.0

    def test_uniform_scaling(self):
        narrow = CIBand(lower=np.zeros(5), point=np.ones(5), upper=np.full(5, 2.0))
        wide = CIBand(lower=np.full(5, -2.0), point=np.ones(5), upper=np.full(5, 4.0))
        assert ci_ratio(wide, narrow) == 3.0

    def test_degenerate_reference(self):
        flat = CIBand(lower=np.ones(3), point=np.ones(3), upper=np.ones(3))
        wide = CIBand(lower=np.zeros(3), point=np.ones(3), upper=np.full(3, 2.0))
        with pytest.raises(DegenerateBandError):
            ci_ratio(wide, flat)


class TestR2AgainstTruth:
    """The per-repetition r2 of a point estimate against the true signal."""

    def test_exact_truth(self):
        truth = np.sin(np.linspace(0, 6, 50))
        assert _squared_correlation_percent(truth, truth) == pytest.approx(100.0)

    def test_affine_invariance(self):
        truth = np.sin(np.linspace(0, 6, 50))
        assert _squared_correlation_percent(3.0 * truth + 2.0, truth) == pytest.approx(100.0)

    def test_zero_variance(self):
        truth = np.sin(np.linspace(0, 6, 50))
        with pytest.raises(UndefinedCorrelationError):
            _squared_correlation_percent(np.ones(50), truth)


class TestOutsideFraction:
    def test_contained(self):
        truth = TimeSeries(np.zeros(10))
        band = CIBand(lower=np.full(10, -1.0), point=np.zeros(10), upper=np.ones(10))
        assert outside_fraction(band, truth) == 0.0

    def test_fully_outside(self):
        truth = TimeSeries(np.full(10, 5.0))
        band = CIBand(lower=np.full(10, -1.0), point=np.zeros(10), upper=np.ones(10))
        assert outside_fraction(band, truth) == 1.0

    def test_partial(self):
        truth = TimeSeries(np.array([0.0, 5.0, 0.0, -5.0]))
        band = CIBand(lower=np.full(4, -1.0), point=np.zeros(4), upper=np.ones(4))
        assert outside_fraction(band, truth) == 0.5


class TestRunScenario:
    def test_deterministic(self):
        cfg = small_cfg()
        assert run_scenario_detail(cfg)[0] == run_scenario_detail(cfg)[0]

    def test_swap_periods_identical(self):
        a = run_scenario_detail(small_cfg(p1=10, p2=25))[0]
        b = run_scenario_detail(small_cfg(p1=25, p2=10))[0]
        assert a == b

    def test_thread_count_invariance(self):
        cfg = small_cfg(reps=6)
        assert run_scenario_detail(cfg, threads=1)[0] == run_scenario_detail(cfg, threads=2)[0]

    @pytest.mark.parametrize("threads,reps,pools", [
        (16, 2, [2]),
        (4, 1, []),
        (2, 3, [2]),
    ], ids=["capped-at-reps", "one-rep-runs-serially", "fewer-threads-than-reps"])
    def test_pool_gets_at_most_one_worker_per_repetition(self, monkeypatch, threads, reps, pools):
        # A stand-in pool records its size and maps serially, so no process starts.
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("vmbpbb.simulation.ProcessPoolExecutor", SerialPool)
        cfg = small_cfg(reps=reps)
        assert run_scenario_detail(cfg, threads=threads) == run_scenario_detail(cfg, threads=1)
        assert started == pools

    def test_noiseless_single_rep_tracks_truth(self):
        cfg = ScenarioConfig(p1=50, p2=100, snr=(1, 0), n=1000, resamples=20, reps=1, seed=SeedSpec(1))
        _, records = run_scenario_detail(cfg)
        assert len(records) == 1
        # re-derive the vmbpbb point to compare against truth on the interior
        from vmbpbb import PipelineConfig, run_pipeline
        from vmbpbb.simulation import _BOOT_STREAM, _NOISE_STREAM

        rep_seed = cfg.seed.child(0)
        series, truth = generate_mpc(cfg, rep_seed.child(_NOISE_STREAM).generator())
        vm = run_pipeline(series, PipelineConfig(periods=(50, 100), resamples=20, seed=rep_seed.child(_BOOT_STREAM)))
        interior = slice(100, 900)
        rms = np.sqrt(np.mean((vm.aggregate_band.point[interior] - truth.mpc.values[interior]) ** 2))
        assert rms <= 0.1

    def test_paired_streams_shared_across_modes(self):
        # identical sub-streams mean a 2x input yields exactly 2x estimates
        series = TimeSeries(np.arange(40.0))
        doubled = TimeSeries(2.0 * series.values)
        seed = SeedSpec(3).child(50)
        run_a = bootstrap_periodic_means(series, 4, 12, seed)
        run_b = bootstrap_periodic_means(doubled, 4, 12, seed)
        np.testing.assert_array_equal(2.0 * run_a, run_b)

    def test_metrics_invariants(self):
        metrics, records = run_scenario_detail(small_cfg(reps=5))
        assert metrics.reps_completed == 5
        assert metrics.r2_diff == metrics.r2_vmbpbb - metrics.r2_pbb
        assert 0.0 <= metrics.outside_frac_pbb <= 1.0
        assert 0.0 <= metrics.outside_frac_vmbpbb <= 1.0
        assert len(records) == 5


class TestRunGrid:
    def test_cell_count_and_shape(self):
        cells = run_grid([10, 25, 50], [(1, 2), (1, 5)], n=200, resamples=10, reps=2, seed=SeedSpec(6))
        assert len(cells) == 3 * 2
        assert {(c.p1, c.p2) for c in cells} == {(10, 25), (10, 50), (25, 50)}

    def test_pairs_are_unordered(self):
        cells = run_grid([25, 10], [(1, 2)], n=200, resamples=10, reps=2, seed=SeedSpec(6))
        assert (cells[0].p1, cells[0].p2) == (10, 25)

    def test_auto_narrow_rule(self):
        cells = run_grid([10, 25], [(1, 2), (1, 5), (1, 10)], n=200, resamples=10, reps=2,
                         seed=SeedSpec(6), paper_faithful=True)
        flags = {tuple(c.snr): (c.narrowed, c.narrow_factor) for c in cells}
        assert flags[(1.0, 2.0)] == (True, 2.0)
        assert flags[(1.0, 5.0)] == (True, 2.0)
        assert flags[(1.0, 10.0)] == (False, 1.0)

    def test_no_auto_narrow_when_disabled(self):
        cells = run_grid([10, 25], [(1, 2)], n=200, resamples=10, reps=2,
                         seed=SeedSpec(6), paper_faithful=False)
        assert cells[0].narrowed is False
        assert cells[0].narrow_factor == 1.0

    def test_adding_scenarios_preserves_existing_cells(self):
        small = run_grid([10, 25], [(1, 2)], n=200, resamples=10, reps=3, seed=SeedSpec(6))
        larger = run_grid([10, 25, 40], [(1, 2)], n=200, resamples=10, reps=3, seed=SeedSpec(6))
        match = next(c for c in larger if (c.p1, c.p2) == (10, 25))
        assert match.metrics == small[0].metrics

    def test_needs_two_periods(self):
        with pytest.raises(InvalidPeriodError):
            run_grid([10], [(1, 2)], n=100, resamples=10, reps=2, seed=SeedSpec(6))

    def test_needs_one_snr(self):
        with pytest.raises(ValueError):
            run_grid([10, 25], [], n=100, resamples=10, reps=2, seed=SeedSpec(6))

    def test_checks_every_filter_window_before_running(self, monkeypatch):
        ran = []
        monkeypatch.setattr("vmbpbb.simulation.run_scenario_detail", lambda cfg, threads: ran.append(cfg))
        with pytest.raises(InvalidFilterError, match=r"cell \(25, 50\)"):
            run_grid([10, 25, 50], [(1, 2)], n=120, narrow_factor=2.0, seed=SeedSpec(1))
        assert ran == []

    def test_narrowed_follows_narrow_factor(self):
        # A configured narrow_factor > 1 flags every cell, not only the
        # paper-faithful ones. n = 201 fits the doubled (25, 50) window, m = 201.
        cells = run_grid([10, 25, 50], [(1, 2)], n=201, resamples=4, reps=1, seed=SeedSpec(6),
                         narrow_factor=2.0)
        assert [(c.narrow_factor, c.narrowed) for c in cells] == [(2.0, True)] * 3
