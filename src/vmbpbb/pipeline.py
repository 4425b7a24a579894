"""End-to-end resampling pipelines over multiple periodic components.

VMBPBB mode bandpass-filters one component series per period, bootstraps each
at its own period, and sums the per-resample periodic-mean trajectories into
an aggregate bootstrap. PBB mode is the unfiltered baseline: every component
bootstraps the original series, equivalent to substituting all-pass filters.

Resample selects whether the components (the paper's construction, the
default) or the whole input series are resampled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bootstrap import BootstrapRun, CIBand, SeedSpec, bootstrap_phase_means, ci_band, resample_indices
# Unused here; kept importable from this module because bench/spans.py wraps it by this name.
from .bootstrap import bootstrap_periodic_means  # noqa: F401
from .errors import InsufficientResamplesError, InvalidPeriodError
from .filters import EdgePolicy, FilterSpec, kzft_apply, reconstruct_component, select_filter_specs
from .series import TimeSeries, periodic_mean

# Stream label of the whole-series draws under the pipeline seed. Periods are
# >= 2, so no component sub-stream seed.child(p) can take it.
_SERIES_STREAM = 0


class Mode(Enum):
    VMBPBB = "vmbpbb"
    PBB = "pbb"


class Resample(Enum):
    """What each bootstrap resample draws.

    COMPONENTS: every period's component series (filtered under VMBPBB, the
    input under PBB) is resampled at its own period on sub-stream
    seed.child(p), independently across periods. This is the paper's
    construction and the default.
    SERIES: resample b draws the input series once at L = lcm(periods) on
    sub-stream seed.child(0, b); the draw then goes through the mode's
    filters, per-period phase means and aggregation, so the band also sees
    the covariance between components and the correlation the filters add.
    """

    COMPONENTS = "components"
    SERIES = "series"


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run depends on besides the input series.

    resample selects the bootstrap construction (see Resample). Two runs that
    differ only in mode share their draws under either construction: the
    per-period sub-streams seed.child(p) under COMPONENTS, the whole-series
    draws seed.child(0, b) under SERIES.
    """

    periods: tuple
    resamples: int
    seed: SeedSpec
    narrow_factor: float = 1.0
    edge: EdgePolicy = EdgePolicy.RENORMALIZE
    mode: Mode = Mode.VMBPBB
    alpha: float = 0.05
    resample: Resample = Resample.COMPONENTS

    def __post_init__(self):
        periods = tuple(int(p) for p in self.periods)
        if not periods:
            raise InvalidPeriodError("at least one period is required")
        if any(p < 2 for p in periods):
            raise InvalidPeriodError("periods must be integers >= 2")
        if len(set(periods)) != len(periods):
            raise InvalidPeriodError("periods must be distinct")
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "resamples", int(self.resamples))
        object.__setattr__(self, "resample", Resample(self.resample))
        if self.resamples < 2:
            raise InsufficientResamplesError("pipelines need at least 2 resamples")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        # TRUNCATE would shift and shorten components, breaking the phase
        # alignment the aggregation step relies on.
        if self.edge is not EdgePolicy.RENORMALIZE:
            raise ValueError("pipelines require the full-length RENORMALIZE edge policy")


@dataclass(frozen=True, eq=False)
class ComponentResult:
    """One period's component: its filter (None = all-pass), series, bootstrap, band."""

    period: int
    filter: FilterSpec | None
    component_series: TimeSeries
    run: BootstrapRun
    band: CIBand


@dataclass(frozen=True, eq=False)
class MpcResult:
    """Per-component results plus the aggregate point estimate and band."""

    components: tuple
    aggregate_point: TimeSeries
    aggregate_band: CIBand
    mode: Mode


def component_seed(seed: SeedSpec, component_label: int) -> SeedSpec:
    """Sub-stream for one component, keyed by its period value.

    Keying by period (not list position) makes results invariant to the order
    periods are listed in.
    """
    return seed.child(int(component_label))


def decompose(series: TimeSeries, periods, narrow_factor: float = 1.0,
              edge: EdgePolicy = EdgePolicy.RENORMALIZE) -> list[TimeSeries]:
    """Split a series into one bandpass-filtered component per period."""
    return _components(series, select_filter_specs(periods, narrow_factor), edge)


def _components(series: TimeSeries, specs, edge: EdgePolicy) -> list[TimeSeries]:
    """One component per spec: the filtered series, or the series itself for None (all-pass)."""
    return [series if spec is None else reconstruct_component(kzft_apply(series, spec, edge))
            for spec in specs]


def _check_grand_mean(series: TimeSeries) -> None:
    if series.n < 2:
        return
    std = float(np.std(series.values, ddof=1))
    if std == 0.0:
        se = 0.0
    else:
        se = std / math.sqrt(series.n)
    if abs(float(series.values.mean())) > 3.0 * se:
        warnings.warn(
            "input series has a grand mean more than 3 standard errors from zero; "
            "summing per-period bootstraps counts that mean once per component "
            "(unfiltered PBB mode double-counts it)",
            UserWarning,
            stacklevel=4,
        )


def _series_cycle(periods, n: int) -> int:
    """Block period L = lcm(periods) of whole-series resampling; needs 2 * L <= n."""
    cycle = math.lcm(*periods)
    if 2 * cycle > n:
        raise InvalidPeriodError(
            f"whole-series resampling needs two cycles of lcm(periods) = {cycle}, "
            f"but the series has {n} samples"
        )
    return cycle


def _mode_specs(mode: Mode, cfg: PipelineConfig) -> list:
    """Each period's filter under a mode: the designed KZFT, or None (all-pass) for PBB."""
    if mode is Mode.VMBPBB:
        return select_filter_specs(cfg.periods, cfg.narrow_factor)
    return [None] * len(cfg.periods)


def _component_estimates(comps: dict, cfg: PipelineConfig) -> dict:
    """Per mode and period, the (B, p) phase means under Resample.COMPONENTS.

    Each period's components of all modes are resampled as one stack on
    sub-stream seed.child(p), so every mode takes the same draws.
    """
    estimates = {mode: {} for mode in comps}
    for i, p in enumerate(cfg.periods):
        stack = np.stack([comps[mode][i].values for mode in comps])
        rows = bootstrap_phase_means(stack, p, cfg.resamples, component_seed(cfg.seed, p))
        for mode, est in zip(comps, rows):
            estimates[mode][p] = est
    return estimates


def _series_estimates(series: TimeSeries, specs: dict, cfg: PipelineConfig) -> dict:
    """Per mode and period, the (B, p) phase means under Resample.SERIES.

    Row b holds the phase means of the mode's filter (specs entry; None =
    all-pass) applied to one draw, pbb_resample(series, L, rng_b), with
    L = lcm(periods) and rng_b = cfg.seed.child(0, b).generator(). Each draw
    is made once and filtered by every mode.
    """
    cycle = _series_cycle(cfg.periods, series.n)
    estimates = {mode: {p: np.empty((cfg.resamples, p)) for p in cfg.periods} for mode in specs}
    draws = resample_indices(series.n, cycle, cfg.resamples, cfg.seed.child(_SERIES_STREAM))
    for b, index in enumerate(draws):
        draw = TimeSeries(series.values[index], series.start_index)
        for mode, mode_specs in specs.items():
            for p, comp in zip(cfg.periods, _components(draw, mode_specs, cfg.edge)):
                estimates[mode][p][b] = periodic_mean(comp, p).means
    return estimates


def _tiled_band(band: CIBand, index: np.ndarray) -> CIBand:
    """The band's columns taken at index (its cyclic extension for index = t mod cycle)."""
    return CIBand(lower=band.lower[index], point=band.point[index], upper=band.upper[index],
                  alpha=band.alpha)


def _run_modes(series: TimeSeries, cfg: PipelineConfig, modes) -> dict:
    """Run the pipeline of every mode in modes on one series with shared draws."""
    n = series.n
    if max(cfg.periods) > n:
        raise InvalidPeriodError(f"period {max(cfg.periods)} exceeds series length {n}")
    _check_grand_mean(series)

    specs = {mode: _mode_specs(mode, cfg) for mode in modes}
    comps = {mode: _components(series, specs[mode], cfg.edge) for mode in modes}
    if cfg.resample is Resample.SERIES:
        estimates = _series_estimates(series, specs, cfg)
        seeds = dict.fromkeys(cfg.periods, cfg.seed.child(_SERIES_STREAM))
    else:
        estimates = _component_estimates(comps, cfg)
        seeds = {p: component_seed(cfg.seed, p) for p in cfg.periods}

    # Every trajectory repeats with period lcm(periods), so the aggregate is
    # computed on its first L distinct columns and tiled out to n.
    cycle = min(math.lcm(*cfg.periods), n)
    tile = np.arange(n) % cycle
    results = {}
    for mode in modes:
        components = []
        for p, spec, comp in zip(cfg.periods, specs[mode], comps[mode]):
            run = BootstrapRun(period=p, resamples=cfg.resamples, estimates=estimates[mode][p],
                               seed=seeds[p])
            components.append(ComponentResult(
                period=p, filter=spec, component_series=comp, run=run,
                band=_tiled_band(ci_band(run.estimates, cfg.alpha), np.arange(n) % p),
            ))
        # Summing in ascending-period order keeps the aggregate bit-identical
        # under any permutation of cfg.periods.
        trajectories = np.zeros((cfg.resamples, cycle))
        for p in sorted(cfg.periods):
            trajectories += estimates[mode][p][:, np.arange(cycle) % p]
        aggregate_band = _tiled_band(ci_band(trajectories, cfg.alpha), tile)
        results[mode] = MpcResult(
            components=tuple(components),
            aggregate_point=TimeSeries(aggregate_band.point, series.start_index),
            aggregate_band=aggregate_band,
            mode=mode,
        )
    return results


def run_pipeline(series: TimeSeries, cfg: PipelineConfig) -> MpcResult:
    """Run the configured bootstrap pipeline and aggregate component results.

    Under Resample.COMPONENTS (default), each component with period p is
    bootstrapped at block period p on the sub-stream keyed by p. Under
    Resample.SERIES, every resample b draws the input series once at
    lcm(periods) on sub-stream seed.child(0, b) and filters that draw per
    component; this needs 2 * lcm(periods) <= n. Either way, the
    per-component band is the cyclic extension of the per-phase quantile band;
    per resample b, the aggregate trajectory sums the component phase means
    cyclically, and the aggregate band/point come from those B trajectories.
    """
    return _run_modes(series, cfg, (cfg.mode,))[cfg.mode]


def run_paired(series: TimeSeries, cfg: PipelineConfig) -> dict:
    """Run PBB and VMBPBB on one series in one pass; returns {Mode: MpcResult}.

    Both modes take the same draws: each index vector is drawn once and
    applied to both modes' components (COMPONENTS) or filtered by both modes
    (SERIES). Each result equals run_pipeline with cfg.mode set to its mode;
    cfg.mode itself is not read.
    """
    return _run_modes(series, cfg, (Mode.PBB, Mode.VMBPBB))
