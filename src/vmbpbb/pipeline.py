"""End-to-end resampling pipelines over multiple periodic components.

VMBPBB mode bandpass-filters one component series per period, bootstraps each
at its own period, and sums the per-resample periodic-mean trajectories into
an aggregate bootstrap. PBB mode is the unfiltered baseline: every component
bootstraps the original series, equivalent to substituting all-pass filters.

Resample selects whether the components (the paper's construction, the
default) or the whole input series are resampled.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bootstrap import MAX_RESAMPLES, CIBand, SeedSpec, _resample_blocks, bootstrap_phase_means, ci_band
# Unused here; kept importable from this module because bench/spans.py wraps it by this name.
from .bootstrap import bootstrap_periodic_means  # noqa: F401
from .errors import InsufficientResamplesError, InvalidPeriodError
from .filters import (FilterSpec, _kzft_values, check_window_fits, kzft_apply, reconstruct_component,
                      select_filter_specs)
from .series import TimeSeries, _phase_layout, _phase_means, as_integer, validate_periods

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

    filters holds VMBPBB's filter per period in period order, derived from
    periods and narrow_factor. The period rules, 2 <= resamples <=
    MAX_RESAMPLES and a SeedSpec seed are checked here, not in the kernels.
    """

    periods: tuple
    resamples: int
    seed: SeedSpec
    narrow_factor: float = 1.0
    mode: Mode = Mode.VMBPBB
    alpha: float = 0.05
    resample: Resample = Resample.COMPONENTS
    filters: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "periods", validate_periods(self.periods))
        object.__setattr__(self, "resamples", as_integer(self.resamples, "resamples"))
        if self.resamples < 2:
            raise InsufficientResamplesError("pipelines need at least 2 resamples")
        if self.resamples > MAX_RESAMPLES:
            raise ValueError(f"at most {MAX_RESAMPLES} resamples, got {self.resamples}")
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "resample", Resample(self.resample))
        if not isinstance(self.seed, SeedSpec):
            raise TypeError(f"seed must be a SeedSpec, got {type(self.seed).__name__}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        object.__setattr__(self, "filters", tuple(select_filter_specs(self.periods, self.narrow_factor)))


@dataclass(frozen=True, eq=False)
class ComponentResult:
    """One period's component: its filter (None = all-pass), series, bootstrap, band.

    estimates is the read-only (resamples, period) matrix of bootstrap phase
    means, and alpha the band's level.
    """

    period: int
    filter: FilterSpec | None
    component_series: TimeSeries
    estimates: np.ndarray
    alpha: float

    @functools.cached_property
    def band(self) -> CIBand:
        """The per-phase quantile band tiled out to the series length, built on first read.

        A paired repetition reads only the aggregate bands, so it builds none of these.
        """
        return _tiled_band(ci_band(self.estimates, self.alpha),
                           np.arange(self.component_series.n) % self.period)


@dataclass(frozen=True, eq=False)
class MpcResult:
    """Per-component results plus the aggregate band, whose point is the aggregate estimate."""

    components: tuple
    aggregate_band: CIBand
    mode: Mode


def _components(series: TimeSeries, specs) -> list[TimeSeries]:
    """One component per spec: the filtered series, or the series itself for None (all-pass).

    Components keep the series' length and start (RENORMALIZE edges), so
    their phases stay aligned for the aggregation step.
    """
    return [series if spec is None else reconstruct_component(kzft_apply(series, spec))
            for spec in specs]


def _check_grand_mean(series: TimeSeries) -> None:
    # mode_filters has checked n >= 2 * max(periods) >= 4, so the ddof=1 std is defined.
    # Scaling by a power of two is exact, so the test reads the same at any
    # magnitude, and the std's squares cannot overflow.
    values = np.ldexp(series.values, -np.frexp(np.abs(series.values).max())[1])
    se = float(np.std(values, ddof=1)) / math.sqrt(series.n)
    if abs(float(values.mean())) > 3.0 * se:
        warnings.warn(
            "input series has a grand mean more than 3 standard errors from zero; "
            "summing per-period bootstraps counts that mean once per component "
            "(unfiltered PBB mode double-counts it)",
            UserWarning,
            stacklevel=4,
        )


def mode_filters(cfg: PipelineConfig, n: int, modes) -> list:
    """Each mode's filters in period order (None = all-pass for PBB) on a length-n series.

    Holds every rule that ties the series length to a config: every phase of
    every period draws from at least two values (2 * max(periods) <= n), the
    whole-series draws of Resample.SERIES cover two cycles of lcm(periods),
    and each VMBPBB filter window fits inside the series.
    """
    longest = max(cfg.periods)
    if 2 * longest > n:
        raise InvalidPeriodError(
            f"period {longest} needs two cycles, {2 * longest} samples, but the series has {n}"
        )
    cycle = math.lcm(*cfg.periods)
    if cfg.resample is Resample.SERIES and 2 * cycle > n:
        raise InvalidPeriodError(
            f"whole-series resampling needs two cycles of lcm(periods) = {cycle}, "
            f"but the series has {n} samples"
        )
    if Mode.VMBPBB in modes:
        for p, spec in zip(cfg.periods, cfg.filters):
            check_window_fits(spec, n, f"the period-{p} filter")
    return [cfg.filters if mode is Mode.VMBPBB else (None,) * len(cfg.periods) for mode in modes]


def _component_estimates(comps: list, cfg: PipelineConfig) -> dict:
    """Per period, the read-only (B, p, k) phase means of the k modes' comps under Resample.COMPONENTS.

    Each period's components of all modes are resampled as one stack on
    sub-stream seed.child(p), so every mode takes the same draws. Keying by
    period (not list position) keeps results invariant to the period order.
    """
    return {p: bootstrap_phase_means(np.stack([comp.values for comp in period_comps]), p, cfg.resamples,
                                     cfg.seed.child(p))
            for p, *period_comps in zip(cfg.periods, *comps)}


def _series_estimates(series: TimeSeries, specs: list, cfg: PipelineConfig) -> dict:
    """Per period, the read-only (B, p, k) phase means of the k modes' specs under Resample.SERIES.

    Entry [b, :, i] holds the phase means of mode i's filter (None = all-pass)
    applied to draw b of the series at L = lcm(periods), made on sub-stream
    cfg.seed.child(0, b) (_resample_blocks). Each block of draws is gathered
    once and filtered by every mode, row by row, with the arithmetic of
    reconstruct_component(kzft_apply(draw, spec)).
    """
    counts = {p: _phase_layout(series.n, p)[1] for p in cfg.periods}
    estimates = {p: np.empty((cfg.resamples, p, len(specs))) for p in cfg.periods}
    for b, block in _resample_blocks(series.values[None], math.lcm(*cfg.periods), cfg.resamples,
                                     cfg.seed.child(_SERIES_STREAM)):
        draws = block[..., 0]
        for i, mode_specs in enumerate(specs):
            for p, spec in zip(cfg.periods, mode_specs):
                comps = draws if spec is None else np.array([2.0 * _kzft_values(row, spec).real for row in draws])
                _phase_means(comps, counts[p], estimates[p][b:b + len(draws), :, i])
    for est in estimates.values():
        est.setflags(write=False)
    return estimates


def _tiled_band(band: CIBand, index: np.ndarray) -> CIBand:
    """The band's columns taken at index (its cyclic extension for index = t mod cycle)."""
    return CIBand(lower=band.lower[index], point=band.point[index], upper=band.upper[index],
                  alpha=band.alpha)


def _run_modes(series: TimeSeries, cfg: PipelineConfig, modes) -> dict:
    """Run every mode in modes on one series with shared draws; modes[i] is entry i of each mode axis."""
    specs = mode_filters(cfg, series.n, modes)
    comps = [_components(series, mode_specs) for mode_specs in specs]
    estimates = (_series_estimates(series, specs, cfg) if cfg.resample is Resample.SERIES
                 else _component_estimates(comps, cfg))

    # Each period's estimates are (B, p, k); the trajectories are (k, B, cycle).
    # Every trajectory repeats with period lcm(periods), so the aggregate is
    # computed on its first L distinct columns and tiled out to n. Summing in
    # ascending-period order keeps the aggregate bit-identical under any
    # permutation of cfg.periods. Whole cycles of p add through a 4-D view.
    cycle = min(math.lcm(*cfg.periods), series.n)
    trajectories = np.zeros((len(modes), cfg.resamples, cycle))
    for p in sorted(cfg.periods):
        est, whole = estimates[p].transpose(2, 0, 1), cycle - cycle % p
        folded = trajectories[..., :whole].reshape(*est.shape[:2], -1, p)
        folded += est[:, :, None]
        trajectories[..., whole:] += est[..., :cycle - whole]
    tile = np.arange(series.n) % cycle
    results = {}
    for i, mode in enumerate(modes):
        components = tuple(ComponentResult(period=p, filter=spec, component_series=comp,
                                           estimates=estimates[p][..., i], alpha=cfg.alpha)
                           for p, spec, comp in zip(cfg.periods, specs[i], comps[i]))
        band = _tiled_band(ci_band(trajectories[i], cfg.alpha), tile)
        results[mode] = MpcResult(components=components, aggregate_band=band, mode=mode)
    # Only a run that completes warns, so a failed run reports its error alone.
    _check_grand_mean(series)
    return results


def run_pipeline(series: TimeSeries, cfg: PipelineConfig) -> MpcResult:
    """Run the configured bootstrap pipeline and aggregate component results.

    Under Resample.COMPONENTS (default), each component with period p is
    bootstrapped at block period p on the sub-stream keyed by p. Under
    Resample.SERIES, every resample b draws the input series once at
    lcm(periods) on sub-stream seed.child(0, b) and filters that draw per
    component. Either way, the per-component band is the cyclic extension of
    the per-phase quantile band; per resample b, the aggregate trajectory sums
    the component phase means cyclically, and the aggregate band, point
    included, comes from those B trajectories. The series length must meet
    the rules of mode_filters.
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
