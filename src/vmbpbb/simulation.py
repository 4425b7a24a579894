"""Two-sine scenario generation and the paired PBB-vs-VMBPBB comparison study.

Each repetition generates sin(2*pi*t/p1) + sin(2*pi*t/p2) plus Gaussian noise
scaled to the requested signal-to-noise ratio, then runs both pipelines on the
same series with the same resampling streams, so every metric difference is
attributable to the bandpass step alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .bootstrap import CIBand, SeedSpec
from .csvio import read_rows
from .errors import CsvFormatError, DegenerateBandError, InvalidPeriodError, UndefinedCorrelationError
from .pipeline import Mode, PipelineConfig, Resample, mode_filters, run_paired
# Unused here; kept importable from this module because bench/spans.py wraps it by this name.
from .pipeline import run_pipeline  # noqa: F401
from .series import TimeSeries, validate_periods

# Stream labels under each repetition's sub-seed.
_NOISE_STREAM = 0
_BOOT_STREAM = 1

# Component amplitude is fixed at one unit, so total signal power is
# len(components) * 1/2.
_AMPLITUDE = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: a period pair, an SNR, and run sizes.

    resample is passed to both pipelines of every repetition (see
    pipeline.Resample): COMPONENTS, the default, is the paper's construction;
    SERIES resamples the whole simulated series at lcm(p1, p2). Both modes'
    pipelines are checked against n here (pipeline.mode_filters), and an
    error from that check names the cell.
    """

    p1: int
    p2: int
    snr: tuple
    n: int = 1000
    resamples: int = 200
    reps: int = 50
    seed: SeedSpec = SeedSpec(0)
    narrow_factor: float = 1.0
    resample: Resample = Resample.COMPONENTS

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "snr", (float(self.snr[0]), float(self.snr[1])))
        signal, noise = self.snr
        if signal <= 0.0 or noise < 0.0:
            raise ValueError("snr parts must be positive (noise part may be 0 for noiseless tests)")
        if self.reps < 1:
            raise ValueError("need at least one repetition")
        try:
            mode_filters(self.pipeline(self.seed), self.n, tuple(Mode))
        except ValueError as exc:
            raise type(exc)(f"cell ({self.p1}, {self.p2}) at snr {signal:g}:{noise:g}: {exc}") from None

    def pipeline(self, seed: SeedSpec) -> PipelineConfig:
        """The config both pipelines of a repetition run under, drawing from seed."""
        return PipelineConfig(
            periods=(self.p1, self.p2),
            resamples=self.resamples,
            seed=seed,
            narrow_factor=self.narrow_factor,
            resample=self.resample,
        )


@dataclass(frozen=True, eq=False)
class TrueSignals:
    """The noiseless generating components and their sum."""

    comp1: TimeSeries
    comp2: TimeSeries
    mpc: TimeSeries
    noise_sigma: float


@dataclass(frozen=True)
class ScenarioMetrics:
    """One table cell: CI-size ratio, correlation metrics, coverage."""

    ci_ratio_median: float
    r2_vmbpbb: float
    r2_pbb: float
    r2_diff: float
    outside_frac_vmbpbb: float
    outside_frac_pbb: float
    reps_completed: int


@dataclass(frozen=True)
class RepRecord:
    """Per-repetition metric row, the unit the study aggregates over."""

    rep: int
    ci_ratio: float
    outside_pbb: float
    outside_vmbpbb: float
    r2_pbb: float
    r2_vmbpbb: float


@dataclass(frozen=True)
class GridCell:
    """One scenario's place in the grid, its aggregated metrics and its per-rep records."""

    p1: int
    p2: int
    snr: tuple
    narrow_factor: float
    metrics: ScenarioMetrics
    records: tuple

    @property
    def narrowed(self) -> bool:
        """Whether the cell ran with a narrowed window design (narrow_factor > 1)."""
        return self.narrow_factor > 1.0


def generate_mpc(cfg: ScenarioConfig, rng: np.random.Generator):
    """Build one simulated series: two unit sines plus scaled Gaussian noise.

    Noise variance is (noise_part / signal_part) times the total signal power
    sum(amplitude^2 / 2); a zero noise part yields the exact noiseless sum.
    """
    t = np.arange(cfg.n)
    comp1 = TimeSeries(_AMPLITUDE * np.sin(2.0 * np.pi * t / cfg.p1))
    comp2 = TimeSeries(_AMPLITUDE * np.sin(2.0 * np.pi * t / cfg.p2))
    signal_power = 2.0 * _AMPLITUDE**2 / 2.0
    signal, noise = cfg.snr
    sigma = math.sqrt((noise / signal) * signal_power)
    mpc = TimeSeries(comp1.values + comp2.values)
    if sigma == 0.0:
        series = TimeSeries(mpc.values.copy())
    else:
        series = TimeSeries(mpc.values + rng.normal(0.0, sigma, cfg.n))
    return series, TrueSignals(comp1=comp1, comp2=comp2, mpc=mpc, noise_sigma=sigma)


def ci_ratio(band_pbb: CIBand, band_vm: CIBand) -> float:
    """Median over time of the PBB-to-VMBPBB band width ratio."""
    if band_pbb.n != band_vm.n:
        raise ValueError("bands must have equal length")
    widths_vm = band_vm.width
    if np.any(widths_vm == 0.0):
        raise DegenerateBandError("reference band has zero width at some time point")
    return float(np.median(band_pbb.width / widths_vm))


def _squared_correlation_percent(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        raise UndefinedCorrelationError("correlation undefined for zero-variance input")
    cov = float(da @ db)
    return 100.0 * (cov * cov) / (va * vb)


def outside_fraction(band: CIBand, truth: TimeSeries) -> float:
    """Fraction of time points where the true value escapes the band."""
    if band.n != truth.n:
        raise ValueError("band and truth must share one length")
    outside = (truth.values < band.lower) | (truth.values > band.upper)
    return float(outside.mean())


def _run_repetition(cfg: ScenarioConfig, rep: int) -> RepRecord:
    rep_seed = cfg.seed.child(rep)
    series, truth = generate_mpc(cfg, rep_seed.child(_NOISE_STREAM).generator())
    results = run_paired(series, cfg.pipeline(rep_seed.child(_BOOT_STREAM)))
    pbb, vm = results[Mode.PBB], results[Mode.VMBPBB]
    return RepRecord(
        rep=rep,
        ci_ratio=ci_ratio(pbb.aggregate_band, vm.aggregate_band),
        outside_pbb=outside_fraction(pbb.aggregate_band, truth.mpc),
        outside_vmbpbb=outside_fraction(vm.aggregate_band, truth.mpc),
        r2_pbb=_squared_correlation_percent(pbb.aggregate_band.point, truth.mpc.values),
        r2_vmbpbb=_squared_correlation_percent(vm.aggregate_band.point, truth.mpc.values),
    )


def _aggregate_records(records) -> ScenarioMetrics:
    r2_vm = float(np.median([r.r2_vmbpbb for r in records]))
    r2_pbb = float(np.median([r.r2_pbb for r in records]))
    return ScenarioMetrics(
        ci_ratio_median=float(np.median([r.ci_ratio for r in records])),
        r2_vmbpbb=r2_vm,
        r2_pbb=r2_pbb,
        r2_diff=r2_vm - r2_pbb,
        outside_frac_vmbpbb=float(np.median([r.outside_vmbpbb for r in records])),
        outside_frac_pbb=float(np.median([r.outside_pbb for r in records])),
        reps_completed=len(records),
    )


def run_scenario_detail(cfg: ScenarioConfig, threads: int = 1):
    """Run every repetition of a scenario; returns (metrics, per-rep records).

    Repetition r derives all of its randomness from cfg.seed.child(r), so the
    result is identical for any thread count and any execution order. Both
    pipelines in a repetition share their resampling draws, making the
    comparison a paired design: under Resample.COMPONENTS they share the
    sub-streams keyed by period, so the PBB and VMBPBB components of one
    period take the same index draws; under Resample.SERIES they share the
    whole-series draws, which each mode then filters its own way.
    """
    reps = range(cfg.reps)
    # A pool forks all of its workers at once, so it gets no more than one per repetition.
    workers = min(threads, cfg.reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_repetition, [cfg] * cfg.reps, reps))
    else:
        records = [_run_repetition(cfg, r) for r in reps]
    return _aggregate_records(records), records


def _scenario_label(p1: int, p2: int, snr) -> tuple:
    lo, hi = sorted((p1, p2))
    # Noise-to-signal ratio keyed in thousandths keeps labels integral.
    return (lo, hi, int(round(1000.0 * snr[1] / snr[0])))


def _auto_narrow(p1: int, p2: int, snr) -> bool:
    ratio = snr[1] / snr[0]
    close_pair = {p1, p2} == {10, 25}
    return close_pair and (math.isclose(ratio, 2.0) or math.isclose(ratio, 5.0))


def run_grid(periods, snrs, *, n: int = 1000, resamples: int = 200, reps: int = 50,
             seed: SeedSpec = SeedSpec(0), narrow_factor: float = 1.0,
             paper_faithful: bool = True, threads: int = 1,
             resample: Resample = Resample.COMPONENTS) -> list[GridCell]:
    """Run one scenario per unordered period pair per SNR; each cell keeps its records.

    resample is passed to every cell's ScenarioConfig (see pipeline.Resample).

    With paper_faithful set, the {10, 25} pairs at noise ratios 2 and 5 use a
    doubled window design (narrow_factor = 2). A cell counts as narrowed when
    its narrow_factor exceeds 1, whichever way it got there. Scenario seeds
    are keyed by (low period, high period, snr), so extending the grid never
    perturbs existing cells.
    """
    periods = validate_periods(periods)
    if len(periods) < 2:
        raise InvalidPeriodError("a grid needs at least two periods")
    if not snrs:
        raise ValueError("a grid needs at least one snr")
    # Every cell's config is built (and so validated) before any cell runs.
    plan = []
    for snr in snrs:
        snr = (float(snr[0]), float(snr[1]))
        for p1, p2 in combinations(sorted(periods), 2):
            nf = 2.0 if paper_faithful and _auto_narrow(p1, p2, snr) else narrow_factor
            plan.append(ScenarioConfig(
                p1=p1, p2=p2, snr=snr, n=n, resamples=resamples, reps=reps,
                seed=seed.child(*_scenario_label(p1, p2, snr)), narrow_factor=nf,
                resample=resample,
            ))
    cells = []
    for cfg in plan:
        metrics, records = run_scenario_detail(cfg, threads)
        cells.append(GridCell(
            p1=cfg.p1, p2=cfg.p2, snr=cfg.snr, narrow_factor=cfg.narrow_factor,
            metrics=metrics, records=tuple(records),
        ))
    return cells


# Per-repetition log (reps.csv): one row per record, cells in grid order; the
# cell's grid coordinates, then the RepRecord fields by name.
REPS_HEADER = [
    "snr_signal", "snr_noise", "p1", "p2", "narrow_factor",
    "rep", "ci_ratio", "outside_pbb", "outside_vmbpbb", "r2_pbb", "r2_vmbpbb",
]


def rep_columns(cells):
    """The reps.csv columns of the cells' records, one row per repetition."""
    pairs = [(cell, rec) for cell in cells for rec in cell.records]
    return [
        [cell.snr[0] for cell, _ in pairs],
        [cell.snr[1] for cell, _ in pairs],
        [cell.p1 for cell, _ in pairs],
        [cell.p2 for cell, _ in pairs],
        [cell.narrow_factor for cell, _ in pairs],
    ] + [[getattr(rec, name) for _, rec in pairs] for name in REPS_HEADER[5:]]


def read_rep_log(path) -> list[GridCell]:
    """Rebuild the grid cells, metrics included, from a reps.csv log."""
    name = Path(path).name
    cells = {}
    for lineno, row in read_rows(path, REPS_HEADER):
        try:
            key = ((float(row[0]), float(row[1])), int(row[2]), int(row[3]), float(row[4]))
            rec = RepRecord(
                rep=int(row[5]), ci_ratio=float(row[6]), outside_pbb=float(row[7]),
                outside_vmbpbb=float(row[8]), r2_pbb=float(row[9]), r2_vmbpbb=float(row[10]),
            )
        except ValueError as exc:
            raise CsvFormatError(f"{name} line {lineno}: {exc}") from exc
        cells.setdefault(key, []).append(rec)
    return [
        GridCell(p1=p1, p2=p2, snr=snr, narrow_factor=nf,
                 metrics=_aggregate_records(records), records=tuple(records))
        for (snr, p1, p2, nf), records in cells.items()
    ]
