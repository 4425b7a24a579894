"""Two-sine scenario generation and the paired PBB-vs-VMBPBB comparison study.

Each repetition generates sin(2*pi*t/p1) + sin(2*pi*t/p2) plus Gaussian noise
scaled to the requested signal-to-noise ratio, then runs both pipelines on the
same series with the same resampling streams, so every metric difference is
attributable to the bandpass step alone.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import astuple, dataclass, fields
from itertools import combinations
from numbers import Real
from operator import attrgetter
from pathlib import Path

import numpy as np

from .bootstrap import CIBand, SeedSpec
from .csvio import fmt_float, read_rows
from .errors import CsvFormatError, DegenerateBandError, InvalidPeriodError, UndefinedCorrelationError
from .filters import select_filter_specs
from .pipeline import Mode, PipelineConfig, Resample, mode_filters, run_paired
# Unused here; kept importable from this module because bench/spans.py wraps it by this name.
from .pipeline import run_pipeline  # noqa: F401
from .series import TimeSeries, as_integer, validate_periods

# Stream labels under each repetition's sub-seed.
_NOISE_STREAM = 0
_BOOT_STREAM = 1

# Component amplitude is fixed at one unit, so total signal power is
# len(components) * 1/2.
_AMPLITUDE = 1.0


def __getattr__(name):
    # The pool class is imported when first read, so a serial run never loads
    # multiprocessing. run_scenario_detail reads it as a module attribute, so a
    # class set on the module in its place (a tracer's, a test's) is the one that runs.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _median(values) -> float:
    """np.median of a non-empty 1-D sample, bit for bit, by numpy's own _median steps.

    numpy partitions at the middle index (or two) and at -1, takes np.mean of
    the middle slice (a sum that starts from +0.0, which sets the sign of a
    zero median), and returns the last partitioned value when it is NaN. Its
    NaN check also asks whether the input is a masked array, which imports
    numpy.ma on the first call; this helper takes the same steps without it.
    """
    a = np.asarray(values, dtype=float)
    half = a.size // 2
    kth = [half] if a.size % 2 else [half - 1, half]
    part = np.partition(a, kth + [-1])
    middle = float(np.mean(part[kth[0]:half + 1]))
    return float(part[-1]) if math.isnan(part[-1]) else middle


def _snr_label(snr) -> str:
    """The signal:noise label of an SNR, as messages and tables write it."""
    return f"{snr[0]:g}:{snr[1]:g}"


def _check_snr(snr) -> tuple:
    """An SNR as (signal, noise) floats: signal > 0, noise >= 0, a finite _seed_key.

    snr is a tuple or list of two real numbers; a str or bytes of two
    characters indexes as two parts too, so the container type is checked.
    """
    if not (isinstance(snr, (tuple, list)) and len(snr) == 2 and all(isinstance(part, Real) for part in snr)):
        raise ValueError(f"snr {snr!r} must have two parts, signal and noise, that are real numbers")
    signal, noise = float(snr[0]), float(snr[1])
    # Written so that NaN fails too.
    if not (signal > 0.0 and noise >= 0.0):
        raise ValueError("snr parts must be positive (noise part may be 0 for noiseless tests)")
    if not math.isfinite(1000.0 * noise / signal):
        raise ValueError(f"snr {_snr_label((signal, noise))} has a noise-to-signal ratio too large to label")
    return signal, noise


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: a period pair, an SNR, and run sizes.

    resample is passed to both pipelines of every repetition (see
    pipeline.Resample): COMPONENTS, the default, is the paper's construction;
    SERIES resamples the whole simulated series at lcm(p1, p2). Both modes'
    pipelines are checked against n here (pipeline.mode_filters), and an
    error from that check names the cell. The fields the PipelineConfig checks
    are stored as it holds them, so resample="series" is Resample.SERIES.
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
        object.__setattr__(self, "n", as_integer(self.n, "n"))
        object.__setattr__(self, "reps", as_integer(self.reps, "reps"))
        object.__setattr__(self, "snr", _check_snr(self.snr))
        if self.reps < 1:
            raise ValueError("need at least one repetition")
        # Repetitions are counted with index-sized integers; more could never all run.
        if self.reps > sys.maxsize:
            raise ValueError(f"reps must be at most {sys.maxsize}, got {self.reps}")
        try:
            cfg = self.pipeline(self.seed)
            mode_filters(cfg, self.n, tuple(Mode))
        except ValueError as exc:
            raise type(exc)(f"cell ({self.p1}, {self.p2}) at snr {_snr_label(self.snr)}: {exc}") from None
        # As the pipelines run them, so the sines share their periods and equal cells compare equal.
        object.__setattr__(self, "p1", cfg.periods[0])
        object.__setattr__(self, "p2", cfg.periods[1])
        object.__setattr__(self, "resamples", cfg.resamples)
        object.__setattr__(self, "resample", cfg.resample)

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
    """One table cell: repetitions, CI-size ratio, correlation metrics, coverage, in cells.csv's column order."""

    reps_completed: int
    ci_ratio_median: float
    r2_pbb: float
    r2_vmbpbb: float
    r2_diff: float
    outside_frac_pbb: float
    outside_frac_vmbpbb: float


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
    """One scenario's place in the grid and its per-rep records, which its metrics aggregate."""

    p1: int
    p2: int
    snr: tuple
    narrow_factor: float
    records: tuple

    @property
    def place(self) -> tuple:
        """The cell's grid coordinates, the _CELL_COLUMNS that cells.csv and reps.csv rows start with."""
        return (*self.snr, self.p1, self.p2, self.narrow_factor)

    @property
    def narrowed(self) -> bool:
        """Whether the cell ran with a narrowed window design (narrow_factor > 1)."""
        return self.narrow_factor > 1.0

    @functools.cached_property
    def metrics(self) -> ScenarioMetrics:
        """The medians of the records, computed on first read."""
        return _aggregate_records(self.records)


def generate_mpc(cfg: ScenarioConfig, rng: np.random.Generator):
    """Build one simulated series: two unit sines plus scaled Gaussian noise.

    Noise variance is (noise_part / signal_part) times the total signal power
    sum(amplitude^2 / 2). A zero noise part draws noise of scale 0.0, every
    sample of it +0.0, so the series is the exact noiseless sum: no sine
    argument is negative, so no sample of the sum is -0.0.
    """
    t = np.arange(cfg.n)
    comp1 = TimeSeries(_AMPLITUDE * np.sin(2.0 * np.pi * t / cfg.p1))
    comp2 = TimeSeries(_AMPLITUDE * np.sin(2.0 * np.pi * t / cfg.p2))
    signal_power = 2.0 * _AMPLITUDE**2 / 2.0
    signal, noise = cfg.snr
    sigma = math.sqrt((noise / signal) * signal_power)
    mpc = TimeSeries(comp1.values + comp2.values)
    series = TimeSeries(mpc.values + rng.normal(0.0, sigma, cfg.n))
    return series, TrueSignals(comp1=comp1, comp2=comp2, mpc=mpc, noise_sigma=sigma)


def ci_ratio(band_pbb: CIBand, band_vm: CIBand) -> float:
    """Median over time of the PBB-to-VMBPBB band width ratio."""
    if band_pbb.n != band_vm.n:
        raise ValueError("bands must have equal length")
    widths_vm = band_vm.width
    if np.any(widths_vm == 0.0):
        raise DegenerateBandError("reference band has zero width at some time point")
    return _median(band_pbb.width / widths_vm)


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
    r2_vm = _median([r.r2_vmbpbb for r in records])
    r2_pbb = _median([r.r2_pbb for r in records])
    return ScenarioMetrics(
        reps_completed=len(records),
        ci_ratio_median=_median([r.ci_ratio for r in records]),
        r2_pbb=r2_pbb,
        r2_vmbpbb=r2_vm,
        r2_diff=r2_vm - r2_pbb,
        outside_frac_pbb=_median([r.outside_pbb for r in records]),
        outside_frac_vmbpbb=_median([r.outside_vmbpbb for r in records]),
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
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_repetition, [cfg] * cfg.reps, reps))
    else:
        records = [_run_repetition(cfg, r) for r in reps]
    return _aggregate_records(records), records


def _seed_key(snr) -> int:
    """The SNR's part of a cell's seed label, its noise-to-signal ratio in thousandths, an integer."""
    return int(round(1000.0 * snr[1] / snr[0]))


def _shared_seeds(snr, keyed: dict) -> ValueError:
    """The error for snr beside the SNR keyed holds under its _seed_key: their cells would run the same draws."""
    return ValueError(f"snrs {_snr_label(keyed[_seed_key(snr)])} and {_snr_label(snr)} round to one "
                      f"noise-to-signal ratio, {_seed_key(snr) / 1000:g}, which keys their cells' seeds")


def _auto_narrow(p1: int, p2: int, snr) -> bool:
    ratio = snr[1] / snr[0]
    close_pair = {p1, p2} == {10, 25}
    return close_pair and (math.isclose(ratio, 2.0) or math.isclose(ratio, 5.0))


def run_grid(periods, snrs, *, n: int = 1000, resamples: int = 200, reps: int = 50,
             seed: SeedSpec = SeedSpec(0), narrow_factor: float = 1.0,
             paper_faithful: bool = True, threads: int = 1,
             resample: Resample = Resample.COMPONENTS) -> list[GridCell]:
    """Run one scenario per unordered period pair per SNR; each cell keeps its records.

    No two SNRs may round to one noise-to-signal ratio in thousandths, which
    keys a cell's seed: (1, 10) beside (2, 20) or (1, 10.0004) would run the
    same draws.

    resample is passed to every cell's ScenarioConfig (see pipeline.Resample).

    With paper_faithful set, the {10, 25} pairs at noise ratios 2 and 5 use a
    doubled window design (narrow_factor = 2). A cell counts as narrowed when
    its narrow_factor exceeds 1, whichever way it got there. Scenario seeds
    are keyed by (p1, p2, _seed_key(snr)), p1 the lower period, so extending
    the grid never perturbs existing cells.
    """
    periods = validate_periods(periods)
    if len(periods) < 2:
        raise InvalidPeriodError("a grid needs at least two periods")
    if not snrs:
        raise ValueError("a grid needs at least one snr")
    if not isinstance(seed, SeedSpec):
        raise TypeError(f"seed must be a SeedSpec, got {type(seed).__name__}")
    pairs = list(combinations(sorted(periods), 2))
    # narrow_factor is checked as given, also for a pair that every snr auto-narrows.
    for p1, p2 in pairs:
        try:
            select_filter_specs((p1, p2), narrow_factor)
        except ValueError as exc:
            raise type(exc)(f"cell ({p1}, {p2}): {exc}") from None
    # Every cell's config is built (and so validated) before any cell runs.
    plan, keyed = [], {}
    for snr in snrs:
        snr = _check_snr(snr)
        key = _seed_key(snr)
        if key in keyed:
            raise _shared_seeds(snr, keyed)
        keyed[key] = snr
        for p1, p2 in pairs:
            nf = 2.0 if paper_faithful and _auto_narrow(p1, p2, snr) else narrow_factor
            plan.append(ScenarioConfig(
                p1=p1, p2=p2, snr=snr, n=n, resamples=resamples, reps=reps,
                seed=seed.child(p1, p2, _seed_key(snr)), narrow_factor=nf,
                resample=resample,
            ))
    return [GridCell(p1=cfg.p1, p2=cfg.p2, snr=cfg.snr, narrow_factor=cfg.narrow_factor,
                     records=tuple(run_scenario_detail(cfg, threads)[1]))
            for cfg in plan]


# The columns of GridCell.place; cells.csv and reps.csv rows start with them.
_CELL_COLUMNS = ["snr_signal", "snr_noise", "p1", "p2", "narrow_factor"]
# Per-repetition log (reps.csv): one row per record, cells in grid order; the
# cell's place, then the RepRecord fields in their declared order, the order
# read_rep_log rebuilds a RepRecord from.
REPS_HEADER = _CELL_COLUMNS + [field.name for field in fields(RepRecord)]
# A record's values in REPS_HEADER's order. astuple deep-copies each record,
# about 7 us a record on a 2-core x86 host: 0.2 s for a paper grid's 30000.
_record_values = attrgetter(*REPS_HEADER[len(_CELL_COLUMNS):])


def study_tables(cells) -> dict:
    """The study files of the cells, {file name: (header, rows)}, in writing order.

    table1 (median CI ratio) and table2 (r2 difference) hold one row per (snr,
    period) with one column per partner period, empty on the diagonal and
    where the cells lack the pair; coverage and cells hold one row per cell,
    cells.csv's metric columns in ScenarioMetrics' field order; and reps.csv,
    the log read_rep_log reads back, one row per repetition (REPS_HEADER).
    """
    periods = sorted({p for c in cells for p in (c.p1, c.p2)})
    # dict.fromkeys keeps each SNR once, in the order the cells first give it.
    snrs = dict.fromkeys(c.snr for c in cells)

    def matrix(value_of):
        # Each cell fills its pair both ways round; no cell pairs a period with itself.
        values = {(c.snr, *pair): value_of(c) for c in cells for pair in ((c.p1, c.p2), (c.p2, c.p1))}
        return [[_snr_label(snr), p_row] + [values.get((snr, p_row, p_col)) for p_col in periods]
                for snr in snrs for p_row in periods]

    matrix_header = ["snr", "period"] + [str(p) for p in periods]
    return {
        "table1.csv": (matrix_header, matrix(lambda c: c.metrics.ci_ratio_median)),
        # Table 2 cells that ran with a narrowed window design carry a '*' suffix.
        "table2.csv": (matrix_header,
                       matrix(lambda c: fmt_float(c.metrics.r2_diff) + ("*" if c.narrowed else ""))),
        "coverage.csv": (
            ["snr", "p1", "p2", "outside_pbb", "outside_vmbpbb"],
            [(_snr_label(c.snr), c.p1, c.p2, c.metrics.outside_frac_pbb, c.metrics.outside_frac_vmbpbb)
             for c in cells],
        ),
        "cells.csv": (
            _CELL_COLUMNS + ["narrowed", "reps", "ci_ratio_median", "r2_pbb", "r2_vmbpbb", "r2_diff",
                             "outside_pbb", "outside_vmbpbb"],
            [(*c.place, int(c.narrowed), *astuple(c.metrics)) for c in cells],
        ),
        "reps.csv": (REPS_HEADER, [(*c.place, *_record_values(r)) for c in cells for r in c.records]),
    }


def read_rep_log(path) -> list[GridCell]:
    """Rebuild the grid cells from a reps.csv log, the inverse of study_tables' reps.csv.

    Every field is a finite number, each cell's SNR, period pair and
    narrow_factor pass the rules a grid run checks them by, and every row is
    one a grid run can write: p1 < p2, one narrow_factor and distinct reps
    >= 0 per cell, no two SNRs whose cells would share seeds, outside
    fractions in [0, 1], ci_ratio and r2 >= 0 (r2 may round a few ulps above
    100).
    """
    name = Path(path).name
    width = len(_CELL_COLUMNS)
    cells, keyed = {}, {}
    for lineno, row in read_rows(path, REPS_HEADER):
        try:
            numbers = [float(text) for text in row]
            bad = [text for text, value in zip(row, numbers) if not math.isfinite(value)]
            if bad:
                raise ValueError(f"{bad[0].strip()!r} is not a finite number")
            # The periods are read from their text, so int() refuses "10.5" rather than truncate it.
            place = (*_check_snr(numbers[:2]), *map(int, row[2:width - 1]), numbers[width - 1])
            if place not in cells:
                signal, noise, p1, p2, nf = place
                snr = (signal, noise)
                # Every cell of one SNR carries it; only another SNR under its key is an error.
                if keyed.setdefault(_seed_key(snr), snr) != snr:
                    raise _shared_seeds(snr, keyed)
                select_filter_specs((p1, p2), nf)
                if p1 > p2:
                    raise ValueError(f"p1 {p1} is above p2 {p2}")
                if any(other[:-1] == place[:-1] for other in cells):
                    raise ValueError(f"a second narrow_factor {nf:g} for cell ({p1}, {p2})")
                cells[place] = {}
            for field, value in zip(REPS_HEADER[width + 1:], numbers[width + 1:]):
                top = 1.0 if field.startswith("outside") else math.inf
                if not 0.0 <= value <= top:
                    raise ValueError(f"{field} {value:g} is outside [0, {top:g}]")
            rep = int(row[width])
            if rep < 0 or rep in cells[place]:
                raise ValueError(f"rep {rep} is negative or repeats within its cell")
        except ValueError as exc:
            raise CsvFormatError(f"{name} line {lineno}: {exc}") from exc
        cells[place][rep] = RepRecord(rep, *numbers[width + 1:])
    return [GridCell(p1=p1, p2=p2, snr=(signal, noise), narrow_factor=nf, records=tuple(records.values()))
            for (signal, noise, p1, p2, nf), records in cells.items()]
