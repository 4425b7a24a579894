"""Phase-partition periodic block bootstrap and quantile confidence bands.

A series of length n folded at period p splits into p exclusive and exhaustive
phase subsets (indices congruent modulo p). A resample fills each output slot
t with a value drawn uniformly, with replacement, from the subset of phase
t mod p; slot draws are mutually independent. Repeating B times and taking the
periodic mean of every resample yields the bootstrap distribution of the
per-phase means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientResamplesError
from .series import TimeSeries, _frozen_array, _validate_period


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible random-stream handle: a master seed plus integer labels.

    Distinct label tuples yield statistically independent streams. Streams are
    derived with numpy's SeedSequence (master_seed as entropy, labels as the
    spawn key) feeding a PCG64 generator, so results never depend on thread
    scheduling or execution order.
    """

    master_seed: int
    labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "master_seed", int(self.master_seed))
        labels = tuple(int(v) for v in self.labels)
        if self.master_seed < 0 or self.master_seed >= 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if any(v < 0 for v in labels):
            raise ValueError("stream labels must be non-negative integers")
        object.__setattr__(self, "labels", labels)

    def child(self, *labels: int) -> "SeedSpec":
        """Derive a sub-stream handle by appending labels."""
        return SeedSpec(self.master_seed, self.labels + tuple(labels))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.labels)
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True, eq=False)
class PhasePartition:
    """The p exclusive and exhaustive index subsets of a length-n series."""

    period: int
    subsets: tuple

    def __post_init__(self):
        object.__setattr__(self, "period", int(self.period))
        object.__setattr__(self, "subsets", tuple(_frozen_array(s, dtype=int) for s in self.subsets))
        if len(self.subsets) != self.period:
            raise ValueError("need exactly one subset per phase")


@dataclass(frozen=True, eq=False)
class BootstrapRun:
    """B resampled periodic means (rows) for one component at one period."""

    period: int
    resamples: int
    estimates: np.ndarray
    seed: SeedSpec

    def __post_init__(self):
        est = _frozen_array(self.estimates)
        if est.shape != (self.resamples, self.period):
            raise ValueError("estimates must be a resamples x period matrix")
        if not np.all(np.isfinite(est)):
            raise ValueError("bootstrap estimates must be finite")
        object.__setattr__(self, "estimates", est)


@dataclass(frozen=True, eq=False)
class CIBand:
    """Pointwise lower/point/upper band from bootstrap quantiles."""

    lower: np.ndarray
    point: np.ndarray
    upper: np.ndarray
    alpha: float = 0.05

    def __post_init__(self):
        lower = _frozen_array(self.lower)
        point = _frozen_array(self.point)
        upper = _frozen_array(self.upper)
        if not (lower.size == point.size == upper.size):
            raise ValueError("band arrays must share one length")
        for arr in (lower, point, upper):
            if not np.all(np.isfinite(arr)):
                raise ValueError("band values must be finite")
        if np.any(lower > upper):
            raise ValueError("lower band must not exceed upper band")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def phase_partition(n: int, p: int) -> PhasePartition:
    """Split indices 0..n-1 into the p congruence classes modulo p."""
    n = int(n)
    if n < 1:
        raise ValueError("series length must be positive")
    p = _validate_period(p, n)
    subsets = tuple(np.arange(s, n, p) for s in range(p))
    return PhasePartition(period=p, subsets=subsets)


def _index_sampler(n: int, p: int):
    """Phase layout of a length-n series at period p, and its resample index draw.

    Returns (phases, counts, draw): draw(rng) gives one resample's source
    indices, slot t drawing uniformly from the subset of phase t mod p.
    """
    phases = np.arange(n) % p
    counts = np.bincount(phases, minlength=p)
    # When p divides n every slot has the same bound; numpy draws that scalar
    # bound bit for bit like the per-slot array, and faster.
    high = int(counts[0]) if n % p == 0 else counts[phases]
    return phases, counts, lambda rng: phases + p * rng.integers(0, high, size=n)


def pbb_resample(series: TimeSeries, p: int, rng: np.random.Generator) -> TimeSeries:
    """Draw one periodic block bootstrap resample of the series at period p.

    Output slot t receives a uniform draw from the phase subset t mod p; all n
    draws are independent and with replacement.
    """
    p = _validate_period(p, series.n)
    _, _, draw = _index_sampler(series.n, p)
    return TimeSeries(series.values[draw(rng)], series.start_index)


def resample_indices(n: int, p: int, resamples: int, seed: SeedSpec):
    """An iterator over the source indices of resamples b = 0..resamples-1 at period p.

    Resample b draws from its own sub-stream seed.child(b), so rows are
    reproducible individually; its indices equal those pbb_resample draws
    with rng = seed.child(b).generator().
    """
    resamples = int(resamples)
    if resamples < 1:
        raise InsufficientResamplesError("need at least one resample")
    _, _, draw = _index_sampler(n, _validate_period(p, n))
    root = np.random.SeedSequence(seed.master_seed, spawn_key=seed.labels)
    return (draw(np.random.Generator(np.random.PCG64(seq))) for seq in root.spawn(resamples))


def bootstrap_phase_means(stack, p: int, resamples: int, seed: SeedSpec) -> np.ndarray:
    """Bootstrap the periodic means of k equal-length series with shared draws.

    stack is a (k, n) array. Resample b draws one index vector from
    resample_indices(n, p, resamples, seed) and applies it to every row, so
    entry [i, b] holds the p phase means of row i resampled by draw b, and
    series resampled together take the same draws. Returns a
    (k, resamples, p) array.
    """
    values = np.asarray(stack, dtype=float)
    k, n = values.shape
    draws = resample_indices(n, p, resamples, seed)
    p, resamples = int(p), int(resamples)
    phases, counts, _ = _index_sampler(n, p)
    # Row i's phase s lands in bin i*p + s; bincount adds each bin's weights in
    # index order, so every row sums exactly as a one-row bincount would.
    bins = (phases + p * np.arange(k)[:, None]).ravel()
    estimates = np.empty((k, resamples, p))
    for b, index in enumerate(draws):
        sums = np.bincount(bins, weights=values[:, index].ravel(), minlength=k * p)
        estimates[:, b] = sums.reshape(k, p) / counts
    return estimates


def bootstrap_periodic_means(series: TimeSeries, p: int, resamples: int, seed: SeedSpec) -> BootstrapRun:
    """Bootstrap the periodic mean: B resamples, one row of phase means each.

    Resample b consumes its own sub-stream seed.child(b), so rows are
    reproducible individually and the run parallelizes without coordination.
    Row b is bit-identical to periodic_mean(pbb_resample(series, p, rng_b), p)
    with rng_b = seed.child(b).generator(). This is the one-series case of
    bootstrap_phase_means.
    """
    estimates = bootstrap_phase_means(series.values[None, :], p, resamples, seed)[0]
    return BootstrapRun(period=int(p), resamples=int(resamples), estimates=estimates, seed=seed)


def ci_band(samples, alpha: float = 0.05) -> CIBand:
    """Pointwise band from B sample rows: empirical alpha/2 and 1-alpha/2 quantiles.

    Quantiles interpolate linearly between order statistics at rank
    h = (B-1)*q + 1 (1-based); the point estimate is the per-column mean.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] < 2:
        raise InsufficientResamplesError("quantile bands need at least 2 resamples")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    lower, upper = np.quantile(arr, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0, method="linear")
    point = arr.mean(axis=0)
    return CIBand(lower=lower, point=point, upper=upper, alpha=alpha)
