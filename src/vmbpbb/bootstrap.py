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


def _phase_layout(n: int, p: int):
    """Each slot's phase t mod p, and the member count of every phase."""
    phases = np.arange(n) % p
    return phases, np.bincount(phases, minlength=p)


def _index_sampler(n: int, p: int):
    """The resample index draw of a length-n series at period p.

    draw(seq) gives one resample's source indices from the SeedSequence seq,
    slot t drawing uniformly from the subset of phase t mod p. It equals, bit
    for bit,

        phases + p * Generator(PCG64(seq)).integers(0, counts[phases], size=n)

    numpy draws each bound below 2**32 by Lemire's method: slot t takes the
    next 32-bit word w of the stream (the low half of a 64-bit output first),
    and its offset is (w * bound) >> 32, unless the low 32 bits of that
    product fall below 2**32 % bound, in which case w is rejected and the
    slot takes the next word. A slot whose phase has one member takes no
    word. Here the live slots read their words from PCG64(seq).random_raw in
    one vectorised step; a row that holds a rejected word (about 1e-4 of
    rows at the hourly bounds) is redrawn by numpy itself.
    """
    phases, counts = _phase_layout(n, p)
    bounds = counts[phases]
    live = bounds > 1
    # Singleton phases occur only when n < 2p; their slots keep offset 0.
    scatter = not live.all()
    bound = bounds[live].astype(np.uint64)
    live_slots = bound.size
    low_bound = bound.astype(np.uint32)
    threshold = (np.uint64(2**32) % bound).astype(np.uint32)
    # Any rejected word leaves a low product below the largest threshold.
    screen = threshold.max(initial=0)
    base = phases.astype(np.uint64)

    def draw(seq):
        raw = np.random.PCG64(seq).random_raw((live_slots + 1) // 2)
        words = raw.astype("<u8", copy=False).view("<u4")[:live_slots]
        low = words * low_bound  # the product's low 32 bits, by uint32 wraparound
        if low.min(initial=screen) < screen and np.any(low < threshold):
            generator = np.random.Generator(np.random.PCG64(seq))
            return phases + p * generator.integers(0, bounds, size=n)
        offsets = words.astype(np.uint64)
        offsets *= bound
        offsets >>= 32
        if scatter:
            offsets, live_offsets = np.zeros(n, dtype=np.uint64), offsets
            offsets[live] = live_offsets
        offsets *= p
        offsets += base
        return offsets.view(np.int64)

    return draw


def pbb_resample(series: TimeSeries, p: int, rng: np.random.Generator) -> TimeSeries:
    """Draw one periodic block bootstrap resample of the series at period p.

    Output slot t receives a uniform draw from the phase subset t mod p; all n
    draws are independent and with replacement. The offsets come from
    rng.integers, so rng may be any Generator at any point of its stream.
    """
    p = _validate_period(p, series.n)
    phases, counts = _phase_layout(series.n, p)
    index = phases + p * rng.integers(0, counts[phases], size=series.n)
    return TimeSeries(series.values[index], series.start_index)


def resample_indices(n: int, p: int, resamples: int, seed: SeedSpec):
    """An iterator over the source indices of resamples b = 0..resamples-1 at period p.

    Resample b draws from its own sub-stream seed.child(b), so rows are
    reproducible individually. Its indices equal those pbb_resample draws
    with rng = seed.child(b).generator(): the bits of
    Generator(PCG64(seq_b)).integers(0, counts[phases], size=n), with seq_b
    the b-th SeedSequence that root.spawn(resamples) makes from
    SeedSequence(seed.master_seed, spawn_key=seed.labels). They are drawn
    from the raw PCG64 words without a Generator (see _index_sampler).
    """
    resamples = int(resamples)
    if resamples < 1:
        raise InsufficientResamplesError("need at least one resample")
    draw = _index_sampler(n, _validate_period(p, n))
    root = np.random.SeedSequence(seed.master_seed, spawn_key=seed.labels)
    return map(draw, root.spawn(resamples))


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
    phases, counts = _phase_layout(n, p)
    # Row i's phase s lands in bin i*p + s; bincount adds each bin's weights in
    # index order, so every row sums exactly as a one-row bincount would.
    bins = (phases + p * np.arange(k)[:, None]).ravel()
    # Row i of the stack starts at i*n in the flat array.
    flat = values.ravel()
    starts = n * np.arange(k)[:, None]
    estimates = np.empty((k, resamples, p))
    for b, index in enumerate(draws):
        gathered = flat.take(index if k == 1 else index + starts)
        sums = np.bincount(bins, weights=gathered.ravel(), minlength=k * p)
        estimates[:, b] = sums.reshape(k, p) / counts
    return estimates


def bootstrap_periodic_means(series: TimeSeries, p: int, resamples: int, seed: SeedSpec) -> np.ndarray:
    """Bootstrap the periodic mean: B resamples, one row of phase means each.

    Returns a read-only (resamples, p) array. Resample b consumes its own
    sub-stream seed.child(b), so rows are reproducible individually and the
    run parallelizes without coordination. Row b is bit-identical to
    periodic_mean(pbb_resample(series, p, rng_b), p) with
    rng_b = seed.child(b).generator(). This is the one-series case of
    bootstrap_phase_means.
    """
    estimates = bootstrap_phase_means(series.values[None, :], p, resamples, seed)[0]
    estimates.setflags(write=False)
    return estimates


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
