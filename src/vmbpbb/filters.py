"""KZ and KZFT filters: coefficients, application, frequency response, argument selection.

The KZ filter of window m (odd) and k iterations is the k-fold iteration of a
centered length-m moving average. Its bandpass extension shifts the window to
a center frequency nu by attaching the complex factor exp(-i*2*pi*nu*u) to the
tap at offset u. Coefficient tables come from expanding (1 + z + ... +
z^(m-1))^k and dividing by m^k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateSeparationError,
    InvalidFilterError,
    InvalidPeriodError,
    SeriesTooShortError,
    UndefinedCutoffError,
)
from .series import TimeSeries, _frozen_array


class EdgePolicy(Enum):
    """How to treat output points whose filter window overhangs the series.

    RENORMALIZE keeps full length by dropping out-of-range taps and rescaling
    the remaining weights to sum to one. TRUNCATE keeps only points with a
    complete window and shifts the start index accordingly.
    """

    RENORMALIZE = "renormalize"
    TRUNCATE = "truncate"


@dataclass(frozen=True)
class FilterSpec:
    """Arguments (m, k, nu) of one bandpass filter."""

    m: int
    k: int
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "nu", float(self.nu))
        _validate_filter_args(self.m, self.k)
        if not 0.0 <= self.nu <= 0.5:
            raise InvalidFilterError(f"center frequency {self.nu} outside [0, 0.5]")

    @property
    def support(self) -> int:
        """Total width of the filter window, k*(m-1)+1 taps."""
        return self.k * (self.m - 1) + 1

    @property
    def half_width(self) -> int:
        return self.k * (self.m - 1) // 2


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Symmetric positive weights of a KZ filter, indexed u = -h..+h, summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.size % 2 != 1:
            raise ValueError("coefficient tables have odd length")
        if np.any(w <= 0.0):
            raise ValueError("coefficient weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("coefficient weights must sum to 1")
        if not np.array_equal(w, w[::-1]):
            raise ValueError("coefficient weights must be symmetric")
        object.__setattr__(self, "weights", w)

    @property
    def half_width(self) -> int:
        return (self.weights.size - 1) // 2


@dataclass(frozen=True, eq=False)
class ComplexSeries:
    """Complex-valued samples at unit spacing, the output of a bandpass filter."""

    values: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        arr = np.array(self.values, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a complex series needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("complex series samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "start_index", int(self.start_index))

    @property
    def n(self) -> int:
        return self.values.size


def _validate_filter_args(m: int, k: int) -> None:
    if m < 1 or m % 2 == 0:
        raise InvalidFilterError(f"window length m={m} must be an odd positive integer")
    if k < 1:
        raise InvalidFilterError(f"iteration count k={k} must be a positive integer")


def _integer_coefficients(m: int, k: int) -> np.ndarray:
    """Unnormalized coefficients of (1 + z + ... + z^(m-1))^k, exact integers."""
    # int64 is exact while m**k fits; fall back to Python ints beyond that.
    if k * math.log(m if m > 1 else 2) < 62 * math.log(2):
        coeffs = np.ones(m, dtype=np.int64)
        window = coeffs
        for _ in range(k - 1):
            coeffs = np.convolve(coeffs, window)
        return coeffs
    coeffs = [1] * m
    window = list(coeffs)
    for _ in range(k - 1):
        out = [0] * (len(coeffs) + m - 1)
        for i, ci in enumerate(coeffs):
            for j, wj in enumerate(window):
                out[i + j] += ci * wj
        coeffs = out
    return np.array(coeffs, dtype=object)


def kz_coefficients(m: int, k: int) -> CoefficientTable:
    """Coefficient table of the KZ filter: (1 + z + ... + z^(m-1))^k / m^k.

    Computed by k-1 exact integer self-convolutions of the length-m all-ones
    window, divided by m^k only at the end.
    """
    _validate_filter_args(m, k)
    ints = _integer_coefficients(m, k)
    return CoefficientTable(weights=np.asarray(ints / float(m) ** k, dtype=float))


@functools.lru_cache(maxsize=16)
def _kzft_kernel(m: int, k: int, nu: float) -> np.ndarray:
    """Kernel of the (m, k, nu) bandpass filter, kernel(u) = w(u) * exp(-i*2*pi*nu*u).

    Cached, so the array is returned read-only.
    """
    table = kz_coefficients(m, k)
    offsets = np.arange(-table.half_width, table.half_width + 1)
    kernel = table.weights * np.exp(-2j * np.pi * nu * offsets)
    kernel.setflags(write=False)
    return kernel


@functools.lru_cache(maxsize=16)
def _tap_mass(m: int, k: int, n: int) -> np.ndarray:
    """Per output point of a length-n series, the (m, k) weight mass inside the series.

    Cached, so the array is returned read-only.
    """
    weights = kz_coefficients(m, k).weights
    h = (weights.size - 1) // 2
    mass = np.convolve(np.ones(n), weights, mode="full")[h : h + n]
    mass.setflags(write=False)
    return mass


def _apply_kernel(x: np.ndarray, m: int, k: int, kernel: np.ndarray, edge: EdgePolicy):
    """Correlate x with kernel(u), u = -h..h; returns (output, start_shift).

    kernel carries the (m, k) coefficient table, possibly shifted to a complex
    center frequency; edge renormalization divides by the table's own mass.
    Output t of the full correlation sits at np.convolve index t + h.
    """
    n = x.size
    h = (kernel.size - 1) // 2
    full = np.convolve(x, kernel[::-1], mode="full")
    if edge is EdgePolicy.TRUNCATE:
        if n <= 2 * h:
            raise SeriesTooShortError(
                f"series of length {n} too short for full windows of width {2 * h + 1}"
            )
        return full[2 * h : n], h
    return full[h : h + n] / _tap_mass(m, k, n), 0


def kz_apply(series: TimeSeries, m: int, k: int, edge: EdgePolicy = EdgePolicy.RENORMALIZE) -> TimeSeries:
    """Apply the low-pass KZ filter of window m and k iterations."""
    table = kz_coefficients(m, k)
    out, shift = _apply_kernel(series.values, m, k, table.weights, edge)
    return TimeSeries(out, series.start_index + shift)


def kzft_apply(series, spec: FilterSpec, edge: EdgePolicy = EdgePolicy.RENORMALIZE) -> ComplexSeries:
    """Apply the bandpass filter: sum_u w(u) * exp(-i*2*pi*nu*u) * X(t+u).

    Accepts a TimeSeries or a ComplexSeries (the latter mainly for measuring
    the response to pure complex exponentials). With nu = 0 the kernel is real
    and the output equals the KZ filter applied to the input.
    """
    kernel = _kzft_kernel(spec.m, spec.k, spec.nu)
    out, shift = _apply_kernel(series.values, spec.m, spec.k, kernel, edge)
    return ComplexSeries(out, series.start_index + shift)


def reconstruct_component(cs: ComplexSeries) -> TimeSeries:
    """Rebuild the real component passed by a one-sided bandpass filter.

    The filter keeps only the positive-frequency line of a real sinusoid, so
    doubling the real part restores the original amplitude.
    """
    return TimeSeries(2.0 * cs.values.real, cs.start_index)


def energy_transfer(lam, m: int, k: int, nu: float = 0.0):
    """Squared gain at frequency lam of the (m, k) filter centered at nu.

    Evaluates (sin(pi*m*d) / (m*sin(pi*d)))^(2k) with d = lam - nu; the
    removable singularity at integer d takes its limit value 1. Accepts a
    scalar or an array of frequencies.
    """
    _validate_filter_args(m, k)
    d = np.asarray(lam, dtype=float) - float(nu)
    near_integer = np.abs(d - np.round(d)) < 1e-9
    safe = np.where(near_integer, 0.25, d)
    ratio = np.sin(np.pi * m * safe) / (m * np.sin(np.pi * safe))
    energy = np.where(near_integer, 1.0, ratio ** (2 * k))
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return float(energy)
    return energy


def half_power_cutoff(m: int, k: int) -> float:
    """Frequency offset where the energy transfer drops to about one half.

    Closed form: (sqrt(6)/pi) * sqrt((1 - (1/2)^(1/2k)) / (m^2 - (1/2)^(1/2k))).
    Approximate by construction; energy_transfer at the returned offset lands
    near 0.5 rather than exactly on it.
    """
    _validate_filter_args(m, k)
    if m == 1:
        raise UndefinedCutoffError("m=1 is all-pass; no half-power point exists")
    half_pow = 0.5 ** (1.0 / (2.0 * k))
    return (math.sqrt(6.0) / math.pi) * math.sqrt((1.0 - half_pow) / (m * m - half_pow))


def _smallest_odd_above(x: float) -> int:
    # Snap near-integer targets so float noise cannot flip the strict ">".
    r = round(x)
    if abs(x - r) < 1e-9 * max(1.0, abs(x)):
        x = r
    q = math.floor(x) + 1
    return q if q % 2 == 1 else q + 1


def select_filter_specs(periods, narrow_factor: float = 1.0) -> list[FilterSpec]:
    """Design one bandpass filter per period from pairwise frequency spacing.

    Each period p gets nu = 1/p and k = 1. The window m is the smallest odd
    integer strictly greater than narrow_factor * 2/d, where d is the distance
    from nu to its nearest neighbor frequency, so the first transfer zero falls
    at or inside the midpoint between adjacent component frequencies. A single
    period uses d = nu, placing the band edge halfway to zero frequency.
    """
    periods = [int(p) for p in periods]
    if not periods:
        raise InvalidPeriodError("at least one period is required")
    if any(p < 2 for p in periods):
        raise InvalidPeriodError("periods must be integers >= 2")
    if len(set(periods)) != len(periods):
        raise DegenerateSeparationError("duplicate periods cannot be separated")
    if narrow_factor < 1.0:
        raise InvalidFilterError("narrow_factor must be >= 1")
    freqs = [1.0 / p for p in periods]
    specs = []
    for i, nu in enumerate(freqs):
        others = [abs(nu - g) for j, g in enumerate(freqs) if j != i]
        d = min(others) if others else nu
        m = _smallest_odd_above(narrow_factor * 2.0 / d)
        specs.append(FilterSpec(m=m, k=1, nu=nu))
    return specs
