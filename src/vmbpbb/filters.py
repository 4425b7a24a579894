"""KZ and KZFT filters: coefficients, application, frequency response, argument selection.

The KZ filter of window m (odd) and k iterations is the k-fold iteration of a
centered length-m moving average. Its bandpass extension shifts the window to
a center frequency nu by attaching the complex factor exp(-i*2*pi*nu*u) to the
tap at offset u. Coefficient weights come from expanding (1 + z + ... +
z^(m-1))^k and dividing by m^k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidFilterError, SeriesTooShortError, UndefinedCutoffError
from .series import ComplexSeries, TimeSeries, as_integer, validate_periods


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
        m, k = _validate_filter_args(self.m, self.k)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "nu", float(self.nu))
        if not 0.0 <= self.nu <= 0.5:
            raise InvalidFilterError(f"center frequency {self.nu} outside [0, 0.5]")

    @property
    def support(self) -> int:
        """Total width of the filter window, k*(m-1)+1 taps."""
        return self.k * (self.m - 1) + 1

    @property
    def half_width(self) -> int:
        return self.k * (self.m - 1) // 2


def _validate_filter_args(m, k) -> tuple:
    """(m, k) as ints, under the rules every KZ filter shares; a non-integral value such as 3.5 raises."""
    m = as_integer(m, "window length m", InvalidFilterError)
    k = as_integer(k, "iteration count k", InvalidFilterError)
    if m < 1 or m % 2 == 0:
        raise InvalidFilterError(f"window length m={m} must be an odd positive integer")
    if k < 1:
        raise InvalidFilterError(f"iteration count k={k} must be a positive integer")
    # The coefficients are divided by m**k as a float (kz_coefficients).
    try:
        float(m) ** k
    except OverflowError:
        raise InvalidFilterError(f"m**k = {m}**{k} exceeds the float range") from None
    return m, k


def _integer_coefficients(m: int, k: int) -> np.ndarray:
    """Unnormalized coefficients of (1 + z + ... + z^(m-1))^k, exact Python integers."""
    window = np.ones(m, dtype=object)
    coeffs = window
    for _ in range(k - 1):
        coeffs = np.convolve(coeffs, window)
    return coeffs


def kz_coefficients(m: int, k: int) -> np.ndarray:
    """Weights of the KZ filter, (1 + z + ... + z^(m-1))^k / m^k, at offsets u = -h..+h.

    Computed by k-1 exact integer self-convolutions of the length-m all-ones
    window, divided by m^k only at the end. The read-only result has
    k*(m-1)+1 positive, symmetric entries summing to 1.
    """
    m, k = _validate_filter_args(m, k)
    weights = np.asarray(_integer_coefficients(m, k) / float(m) ** k, dtype=float)
    weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=16)
def _kzft_kernel(m: int, k: int, nu: float) -> np.ndarray:
    """Kernel of the (m, k, nu) bandpass filter, kernel(u) = w(u) * exp(-i*2*pi*nu*u).

    Cached, so the array is returned read-only.
    """
    weights = kz_coefficients(m, k)
    h = (weights.size - 1) // 2
    kernel = weights * np.exp(-2j * np.pi * nu * np.arange(-h, h + 1))
    kernel.setflags(write=False)
    return kernel


@functools.lru_cache(maxsize=16)
def _tap_mass(m: int, k: int, n: int) -> np.ndarray:
    """Per output point of a length-n series, the (m, k) weight mass inside the series.

    Cached, so the array is returned read-only.
    """
    weights = kz_coefficients(m, k)
    h = (weights.size - 1) // 2
    mass = np.convolve(np.ones(n), weights, mode="full")[h : h + n]
    mass.setflags(write=False)
    return mass


def check_window_fits(spec: FilterSpec, n: int, name: str) -> None:
    """Raise InvalidFilterError if spec's window spans more than n samples; name labels the filter.

    Under RENORMALIZE edges such a window overhangs the series at every
    output point, so no point is filtered by the designed window.
    """
    if spec.support > n:
        raise InvalidFilterError(
            f"{name} window m={spec.m} (k={spec.k}) spans {spec.support} samples, more than n={n}"
        )


def _kzft_values(values: np.ndarray, spec: FilterSpec, edge: EdgePolicy = EdgePolicy.RENORMALIZE) -> np.ndarray:
    """The bandpass filter's complex output on a 1-D array; see kzft_apply for its start."""
    n = values.size
    h = spec.half_width
    if edge is EdgePolicy.TRUNCATE and n <= 2 * h:
        raise SeriesTooShortError(f"series of length {n} too short for full windows of width {2 * h + 1}")
    # Output t of the full correlation sits at np.convolve index t + h.
    full = np.convolve(values, _kzft_kernel(spec.m, spec.k, spec.nu)[::-1], mode="full")
    if edge is EdgePolicy.TRUNCATE:
        return full[2 * h : n]
    return full[h : h + n] / _tap_mass(spec.m, spec.k, n)


def kzft_apply(series, spec: FilterSpec, edge: EdgePolicy = EdgePolicy.RENORMALIZE) -> ComplexSeries:
    """Apply the bandpass filter: sum_u w(u) * exp(-i*2*pi*nu*u) * X(t+u).

    Accepts a TimeSeries or a ComplexSeries (the latter mainly for measuring
    the response to pure complex exponentials). With nu = 0 the kernel is real
    and the output equals the KZ filter applied to the input. Edge
    renormalization divides by the (m, k) table's own mass at each point.
    """
    shift = spec.half_width if edge is EdgePolicy.TRUNCATE else 0
    return ComplexSeries(_kzft_values(series.values, spec, edge), series.start_index + shift)


def reconstruct_component(cs: ComplexSeries) -> TimeSeries:
    """Rebuild the real component passed by a one-sided bandpass filter.

    Doubling the real part restores the amplitude only where the filter
    suppresses the negative-frequency line, which it passes with gain H(2*nu) =
    (sin(2*pi*m*nu) / (m*sin(2*pi*nu)))^k: a unit sine comes back as 1 + H(2*nu)
    in the interior, 1.954 at period 250 with m = 21, k = 1 (the (10, 250) pair).
    """
    return TimeSeries(2.0 * cs.values.real, cs.start_index)


def energy_transfer(lam, m: int, k: int, nu: float = 0.0):
    """Squared gain at frequency lam of the (m, k) filter centered at nu.

    Evaluates (sin(pi*m*d) / (m*sin(pi*d)))^(2k) with d = lam - nu; the
    removable singularity at integer d takes its limit value 1. Accepts a
    scalar or an array of frequencies.
    """
    m, k = _validate_filter_args(m, k)
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
    m, k = _validate_filter_args(m, k)
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
    periods = validate_periods(periods)
    # Written so that NaN fails too.
    if not narrow_factor >= 1.0:
        raise InvalidFilterError(f"narrow_factor must be >= 1, got {narrow_factor}")
    freqs = [1.0 / p for p in periods]
    specs = []
    for i, nu in enumerate(freqs):
        others = [abs(nu - g) for j, g in enumerate(freqs) if j != i]
        d = min(others) if others else nu
        target = narrow_factor * 2.0 / d
        if not math.isfinite(target):
            raise InvalidFilterError(f"narrow_factor {narrow_factor} gives an unbounded window")
        specs.append(FilterSpec(m=_smallest_odd_above(target), k=1, nu=nu))
    return specs
