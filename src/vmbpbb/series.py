"""The sample types, the period rules, and the phase-mean kernel.

TimeSeries holds real samples (an input series or a component) and
ComplexSeries the complex output of a bandpass filter; both are frozen
copies checked by one shared constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeparationError, InvalidPeriodError


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _Samples:
    """A frozen, non-empty 1-D array of finite samples; sample i sits at time start_index + i.

    Each sample type sets _dtype, the dtype its values are stored as, and
    _noun, the name its error messages give it.
    """

    values: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        arr = np.array(self.values, dtype=self._dtype)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"a {self._noun} needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{self._noun} samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "start_index", as_integer(self.start_index, "start_index"))

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class TimeSeries(_Samples):
    """Ordered real samples at unit spacing; sample i sits at time start_index + i."""

    _dtype = float
    _noun = "time series"


@dataclass(frozen=True, eq=False)
class ComplexSeries(_Samples):
    """Complex-valued samples at unit spacing, the output of a bandpass filter."""

    _dtype = complex
    _noun = "complex series"


def as_integer(value, name: str, error=ValueError) -> int:
    """value as an int: 50.0 and np.int64(50) pass; 50.5, which int() would change, +-inf and NaN raise error."""
    try:
        number = int(value)
    except (OverflowError, ValueError):
        number = None
    if number is None or number != value:
        raise error(f"{name} must be an integer, got {value!r}")
    return number


def validate_periods(periods) -> tuple:
    """The periods of a multi-period model: at least one, integers >= 2, distinct."""
    periods = tuple(as_integer(p, "a period", InvalidPeriodError) for p in periods)
    if not periods:
        raise InvalidPeriodError("at least one period is required")
    if any(p < 2 for p in periods):
        raise InvalidPeriodError("periods must be integers >= 2")
    if len(set(periods)) != len(periods):
        raise DegenerateSeparationError("duplicate periods cannot be separated")
    return periods


def _phase_layout(n: int, p: int):
    """Each slot's phase t mod p, and the member count of every phase."""
    phases = np.arange(n) % p
    return phases, np.bincount(phases, minlength=p)


def _phase_sums(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into out (..., p) the phase sums of every length-n row of values (..., n).

    p is out.shape[-1]; values is only read. The caller holds 2 <= p and
    2p <= n: every period is checked by validate_periods where a
    PipelineConfig is built, and against n by pipeline.mode_filters before a
    run draws. numpy sums a (cycles, p) reshape over its non-last cycle axis
    one cycle at a time, so each phase adds its members in index order, as
    np.bincount does, and the first n % p phases then add their last member.
    _sums_to_means turns the sums into means.
    """
    p = out.shape[-1]
    cycles, rest = divmod(values.shape[-1], p)
    whole = cycles * p
    values[..., :whole].reshape(values.shape[:-1] + (cycles, p)).sum(axis=-2, out=out)
    if rest:
        out[..., :rest] += values[..., whole:]
    return out


def _sums_to_means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Turn the phase sums (..., p) of _phase_sums into phase means in place.

    counts[s] is the member count of phase s (_phase_layout). The means equal
    np.bincount(phases, weights=row) / counts bit for bit. bincount starts
    each sum from +0.0, which differs only where every member is -0.0;
    adding 0.0 gives that case +0.0.
    """
    sums += 0.0
    sums /= counts
    return sums
