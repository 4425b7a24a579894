"""Phase-partition periodic block bootstrap and quantile confidence bands.

A series of length n folded at period p splits into p exclusive and exhaustive
phase subsets (indices congruent modulo p). A resample fills each output slot
t with a value drawn uniformly, with replacement, from the subset of phase
t mod p; slot draws are mutually independent. Repeating B times and taking the
periodic mean of every resample yields the bootstrap distribution of the
per-phase means.

The resamples of one period are drawn in blocks of about 2**15 slots. The k
series resampled together (a period's PBB and VMBPBB components) sit as the
columns of one phase-major table, so one take along its first axis gathers a
block's every mode into a C-contiguous (m, n, k) buffer (_resample_blocks).
Read flat, each of its m rows is one series of length n*k in which slot t of
series i sits at t*k + i; at period p*k that slot's phase is (t mod p)*k + i.
So series._phase_sums sums the whole block at once, at period p*k, into a
(B, p, k) array, the modes still last, and each phase adds its members in
index order. Once every block is summed, series._sums_to_means divides the
whole array by the phase counts, each repeated k times: the means equal
np.bincount's on each series bit for bit (bootstrap_phase_means).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InsufficientResamplesError
from .series import TimeSeries, _frozen_array, _phase_layout, _phase_sums, _sums_to_means, as_integer


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible random-stream handle: a master seed plus integer labels.

    Distinct label tuples yield statistically independent streams. Streams are
    derived with numpy's SeedSequence (master_seed as entropy, labels as the
    spawn key) feeding a PCG64 generator, so results never depend on thread
    scheduling or execution order. A run of sibling streams seed.child(b),
    b = 0, 1, ..., has its seeds derived together by child_states, bit for bit
    the ones SeedSequence.spawn would give. The seed and every label are
    integers under series.as_integer: 3.0 and numpy integers pass, 3.7 raises
    ValueError rather than naming the stream of 3.
    """

    master_seed: int
    labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "master_seed", as_integer(self.master_seed, "master_seed"))
        labels = tuple(as_integer(v, "a stream label") for v in self.labels)
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on its default
# pool of four 32-bit words. The constants are numpy's own; PCG64 streams are
# seeded from this hash, so any difference would change every output byte.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# Each resample's index is one 32-bit word of its spawn key (see child_states).
MAX_RESAMPLES = 2**32 - 1


def _words(value: int) -> list:
    """The little-endian 32-bit words SeedSequence splits an integer into (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


# The hash steps take masked Python ints or uint32 arrays (which wrap by
# themselves, where numpy's uint32 scalars would warn on overflow).
def _hashmix(value, const: int):
    """SeedSequence's hashmix of value under hash constant const; returns (hash, next const)."""
    following = const * _MULT_A & _MASK32
    value = (value ^ const) * following & _MASK32
    return value ^ value >> 16, following


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    result = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return result ^ result >> 16


def _constants(first: int, mult: int, count: int) -> np.ndarray:
    """count successive hash constants from first, each the one before times mult, as uint32."""
    consts = [first]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def child_states(seed: SeedSpec, children: np.ndarray) -> np.ndarray:
    """The PCG64 seeds of the sub-streams seed.child(b) for b in children, one row each.

    Each b in children is below 2**32, so it is one 32-bit word of the spawn
    key. Row i of the (children.size, 4) uint64 result equals
    SeedSequence(seed.master_seed, spawn_key=seed.labels + (b,))
    .generate_state(4, np.uint64) with b = children[i]: the state that the
    b-th child of SeedSequence.spawn hands PCG64. The entropy words before b
    are the same in every row, so they are mixed into the pool once, in
    Python ints; only b's word and the state output run over the whole batch.
    """
    children = np.asarray(children, dtype=np.uint32)
    run = _words(seed.master_seed)
    # A spawn key is present (b), so SeedSequence pads the run entropy to the pool.
    entropy = run + [0] * (_POOL_SIZE - len(run)) + [w for label in seed.labels for w in _words(label)]
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    # b's word mixes into pool word dst under the dst-th of the next four hash
    # constants, and state word i is pool word i mod 4 xored with output
    # constant i and multiplied by constant i + 1, so each stage is one (B, 4)
    # or (B, 8) array step.
    hashed, _ = _hashmix(children[:, None], _constants(const, _MULT_A, _POOL_SIZE))
    pool = _mix(np.array(pool, dtype=np.uint32), hashed)
    consts = _constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
    value = np.tile(pool, 2) ^ consts[:-1]
    value *= consts[1:]
    state = (value ^ value >> 16).astype("<u4", copy=False)
    # Word pairs join low half first, as generate_state's little-endian view does.
    return state.view("<u8").astype(np.uint64, copy=False)


class _ChildSeed(ISeedSequence):
    """One row of child_states, served to PCG64 as the seed sequence it came from."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes np.uint64 itself, which skips building a dtype per row.
        if n_words != _POOL_SIZE or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a child seed holds only the four 64-bit words PCG64 takes")
        return self.state


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


# A block holds about this many slots (resamples times n), so that its words,
# indices and gathered values stay in a core's cache; at n = 8760 it holds
# three resamples.
_BLOCK_SLOTS = 2**15


def _resample_blocks(values: np.ndarray, p: int, resamples: int, seed: SeedSpec):
    """The resamples of a (k, n) stack at period p, gathered a block of resamples at a time.

    Resample b draws one index vector from its own sub-stream seed.child(b)
    and applies it to every row of values. Its indices equal, bit for bit,

        phases + p * Generator(PCG64(seq_b)).integers(0, counts[phases], size=n)

    with seq_b the b-th SeedSequence that spawn makes (see child_states).
    numpy draws each bound below 2**32 by Lemire's method: slot t takes the
    next 32-bit word w of the stream (the low half of a 64-bit output first),
    and its offset is (w * bound) >> 32, unless the low 32 bits of that
    product fall below 2**32 % bound, in which case w is rejected and the
    slot takes the next word.

    The caller holds 2 <= p, 2p <= n and 1 <= resamples <= MAX_RESAMPLES, so
    every phase has at least two members and every slot takes a word. A run
    checks all three where it enters: PipelineConfig the period rules
    (validate_periods) and the resample count, pipeline.mode_filters the
    series length, for both p = period and p = lcm(periods).

    Yields (b, block) for b = 0, rows, 2 * rows, ..., with rows about
    _BLOCK_SLOTS // n (32 at n = 1000, 3 at n = 8760): block is the
    C-contiguous (m, n, k) buffer, m <= rows, whose [j, :, i] is row i of
    values gathered at the indices of resample b + j. The next block
    overwrites it, and a shorter last block is the first m rows of the same
    buffers.

    The k rows of values sit as the columns of one phase-major table of
    p * c rows, c = ceil(n / p) the largest member count: row s * c + j holds
    slot s + p * j, so phase s's members are c consecutive rows from s * c,
    and a slot's gather index is its phase's first row plus its offset. The
    rows past a phase's member count hold NaN and are never drawn; a wrong
    index would show as a non-finite band, not a silent value. A single take
    along the table's first axis gathers every row of values together. A
    block copies its resamples' raw PCG64 words row by row into one buffer
    and takes the Lemire step over all of them at once; a resample that
    holds a rejected word (about 1e-4 of them at the hourly bounds) is
    redrawn by numpy itself.
    """
    k, n = values.shape
    phases, counts = _phase_layout(n, p)
    members = int(counts[0])
    base = (phases * members).astype(np.uint64)
    table = np.full((p * members, k), np.nan)
    table[base + np.arange(n, dtype=np.uint64) // p] = values.T
    states = child_states(seed, np.arange(resamples, dtype=np.uint32))
    rows = min(resamples, max(1, _BLOCK_SLOTS // n))
    bounds = counts[phases]
    bound = bounds.astype(np.uint64)
    threshold = (np.uint64(2**32) % bound).astype(np.uint32)
    # Any rejected word leaves a low product below the largest threshold.
    screen = threshold.max()
    half = (n + 1) // 2
    raw = np.empty((rows, half), dtype="<u8")
    index = np.empty((rows, n), dtype="<u8")
    block = np.empty((rows, n, k))
    for b in range(0, resamples, rows):
        batch = states[b:b + rows]
        m = batch.shape[0]
        if m < rows:
            raw, index, block = raw[:m], index[:m], block[:m]
        for j, state in enumerate(batch):
            raw[j] = np.random.PCG64(_ChildSeed(state)).random_raw(half)
        np.multiply(raw.view("<u4")[:, :n], bound, out=index)
        # The product's low 32 bits, the first half of each little-endian word.
        low = index.view("<u4")[:, ::2]
        rejected = np.flatnonzero((low < threshold).any(axis=1)) if low.min() < screen else ()
        index >>= 32
        index += base
        for i in rejected:
            generator = np.random.Generator(np.random.PCG64(_ChildSeed(batch[i])))
            index[i] = generator.integers(0, bounds, size=n)
            index[i] += base
        # The indices lie in range by construction; under the default "raise"
        # mode numpy would gather into a temporary and copy it to out.
        table.take(index.view("<i8"), axis=0, out=block, mode="clip")
        yield b, block


def bootstrap_phase_means(stack, p: int, resamples: int, seed: SeedSpec) -> np.ndarray:
    """Bootstrap the periodic means of k equal-length series with shared draws.

    stack is a (k, n) array. Resample b draws one index vector and applies it
    to every row (_resample_blocks), so series resampled together take the
    same draws. Returns the read-only, C-contiguous (resamples, p, k) array
    it fills, whose entry [b, :, i] holds the p phase means of row i
    resampled by draw b: one _phase_sums call sums each (m, n, k) block as
    m series of length n*k at period p*k (see the module docstring), and one
    _sums_to_means call divides the whole array by the phase counts, each
    repeated k times, so the means are those of np.bincount on each row bit
    for bit. n, p and resamples meet the preconditions of _resample_blocks.
    """
    values = np.asarray(stack, dtype=float)
    k, n = values.shape
    estimates = np.empty((resamples, p, k))
    sums = estimates.reshape(resamples, p * k)
    for b, block in _resample_blocks(values, p, resamples, seed):
        _phase_sums(block.reshape(-1, n * k), sums[b:b + len(block)])
    _sums_to_means(sums, np.repeat(_phase_layout(n, p)[1], k))
    estimates.setflags(write=False)
    return estimates


def bootstrap_periodic_means(series: TimeSeries, p: int, resamples: int, seed: SeedSpec) -> np.ndarray:
    """Bootstrap the periodic mean: B resamples, one row of phase means each.

    Returns a read-only (resamples, p) array. Resample b consumes its own
    sub-stream seed.child(b), so rows are reproducible individually and the
    run parallelizes without coordination. This is the one-series case of
    bootstrap_phase_means, its only mode taken as a (resamples, p) view.
    """
    return bootstrap_phase_means(series.values[None, :], p, resamples, seed)[..., 0]


def ci_band(samples, alpha: float = 0.05) -> CIBand:
    """Pointwise band from a (B, columns) array: empirical alpha/2 and 1-alpha/2 quantiles.

    The bounds are bit for bit np.quantile(samples, q, axis=0,
    method="linear"), taken from one in-place sort of a C-contiguous
    (columns, B) copy rather than numpy's strided partition of every column.
    Each tail follows numpy's linear rule with numpy's own expressions: the
    virtual index v = (B-1)*q in float64, the order statistics a and b at
    i = floor(v) and min(i+1, B-1), g = v - i, and the result a + (b-a)*g,
    replaced by b - (b-a)*(1-g) where g >= 0.5 (numpy's _lerp). numpy gives
    a column holding NaN NaN bounds; here its bounds may be finite, but its
    mean is NaN, so CIBand rejects it either way. The point estimate is the
    per-column mean of samples as given, since the sorted copy would add in
    another order.
    """
    arr = np.asarray(samples, dtype=float)
    resamples = arr.shape[0]
    if resamples < 2:
        raise InsufficientResamplesError("quantile bands need at least 2 resamples")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    ordered = np.ascontiguousarray(arr.T)
    ordered.sort(axis=-1)
    bounds = []
    for v in (resamples - 1) * np.array([alpha / 2.0, 1.0 - alpha / 2.0]):
        i = int(np.floor(v))
        g = v - i
        a, b = ordered[..., i], ordered[..., min(i + 1, resamples - 1)]
        diff = b - a
        # numpy's _lerp evaluates both forms and keeps the second where g >= 0.5,
        # so both are evaluated here too: they raise the same floating-point errors.
        bound = a + diff * g
        if g >= 0.5:
            bound = b - diff * (1 - g)
        bounds.append(bound)
    point = arr.mean(axis=0)
    return CIBand(lower=bounds[0], point=point, upper=bounds[1], alpha=alpha)
