import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmbpbb import (
    CIBand,
    PipelineConfig,
    SeedSpec,
    TimeSeries,
    ci_band,
)
from vmbpbb import bootstrap
from vmbpbb.bootstrap import (_ChildSeed, _resample_blocks, bootstrap_periodic_means, bootstrap_phase_means,
                              child_states)
from vmbpbb.errors import InsufficientResamplesError, InvalidPeriodError
from vmbpbb.series import _frozen_array


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


def phase_partition(n: int, p: int) -> PhasePartition:
    """Reference oracle: split indices 0..n-1 into the p congruence classes modulo p."""
    n, p = int(n), int(p)
    if n < 1:
        raise ValueError("series length must be positive")
    if not 1 <= p <= n:
        raise InvalidPeriodError(f"period {p} outside valid range [1, {n}]")
    subsets = tuple(np.arange(s, n, p) for s in range(p))
    return PhasePartition(period=p, subsets=subsets)


def pbb_resample(series: TimeSeries, p: int, rng: np.random.Generator) -> TimeSeries:
    """Reference oracle: one periodic block bootstrap resample of the series at period p.

    Output slot t takes a uniform draw, with replacement, from the phase
    subset t mod p, by rng.integers.
    """
    phases = np.arange(series.n) % p
    counts = np.bincount(phases, minlength=p)
    return TimeSeries(series.values[phases + p * rng.integers(0, counts[phases], size=series.n)])


def index_rows(n: int, p: int, resamples: int, seed: SeedSpec) -> list:
    """The library's draw: the indices of every resample, read off _resample_blocks.

    Gathering the series 0, 1, ..., n - 1 recovers each resample's indices.
    Like every caller of _resample_blocks, the tests hold 2 <= p and 2p <= n.
    """
    positions = np.arange(n, dtype=float)[None]
    return [row.astype(np.int64) for _, block in _resample_blocks(positions, p, resamples, seed)
            for row in block[..., 0]]


def quantile_band(samples, alpha):
    """Reference oracle: the band from np.quantile's linear method and the per-column mean."""
    arr = np.asarray(samples, dtype=float)
    lower, upper = np.quantile(arr, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0, method="linear")
    return CIBand(lower=lower, point=arr.mean(axis=0), upper=upper, alpha=alpha)


def band_or_error(build, samples, alpha):
    """build(samples, alpha), or the type of the exception it raises."""
    try:
        return build(samples, alpha)
    except (ValueError, FloatingPointError) as exc:
        return type(exc)


def band_column(kind: str, resamples: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=resamples)
    if kind == "ties":
        return rng.integers(-2, 3, size=resamples) * 0.5
    if kind == "constant":
        return np.full(resamples, rng.normal())
    # -0.0 without +0.0: every zero tie has one bit pattern.
    return rng.choice([-0.0, -1.5, 2.0], size=resamples)


def quantile_oracle(values, q):
    """Linear interpolation between order statistics at rank (B-1)q + 1."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    frac = h - lo
    if frac == 0:
        return ordered[lo]
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


class TestSeedSpec:
    def test_same_labels_same_stream(self):
        a = SeedSpec(42).child(3, 7).generator().random(5)
        b = SeedSpec(42).child(3, 7).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_differ(self):
        a = SeedSpec(42).child(1).generator().random(5)
        b = SeedSpec(42).child(2).generator().random(5)
        assert not np.array_equal(a, b)

    def test_child_appends(self):
        assert SeedSpec(9, (1,)).child(2, 3).labels == (1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(1, (-2,))

    @pytest.mark.parametrize("build", [
        lambda: SeedSpec(3.7),
        lambda: SeedSpec(3, (1.5,)),
        lambda: SeedSpec(np.float64(3.25), (1,)),
        lambda: SeedSpec(3).child(2.9),
        lambda: SeedSpec(3, (1,)).child(4, np.float64(0.5)),
        lambda: SeedSpec(float("inf")),
        lambda: SeedSpec(float("-inf")),
        lambda: SeedSpec(float("nan")),
        lambda: SeedSpec(3, (np.inf,)),
        lambda: SeedSpec(3).child(np.nan),
    ])
    def test_rejects_non_integral_seed_and_labels(self, build):
        # int() would quietly make SeedSpec(3.7, (1.5,)) the stream of SeedSpec(3, (1,)),
        # and raise OverflowError on inf and a bare ValueError on NaN.
        with pytest.raises(ValueError, match="must be an integer, got"):
            build()

    def test_integral_floats_and_numpy_integers_are_stored_as_int(self):
        seed = SeedSpec(3.0, (np.int64(2), 5.0)).child(np.uint32(7))
        assert seed == SeedSpec(3, (2, 5, 7))
        assert {type(v) for v in (seed.master_seed,) + seed.labels} == {int}
        assert SeedSpec(np.uint64(2**64 - 1)).master_seed == 2**64 - 1


class TestPhasePartition:
    def test_even_split(self):
        part = phase_partition(6, 2)
        np.testing.assert_array_equal(part.subsets[0], [0, 2, 4])
        np.testing.assert_array_equal(part.subsets[1], [1, 3, 5])

    def test_uneven_split(self):
        part = phase_partition(5, 2)
        np.testing.assert_array_equal(part.subsets[0], [0, 2, 4])
        np.testing.assert_array_equal(part.subsets[1], [1, 3])

    def test_singletons(self):
        part = phase_partition(4, 4)
        assert [list(s) for s in part.subsets] == [[0], [1], [2], [3]]

    def test_exclusive_exhaustive(self):
        part = phase_partition(17, 5)
        joined = np.sort(np.concatenate(part.subsets))
        np.testing.assert_array_equal(joined, np.arange(17))

    def test_period_too_large(self):
        with pytest.raises(InvalidPeriodError):
            phase_partition(4, 5)


class TestPbbResample:
    """The periodic block bootstrap draw, as the library makes it (_resample_blocks)."""

    def test_constant_series(self):
        series = TimeSeries([2.0] * 9)
        for row in index_rows(9, 3, 5, SeedSpec(1)):
            np.testing.assert_array_equal(series.values[row], series.values)

    def test_support_preserved(self):
        series = TimeSeries([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        even, odd = {10.0, 30.0, 50.0}, {20.0, 40.0, 60.0}
        for row in index_rows(6, 2, 10_000, SeedSpec(8)):
            out = series.values[row]
            assert set(out[0::2]) <= even and set(out[1::2]) <= odd

    # None of these periods divides n, so the phases hold unequal counts.
    @pytest.mark.parametrize("n,p", [(n, p) for n in (7, 17, 101) for p in (2, 5, 24) if 2 * p <= n])
    def test_support_preserved_when_period_does_not_divide_n(self, n, p):
        part = phase_partition(n, p)
        # Each value is its own source index, so a resample reads back as indices.
        series = TimeSeries(np.arange(n, dtype=float))
        rng = SeedSpec(p, (n,)).generator()
        drawn_by = {
            "pbb_resample": [pbb_resample(series, p, rng).values.astype(int) for _ in range(200)],
            "_resample_blocks": index_rows(n, p, 200, SeedSpec(n, (p,))),
        }
        for source, rows in drawn_by.items():
            for s, subset in enumerate(part.subsets):
                # Slots t = s, s+p, ... all draw from subset s, and over 200 rows reach all of it.
                assert set(np.concatenate([row[s::p] for row in rows])) == set(subset), (source, s)

    def test_slot_frequencies_uniform(self):
        series = TimeSeries([10.0, 20.0, 30.0, 40.0])
        draws = series.values[np.array(index_rows(4, 2, 20_000, SeedSpec(3)))]
        # every slot draws its two phase values with frequency -> 1/2
        for slot, pair in [(0, (10, 30)), (1, (20, 40)), (2, (10, 30)), (3, (20, 40))]:
            frac = np.mean(draws[:, slot] == pair[0])
            assert frac == pytest.approx(0.5, abs=0.02)


class TestBlockContract:
    """_resample_blocks hands over the (m, n, k) buffer it fills, the modes on its last axis."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blocks_are_one_reused_c_contiguous_buffer(self, k):
        n, p, seed = 1000, 50, SeedSpec(4)
        rows = bootstrap._BLOCK_SLOTS // n
        resamples = 2 * rows + 1
        stack = np.random.default_rng(k).normal(size=(k, n))
        indices = index_rows(n, p, resamples, seed)
        blocks = []
        for b, block in _resample_blocks(stack, p, resamples, seed):
            assert block.flags.c_contiguous
            assert block.shape == (min(rows, resamples - b), n, k)
            for j, slab in enumerate(block):
                np.testing.assert_array_equal(slab, stack[:, indices[b + j]].T)
            blocks.append(block)
        assert [block.shape[0] for block in blocks] == [rows, rows, 1]
        # The one-resample tail is the first row of the buffer the first block filled.
        assert np.shares_memory(blocks[-1], blocks[0])


def numpy_rows(n: int, p: int, resamples: int, seed: SeedSpec) -> list:
    """Reference oracle: numpy's bounded integers on each row's own stream."""
    phases = np.arange(n) % p
    counts = np.bincount(phases, minlength=p)
    root = np.random.SeedSequence(seed.master_seed, spawn_key=seed.labels)
    return [phases + p * np.random.Generator(np.random.PCG64(seq)).integers(0, counts[phases], size=n)
            for seq in root.spawn(resamples)]


class TestResampleIndicesDraw:
    """The draws of _resample_blocks against numpy's own bounded integers."""

    def assert_rows_equal_numpy(self, n, p, resamples, seed):
        rows = index_rows(n, p, resamples, seed)
        for b, (got, want) in enumerate(zip(rows, numpy_rows(n, p, resamples, seed), strict=True)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=f"n={n} p={p} row {b}")

    def test_every_layout_up_to_40_equals_numpy(self):
        # Covers p | n, p not dividing n, and n = 2p (two members a phase).
        for n in range(4, 41):
            for p in range(2, n // 2 + 1):
                self.assert_rows_equal_numpy(n, p, 4, SeedSpec(n, (p,)))

    @pytest.mark.parametrize("n,p", [(990, 100), (1000, 168), (8760, 24), (8760, 168)])
    def test_long_series_equal_numpy(self, n, p):
        self.assert_rows_equal_numpy(n, p, 20, SeedSpec(7, (n, p)))

    def test_row_with_rejected_word_equals_numpy(self):
        n, p, seed = 8760, 2, SeedSpec(430)
        bound = n // p
        (seq,) = np.random.SeedSequence(430).spawn(1)
        words = np.random.PCG64(seq).random_raw(n // 2).astype("<u8").view("<u4").astype(np.uint64)
        # numpy's Lemire step rejects a word whose product's low half is below 2**32 % bound.
        rejected = np.flatnonzero((words * bound) % 2**32 < 2**32 % bound)
        assert rejected.tolist() == [1725]
        self.assert_rows_equal_numpy(n, p, 1, seed)


def seed_sequence_states(master: int, labels: tuple, children) -> np.ndarray:
    """Reference oracle: the state numpy's own SeedSequence hands PCG64 for each child b."""
    rows = [np.random.SeedSequence(master, spawn_key=labels + (int(b),)).generate_state(4, np.uint64)
            for b in children]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), 4)


# Integers below 2**32 take one spawn-key word, larger ones several.
words = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128))


class TestChildStates:
    @settings(max_examples=80, deadline=None)
    @given(
        master=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        labels=st.lists(words, max_size=4).map(tuple),
        children=st.lists(st.one_of(st.integers(0, 500), st.integers(2**32 - 500, 2**32 - 1)),
                          min_size=1, max_size=6),
    )
    @example(master=0, labels=(), children=[0, 1, 2**32 - 1])
    @example(master=2**32, labels=(2**32,), children=[2**32 - 2])
    @example(master=2**64 - 1, labels=(2**64 - 1, 0, 5), children=[0, 2**32 - 1])
    def test_states_equal_seed_sequence(self, master, labels, children):
        got = child_states(SeedSpec(master, labels), np.array(children, dtype=np.uint32))
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, seed_sequence_states(master, labels, children))

    def test_draws_make_no_seed_sequence_per_row(self, monkeypatch):
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("SeedSequence.spawn called")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        stack = np.arange(3 * 8760.0).reshape(3, 8760)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # SeedSpec(430) at p = 2 draws a rejected word in row 0, so the
            # Generator fallback runs too (see the rejected-word test above).
            rows = bootstrap_phase_means(stack, 2, 3, SeedSpec(430))
            bootstrap_phase_means(stack[:, :1000], 50, 40, SeedSpec(7, (2**40, 3)))
        assert rows.shape == (3, 2, 3)

    def test_resamples_must_fit_32_bits(self):
        # PipelineConfig holds the bound, so no draw ever sees a larger count.
        with pytest.raises(ValueError, match="at most 4294967295 resamples, got 4294967296"):
            PipelineConfig(periods=(2,), resamples=2**32, seed=SeedSpec(0))


def reference_phase_means(stack, p: int, resamples: int, seed: SeedSpec) -> np.ndarray:
    """Reference oracle: one resample at a time, phase sums by np.bincount, as a (resamples, p, k) array.

    Each row's offsets come from its own PCG64 words by numpy's Lemire rule;
    a row holding a rejected word is redrawn by Generator.integers. Row i's
    phase s of the stack lands in bin i*p + s, and bincount adds each bin's
    weights in index order.
    """
    values = np.asarray(stack, dtype=float)
    k, n = values.shape
    phases = np.arange(n) % p
    counts = np.bincount(phases, minlength=p)
    bounds = counts[phases]
    bound = bounds.astype(np.uint64)
    threshold = (np.uint64(2**32) % bound).astype(np.uint32)

    def draw(state):
        raw = np.random.PCG64(_ChildSeed(state)).random_raw((n + 1) // 2)
        words = raw.astype("<u8", copy=False).view("<u4")[:n]
        if np.any(words * bound.astype(np.uint32) < threshold):
            generator = np.random.Generator(np.random.PCG64(_ChildSeed(state)))
            return phases + p * generator.integers(0, bounds, size=n)
        offsets = (words.astype(np.uint64) * bound) >> 32
        return (phases + p * offsets).astype(np.int64)

    bins = (phases + p * np.arange(k)[:, None]).ravel()
    flat = values.ravel()
    starts = n * np.arange(k)[:, None]
    estimates = np.empty((resamples, p, k))
    for b, state in enumerate(child_states(seed, np.arange(resamples, dtype=np.uint32))):
        gathered = flat.take(draw(state) + starts)
        sums = np.bincount(bins, weights=gathered.ravel(), minlength=k * p)
        estimates[b] = (sums.reshape(k, p) / counts).T
    return estimates


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def spread_stack(k: int, n: int, data_seed: int) -> np.ndarray:
    """Values of both signs with magnitudes from 1e-8 to 1e16, where the summing order shows."""
    rng = np.random.default_rng(data_seed)
    signs = rng.choice([-1.0, 1.0], size=(k, n))
    return signs * rng.uniform(1.0, 10.0, size=(k, n)) * 10.0 ** rng.integers(-8, 17, size=(k, n))


def block_rows(n: int) -> int:
    return max(1, bootstrap._BLOCK_SLOTS // n)


class TestBlockDraw:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 3]),
        n=st.integers(20, 2500),
        period=st.data(),
        resamples=st.sampled_from(["below", "equal", "ragged"]),
        data_seed=st.integers(0, 2**32 - 1),
        negative_zero=st.booleans(),
    )
    # p divides n; p does not divide n; n = 2p + 1 (one phase of three); n = 2p.
    @example(k=2, n=1000, period=50, resamples="ragged", data_seed=1, negative_zero=False)
    @example(k=3, n=1000, period=168, resamples="equal", data_seed=2, negative_zero=False)
    @example(k=2, n=61, period=30, resamples="ragged", data_seed=3, negative_zero=False)
    @example(k=2, n=50, period=25, resamples="below", data_seed=5, negative_zero=True)
    @example(k=3, n=2000, period=7, resamples="ragged", data_seed=6, negative_zero=True)
    def test_equals_one_resample_at_a_time(self, k, n, period, resamples, data_seed, negative_zero):
        p = period if isinstance(period, int) else period.draw(st.integers(2, n // 2), label="p")
        rows = block_rows(n)
        count = {"below": max(1, rows - 1), "equal": rows, "ragged": 2 * rows + 1}[resamples]
        stack = np.full((k, n), -0.0) if negative_zero else spread_stack(k, n, data_seed)
        seed = SeedSpec(data_seed, (n, p))
        got = bootstrap_phase_means(stack, p, count, seed)
        assert_same_bits(got, reference_phase_means(stack, p, count, seed))
        if negative_zero:
            assert not np.signbit(got).any()

    def test_rejected_word_rows_inside_a_block(self, monkeypatch):
        n, p, seed = 8760, 2, SeedSpec(430)
        bound = n // p
        states = child_states(seed, np.arange(235, dtype=np.uint32))
        words = np.array([np.random.PCG64(_ChildSeed(s)).random_raw(n // 2) for s in states])
        words = words.astype("<u8").view("<u4").astype(np.uint64)
        # numpy's Lemire step rejects a word whose product's low half is below 2**32 % bound.
        rejected = np.flatnonzero(((words * bound) % 2**32 < 2**32 % bound).any(axis=1))
        assert rejected.tolist() == [0, 232]
        # Five rows a block: row 0 opens the first block, row 232 sits mid-way in rows 230..234.
        monkeypatch.setattr(bootstrap, "_BLOCK_SLOTS", 5 * n)
        stack = spread_stack(2, n, 430)
        want = reference_phase_means(stack, p, 235, seed)
        redraws = []
        real_generator = np.random.Generator
        monkeypatch.setattr(np.random, "Generator", lambda bits: redraws.append(bits) or real_generator(bits))
        assert_same_bits(bootstrap_phase_means(stack, p, 235, seed), want)
        # numpy redraws those two rows, and no other.
        assert len(redraws) == 2

    # At 13 slots a block holds 1 row, or 2 at n = 5 and 6; at 2**20, all 45.
    @pytest.mark.parametrize("k,n,p", [(2, 1000, 50), (3, 61, 6), (1, 50, 25), (2, 5, 2), (1, 6, 3)])
    def test_block_size_does_not_matter(self, monkeypatch, k, n, p):
        stack = spread_stack(k, n, n)
        seed = SeedSpec(11, (n, p))
        want = bootstrap_phase_means(stack, p, 45, seed)
        for slots in (1, 13, 2**20):
            monkeypatch.setattr(bootstrap, "_BLOCK_SLOTS", slots)
            assert_same_bits(bootstrap_phase_means(stack, p, 45, seed), want)
            rows = index_rows(n, p, 45, seed)
            monkeypatch.undo()
            np.testing.assert_array_equal(rows, index_rows(n, p, 45, seed))

    @settings(max_examples=60, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        p=st.integers(2, 9),
        columns=st.data(),
    )
    def test_sum_over_a_non_last_axis_adds_in_index_order(self, lead, p, columns):
        # bootstrap_phase_means relies on this to match np.bincount bit for bit.
        cycles = columns.draw(st.integers(2, 12), label="cycles")
        terms = st.sampled_from([1e16, -1e16, 1.0, -1.0, 3.0, 1e-8, 2.0**53, -0.5])
        size = math.prod(lead) * cycles * p
        flat = columns.draw(st.lists(terms, min_size=size, max_size=size), label="values")
        arr = np.array(flat).reshape(lead + (cycles, p))
        sums = arr.sum(axis=-2)
        for where in np.ndindex(lead + (p,)):
            column = arr[where[:-1] + (slice(None), where[-1])]
            assert sums[where] == functools.reduce(operator.add, column.tolist())

    def test_order_sensitive_sum_is_left_to_right(self):
        arr = np.array([[1e16, 1e16], [1.0, 1.0], [-1e16, -1e16]])
        # Left to right, 1e16 + 1.0 rounds back to 1e16; any other order keeps the 1.0.
        np.testing.assert_array_equal(arr.sum(axis=-2), [0.0, 0.0])
        assert math.fsum(arr[:, 0]) == 1.0


class TestBootstrapPeriodicMeans:
    def test_constant(self):
        run = bootstrap_periodic_means(TimeSeries([4.0] * 8), 2, 16, SeedSpec(0))
        np.testing.assert_array_equal(run, np.full((16, 2), 4.0))

    def test_matches_exhaustive_enumeration(self):
        # phase 0 of [1,2,3,4] at p=2 draws pairs from {1,3}: means 1,2,2,3.
        run = bootstrap_periodic_means(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2, 20_000, SeedSpec(99))
        values, counts = np.unique(run[:, 0], return_counts=True)
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])
        freq = counts / counts.sum()
        np.testing.assert_allclose(freq, [0.25, 0.5, 0.25], atol=0.02)

    def test_mean_matches_sample_phase_mean(self):
        rng = np.random.default_rng(14)
        series = TimeSeries(rng.normal(size=12))
        run = bootstrap_periodic_means(series, 3, 100_000, SeedSpec(5))
        sample_means = np.array([series.values[s::3].mean() for s in range(3)])
        boot_mean = run.mean(axis=0)
        stderr = run.std(axis=0, ddof=1) / np.sqrt(run.shape[0])
        assert np.all(np.abs(boot_mean - sample_means) <= 3 * stderr)

    def test_deterministic(self):
        series = TimeSeries(np.arange(10.0))
        a = bootstrap_periodic_means(series, 4, 25, SeedSpec(77, (1, 2)))
        b = bootstrap_periodic_means(series, 4, 25, SeedSpec(77, (1, 2)))
        np.testing.assert_array_equal(a, b)

    def test_rows_equal_op_composition_exactly(self):
        # dual route: the inlined loop must reproduce the composed ops bit for bit
        rng = np.random.default_rng(20)
        series = TimeSeries(rng.normal(size=23))
        seed = SeedSpec(55, (4,))
        run = bootstrap_periodic_means(series, 5, 30, seed)
        phases = np.arange(series.n) % 5
        for b in range(30):
            values = pbb_resample(series, 5, seed.child(b).generator()).values
            row = np.bincount(phases, weights=values) / np.bincount(phases)
            np.testing.assert_array_equal(run[b], row)

    def test_resample_rows_independent_of_batch(self):
        # row b only depends on seed.child(b), not on how many rows run
        series = TimeSeries(np.arange(10.0))
        small = bootstrap_periodic_means(series, 2, 3, SeedSpec(6))
        large = bootstrap_periodic_means(series, 2, 8, SeedSpec(6))
        np.testing.assert_array_equal(small, large[:3])

    @pytest.mark.parametrize("n,p", [(60, 6), (61, 6)])
    def test_stack_rows_equal_single_series_runs(self, n, p):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, n))
        seed = SeedSpec(8, (2,))
        rows = bootstrap_phase_means(stack, p, 12, seed)
        assert rows.shape == (12, p, 3)
        for i, values in enumerate(stack):
            single = bootstrap_periodic_means(TimeSeries(values), p, 12, seed)
            np.testing.assert_array_equal(rows[..., i], single)


class TestCiBand:
    def test_degenerate_rows(self):
        band = ci_band(np.full((7, 4), 2.5))
        np.testing.assert_array_equal(band.lower, [2.5] * 4)
        np.testing.assert_array_equal(band.upper, [2.5] * 4)
        np.testing.assert_array_equal(band.point, [2.5] * 4)

    def test_interpolated_quantiles_midband(self):
        band = ci_band(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]), alpha=0.5)
        assert band.lower[0] == quantile_oracle([1, 2, 3, 4, 5], 0.25) == 2.0
        assert band.upper[0] == quantile_oracle([1, 2, 3, 4, 5], 0.75) == 4.0

    def test_interpolated_quantiles_two_values(self):
        band = ci_band(np.array([[0.0], [10.0]]), alpha=0.05)
        assert band.lower[0] == pytest.approx(quantile_oracle([0, 10], 0.025)) == pytest.approx(0.25)
        assert band.upper[0] == pytest.approx(quantile_oracle([0, 10], 0.975)) == pytest.approx(9.75)

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(40, 6))
        band = ci_band(data, alpha=0.1)
        for col in range(6):
            assert band.lower[col] == pytest.approx(quantile_oracle(data[:, col], 0.05), rel=1e-12)
            assert band.upper[col] == pytest.approx(quantile_oracle(data[:, col], 0.95), rel=1e-12)

    @given(st.floats(0.01, 0.4), st.floats(0.45, 0.95), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_monotone_in_alpha(self, alpha_small, alpha_large, seed):
        data = np.random.default_rng(seed).normal(size=(25, 4))
        tight = ci_band(data, alpha=alpha_large)
        wide = ci_band(data, alpha=alpha_small)
        assert np.all(wide.width >= tight.width - 1e-12)

    @given(st.floats(0.1, 50), st.floats(-100, 100), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_affine_equivariance(self, a, b, seed):
        data = np.random.default_rng(seed).normal(size=(20, 3))
        base = ci_band(data)
        mapped = ci_band(a * data + b)
        scale = max(1.0, abs(a) * np.abs(data).max() + abs(b))
        np.testing.assert_allclose(mapped.lower, a * base.lower + b, atol=1e-12 * scale)
        np.testing.assert_allclose(mapped.upper, a * base.upper + b, atol=1e-12 * scale)
        np.testing.assert_allclose(mapped.point, a * base.point + b, atol=1e-12 * scale)

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientResamplesError):
            ci_band(np.ones((1, 4)))

    @pytest.mark.parametrize("lower,point,upper,message", [
        ([0.0, 0.0], [1.0, 1.0], [2.0, 2.0, 2.0], "band arrays must share one length"),
        ([0.0, 3.0], [1.0, 1.0], [2.0, 2.0], "lower band must not exceed upper band"),
    ])
    def test_band_rejects_malformed_arrays(self, lower, point, upper, message):
        with pytest.raises(ValueError, match=message):
            CIBand(lower=np.array(lower), point=np.array(point), upper=np.array(upper))

    @given(
        resamples=st.one_of(st.integers(2, 12), st.integers(13, 2000)),
        kinds=st.lists(st.sampled_from(["normal", "ties", "constant", "negative zeros"]), min_size=1, max_size=5),
        alpha=st.one_of(st.sampled_from([0.05, 0.1, 0.5]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        data_seed=st.integers(0, 2**32 - 1),
    )
    # (B - 1) * q is exactly 5.0 and 195.0: g = 0 at both tails.
    @example(resamples=201, kinds=["normal", "ties"], alpha=0.05, data_seed=0)
    # (B - 1) * q is exactly 0.5 and 1.5: g = 0.5, the branch point of numpy's _lerp.
    @example(resamples=3, kinds=["normal", "negative zeros"], alpha=0.5, data_seed=1)
    @example(resamples=2, kinds=["constant"], alpha=0.05, data_seed=2)
    @settings(max_examples=80, deadline=None)
    def test_bits_equal_np_quantile(self, resamples, kinds, alpha, data_seed):
        rng = np.random.default_rng(data_seed)
        samples = np.stack([band_column(kind, resamples, rng) for kind in kinds], axis=1)
        got, want = ci_band(samples, alpha), quantile_band(samples, alpha)
        for name in ("lower", "point", "upper"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        assert got.alpha == alpha

    def test_one_dimensional_samples_give_one_column(self):
        samples = np.random.default_rng(4).normal(size=37)
        got, want = ci_band(samples, 0.1), quantile_band(samples, 0.1)
        for name in ("lower", "point", "upper"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        assert got.n == 1

    @given(
        resamples=st.integers(2, 300),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_signed_zero_ties_agree_up_to_sign(self, resamples, alpha, data_seed):
        """A column holding both -0.0 and +0.0 may give a zero bound of the other sign than np.quantile.

        The two zeros compare equal, so which one lands at an order statistic
        depends on the algorithm: a sort and numpy's partition place them
        differently, and the linear rule returns -0.0 only where g >= 0.5 and
        both neighbours are -0.0. So the bounds are compared as values, not
        bits. Pipelines never pass -0.0: series._phase_means adds +0.0.
        """
        samples = np.random.default_rng(data_seed).choice([-0.0, 0.0, 1.0], size=(resamples, 4))
        got, want = ci_band(samples, alpha), quantile_band(samples, alpha)
        np.testing.assert_array_equal(got.lower, want.lower)
        np.testing.assert_array_equal(got.upper, want.upper)
        assert_same_bits(got.point, want.point)

    @given(
        resamples=st.integers(2, 300),
        special=st.sampled_from([np.inf, -np.inf, np.nan]),
        count=st.integers(1, 300),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        errors=st.sampled_from(["ignore", "raise"]),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_column_raises_as_np_quantile(self, resamples, special, count, alpha, errors, data_seed):
        # Under "raise", as vmbpbb run sets it, an infinity can fail the arithmetic before CIBand's
        # finiteness check; either way both paths must raise the same error.
        rng = np.random.default_rng(data_seed)
        samples = rng.normal(size=(resamples, 3))
        samples[rng.integers(0, resamples, size=count), 1] = special
        with np.errstate(over=errors, invalid=errors):
            got, want = band_or_error(ci_band, samples, alpha), band_or_error(quantile_band, samples, alpha)
        assert got is want
        assert issubclass(got, (ValueError, FloatingPointError))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ci_band(np.ones((3, 2)), alpha=0.0)
        with pytest.raises(ValueError):
            ci_band(np.ones((3, 2)), alpha=1.0)
