import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmbpbb import (
    SeedSpec,
    TimeSeries,
    bootstrap_periodic_means,
    ci_band,
    pbb_resample,
)
from vmbpbb.bootstrap import bootstrap_phase_means, child_states, resample_indices
from vmbpbb.errors import InsufficientResamplesError, InvalidPeriodError
from vmbpbb.series import _frozen_array, _validate_period


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
    n = int(n)
    if n < 1:
        raise ValueError("series length must be positive")
    p = _validate_period(p, n)
    subsets = tuple(np.arange(s, n, p) for s in range(p))
    return PhasePartition(period=p, subsets=subsets)


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
    def test_constant_series(self):
        series = TimeSeries([2.0] * 9)
        out = pbb_resample(series, 3, SeedSpec(1).generator())
        np.testing.assert_array_equal(out.values, series.values)

    def test_singleton_phases_identity(self):
        series = TimeSeries([5.0, 6.0, 7.0])
        out = pbb_resample(series, 3, SeedSpec(1).generator())
        np.testing.assert_array_equal(out.values, series.values)

    def test_support_preserved(self):
        series = TimeSeries([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        rng = SeedSpec(8).generator()
        even, odd = {10.0, 30.0, 50.0}, {20.0, 40.0, 60.0}
        for _ in range(10_000):
            out = pbb_resample(series, 2, rng).values
            assert set(out[0::2]) <= even and set(out[1::2]) <= odd

    # None of these periods divides n, so the phases hold unequal counts.
    @pytest.mark.parametrize("n,p", [(n, p) for n in (7, 17, 101) for p in (2, 5, 24) if p <= n])
    def test_support_preserved_when_period_does_not_divide_n(self, n, p):
        part = phase_partition(n, p)
        # Each value is its own source index, so a resample reads back as indices.
        series = TimeSeries(np.arange(n, dtype=float))
        rng = SeedSpec(p, (n,)).generator()
        drawn_by = {
            "pbb_resample": [pbb_resample(series, p, rng).values.astype(int) for _ in range(200)],
            "resample_indices": list(resample_indices(n, p, 200, SeedSpec(n, (p,)))),
        }
        for source, rows in drawn_by.items():
            for s, subset in enumerate(part.subsets):
                # Slots t = s, s+p, ... all draw from subset s, and over 200 rows reach all of it.
                assert set(np.concatenate([row[s::p] for row in rows])) == set(subset), (source, s)

    def test_slot_frequencies_uniform(self):
        series = TimeSeries([10.0, 20.0, 30.0, 40.0])
        rng = SeedSpec(3).generator()
        draws = np.array([pbb_resample(series, 2, rng).values for _ in range(20_000)])
        # every slot draws its two phase values with frequency -> 1/2
        for slot, pair in [(0, (10, 30)), (1, (20, 40)), (2, (10, 30)), (3, (20, 40))]:
            frac = np.mean(draws[:, slot] == pair[0])
            assert frac == pytest.approx(0.5, abs=0.02)


def numpy_rows(n: int, p: int, resamples: int, seed: SeedSpec) -> list:
    """Reference oracle: numpy's bounded integers on each row's own stream."""
    phases = np.arange(n) % p
    counts = np.bincount(phases, minlength=p)
    root = np.random.SeedSequence(seed.master_seed, spawn_key=seed.labels)
    return [phases + p * np.random.Generator(np.random.PCG64(seq)).integers(0, counts[phases], size=n)
            for seq in root.spawn(resamples)]


class TestResampleIndicesDraw:
    def assert_rows_equal_numpy(self, n, p, resamples, seed):
        rows = list(resample_indices(n, p, resamples, seed))
        for b, (got, want) in enumerate(zip(rows, numpy_rows(n, p, resamples, seed), strict=True)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=f"n={n} p={p} row {b}")

    def test_every_layout_up_to_40_equals_numpy(self):
        # Covers p | n, p not dividing n, n == p and n < 2p (singleton phases).
        for n in range(1, 41):
            for p in range(1, n + 1):
                self.assert_rows_equal_numpy(n, p, 4, SeedSpec(n, (p,)))

    @pytest.mark.parametrize("n,p", [(990, 100), (1000, 168), (8760, 24), (8760, 168)])
    def test_long_series_equal_numpy(self, n, p):
        self.assert_rows_equal_numpy(n, p, 20, SeedSpec(7, (n, p)))

    @pytest.mark.parametrize("n,p", [(7, 7), (7, 5), (39, 20), (40, 39)])
    def test_singleton_phases_take_no_word(self, n, p):
        # The live slots' offsets are numpy's draw over their bounds alone, so
        # the slots of one-member phases consume nothing from the stream.
        phases = np.arange(n) % p
        bounds = np.bincount(phases, minlength=p)[phases]
        live = bounds > 1
        seed = SeedSpec(3, (n, p))
        (seq,) = np.random.SeedSequence(3, spawn_key=(n, p)).spawn(1)
        (row,) = resample_indices(n, p, 1, seed)
        offsets = (row - phases) // p
        assert np.all(offsets[~live] == 0)
        expected = np.random.Generator(np.random.PCG64(seq)).integers(0, bounds[live])
        np.testing.assert_array_equal(offsets[live], expected)

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
        assert rows.shape == (3, 3, 2)

    def test_resamples_must_fit_32_bits(self):
        with pytest.raises(ValueError, match="4294967296"):
            resample_indices(10, 2, 2**32, SeedSpec(0))


class TestBootstrapPeriodicMeans:
    def test_constant(self):
        run = bootstrap_periodic_means(TimeSeries([4.0] * 8), 2, 16, SeedSpec(0))
        np.testing.assert_array_equal(run, np.full((16, 2), 4.0))

    def test_singleton_phases(self):
        series = TimeSeries([1.0, 2.0, 3.0])
        run = bootstrap_periodic_means(series, 3, 10, SeedSpec(0))
        np.testing.assert_array_equal(run, np.tile(series.values, (10, 1)))

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
        from vmbpbb import periodic_mean

        for b in range(30):
            row = periodic_mean(pbb_resample(series, 5, seed.child(b).generator()), 5)
            np.testing.assert_array_equal(run[b], row)

    def test_resample_rows_independent_of_batch(self):
        # row b only depends on seed.child(b), not on how many rows run
        series = TimeSeries(np.arange(10.0))
        small = bootstrap_periodic_means(series, 2, 3, SeedSpec(6))
        large = bootstrap_periodic_means(series, 2, 8, SeedSpec(6))
        np.testing.assert_array_equal(small, large[:3])

    @pytest.mark.parametrize("n,p", [(60, 6), (61, 6), (7, 7)])
    def test_stack_rows_equal_single_series_runs(self, n, p):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, n))
        seed = SeedSpec(8, (2,))
        rows = bootstrap_phase_means(stack, p, 12, seed)
        assert rows.shape == (3, 12, p)
        for values, est in zip(stack, rows):
            single = bootstrap_periodic_means(TimeSeries(values), p, 12, seed)
            np.testing.assert_array_equal(est, single)

    def test_needs_one_resample(self):
        with pytest.raises(InsufficientResamplesError):
            bootstrap_periodic_means(TimeSeries([1.0, 2.0]), 2, 0, SeedSpec(0))


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

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ci_band(np.ones((3, 2)), alpha=0.0)
        with pytest.raises(ValueError):
            ci_band(np.ones((3, 2)), alpha=1.0)
