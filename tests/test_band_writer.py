"""write_rows_csv with a cycle, as `run` writes its band files, against the same writer without one.

A band file passed with its cycle must hold the bytes that write_rows_csv
writes for the same columns tiled out in full, and that csv.writer writes
for them.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_csv_writer import SPECIAL_FLOATS, texts, write_rows_csv_oracle

from vmbpbb import csvio
from vmbpbb.csvio import write_rows_csv


def assert_band_bytes(tmp_path, header, cycle_columns, cycle, n, start):
    """cycle_columns hold one cycle (or, for cycle > n, at least n rows) of each later column."""
    tiled = [column[np.arange(n) % cycle] for column in cycle_columns]
    times = range(start, start + n)
    write_rows_csv(tmp_path / "oracle.csv", header, [times, *tiled])
    write_rows_csv(tmp_path / "band.csv", header, [list(map(str, times)), *tiled], cycle=cycle)
    assert (tmp_path / "band.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    # Both writer modes share their code, so the bytes are held to csv.writer's too.
    write_rows_csv_oracle(tmp_path / "csv.csv", header, zip(times, *tiled))
    assert (tmp_path / "band.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()


floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def bands(draw):
    cycle = draw(st.integers(2, 12))
    # n below, at and above the cycle, mostly not a multiple of it.
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, 3))
    columns = [np.array(draw(st.lists(floats, min_size=cycle, max_size=cycle)), dtype=np.float64)
               for _ in range(width)]
    header = [draw(texts) for _ in range(width + 1)]
    return header, columns, cycle, n, draw(st.integers(-30, 30))


@given(bands(), st.sampled_from([1, 2, 5, 2048]))
@settings(max_examples=300, deadline=None)
def test_band_bytes_match_tiled_columns(tmp_path_factory, band, piece_rows):
    header, columns, cycle, n, start = band
    with mock.patch.object(csvio, "_PIECE_ROWS", piece_rows):
        assert_band_bytes(tmp_path_factory.mktemp("csv"), header, columns, cycle, n, start)


def test_cycle_two_with_signed_zeros_and_a_negative_start(tmp_path):
    columns = [np.array([0.0, -0.0]), np.array([-0.0, np.nan]), np.array([np.inf, 5e-324])]
    assert_band_bytes(tmp_path, ["t", "lower", "point", "upper"], columns, 2, 5, -3)
    assert (tmp_path / "band.csv").read_text() == (
        "t,lower,point,upper\n-3,0,-0,inf\n-2,-0,nan,4.9406564584124654e-324\n"
        "-1,0,-0,inf\n0,-0,nan,4.9406564584124654e-324\n1,0,-0,inf\n"
    )


def test_cycle_longer_than_the_series(tmp_path):
    # The aggregate's cycle is lcm(periods), which may exceed n; each row is then its own.
    column = np.arange(9.0) / 7
    assert_band_bytes(tmp_path, ["t", "v"], [column], 9, 6, 4)


def test_many_pieces(tmp_path):
    rng = np.random.default_rng(5)
    columns = [rng.normal(size=168) for _ in range(3)]
    assert_band_bytes(tmp_path, ["t", "lower", "point", "upper"], columns, 168, 3 * 2048 + 5, 0)
