"""The CSV writer against the row-wise csv.writer implementation it replaced."""

import csv
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmbpbb import csvio
from vmbpbb.csvio import fmt_float, write_rows_csv


def write_rows_csv_oracle(path, header, rows) -> None:
    """Reference oracle: write rows of mixed ints/floats/strings; floats get full precision."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                fmt_float(cell) if isinstance(cell, float) else ("" if cell is None else str(cell))
                for cell in row
            ])


def assert_same_bytes(tmp_path, header, columns):
    rows = list(zip(*columns))
    write_rows_csv(tmp_path / "new.csv", header, columns)
    write_rows_csv_oracle(tmp_path / "oracle.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16, 1 / 3,
    math.inf, -math.inf, math.nan, -math.nan,
]

# csv.writer's quoting of a lone "\r" differs between Python versions; the
# program writes no such text, so it is left out.
texts = st.one_of(
    st.sampled_from(["", ",", '"', "\n", 'a"b,c', "x\ny", " lead", "t"]),
    st.text(st.characters(blacklist_characters="\r", blacklist_categories=("Cs",)), max_size=6),
)

mixed_cells = st.one_of(
    st.none(),
    st.integers(-(10**20), 10**20),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.floats(width=32).map(np.float32),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from(SPECIAL_FLOATS),
    texts,
)


@st.composite
def float64_column(draw, n):
    # A small pool drawn with replacement, so values repeat the way band columns do.
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), min_size=1, max_size=6))
    column = np.array([draw(st.sampled_from(pool)) for _ in range(2 * n)], dtype=np.float64)
    # Every second element: a strided view as well as contiguous arrays.
    return column[::2] if draw(st.booleans()) else column[:n]


@st.composite
def tables(draw):
    n_cols = draw(st.integers(0, 4))
    n_rows = draw(st.integers(0, 25)) if n_cols else 0
    header = [draw(texts) for _ in range(n_cols)]
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["float64", "float32", "int64", "mixed", "range"]))
        if kind == "float64":
            columns.append(draw(float64_column(n_rows)))
        elif kind == "float32":
            # Cells of a float32 array are no float instances, so they are written with str().
            columns.append(np.array([draw(st.floats(width=32)) for _ in range(n_rows)], dtype=np.float32))
        elif kind == "int64":
            column = np.array([draw(st.integers(-(2**63), 2**63 - 1)) for _ in range(2 * n_rows)], dtype=np.int64)
            columns.append(column[::2] if draw(st.booleans()) else column[:n_rows])
        elif kind == "range":
            start = draw(st.integers(-5, 5))
            columns.append(range(start, start + n_rows))
        else:
            columns.append([draw(mixed_cells) for _ in range(n_rows)])
    return header, columns


@given(tables(), st.sampled_from([1, 2, 5, 2048]))
@settings(max_examples=300, deadline=None)
def test_matches_csv_writer_oracle(tmp_path_factory, table, piece_rows):
    header, columns = table
    with mock.patch.object(csvio, "_PIECE_ROWS", piece_rows):
        assert_same_bytes(tmp_path_factory.mktemp("csv"), header, columns)


def test_signed_zeros_keep_their_sign(tmp_path):
    column = np.array([0.0, -0.0, 0.0, -0.0])
    assert_same_bytes(tmp_path, ["v"], [column])
    assert (tmp_path / "new.csv").read_text() == "v\n0\n-0\n0\n-0\n"


def test_one_column_empty_cell_is_quoted(tmp_path):
    assert_same_bytes(tmp_path, ["v"], [["", None, "x", ""]])
    assert (tmp_path / "new.csv").read_text() == 'v\n""\n""\nx\n""\n'


def test_one_column_empty_header_is_quoted(tmp_path):
    assert_same_bytes(tmp_path, [""], [np.array([1.5])])
    assert (tmp_path / "new.csv").read_text() == '""\n1.5\n'


def test_no_columns_write_an_empty_header_line(tmp_path):
    assert_same_bytes(tmp_path, [], [])
    assert (tmp_path / "new.csv").read_text() == "\n"


def test_integer_columns_match_their_cells(tmp_path):
    ints = np.array([-(2**63), -1, 0, 7, 2**63 - 1], dtype=np.int64)
    assert_same_bytes(tmp_path, ["r", "i", "u"], [range(-2, 3), ints, ints.view(np.uint64)])
    assert (tmp_path / "new.csv").read_text().splitlines()[1] == "-2,-9223372036854775808,9223372036854775808"


def test_float32_cells_use_str(tmp_path):
    assert_same_bytes(tmp_path, ["a", "b"], [[np.float32(0.1)], np.array([0.1])])
    assert (tmp_path / "new.csv").read_text() == "a,b\n0.1,0.10000000000000001\n"


def test_column_count_must_match_header(tmp_path):
    with pytest.raises(ValueError, match="header"):
        write_rows_csv(tmp_path / "x.csv", ["a", "b"], [[1]])


def test_columns_must_have_one_length(tmp_path):
    with pytest.raises(ValueError):
        write_rows_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], np.array([1.0])])
