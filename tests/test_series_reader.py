"""The series reader against a row-by-row oracle.

Both readers must give the same TimeSeries bits, or the same CsvFormatError
message, line number included, for every input.
"""

import csv
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmbpbb.csvio import read_series_csv
from vmbpbb.errors import CsvFormatError
from vmbpbb.series import TimeSeries

# Faults sit before, at and after row counts of this size, where a reader that parses blocks of rows would split.
CHUNK = 2048


def read_rows_oracle(path, header):
    """Reference oracle: the rules of every input CSV, checked one row at a time."""
    path = Path(path)
    found = False
    try:
        # utf-8-sig, as the program reads: a leading byte-order mark is skipped.
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise CsvFormatError(f"{path.name}: empty input file")
            if [c.strip().lower() for c in first] != header:
                raise CsvFormatError(f"{path.name} line 1: expected header {','.join(header)!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"{path.name} line {lineno}: expected {len(header)} columns, got {len(row)}"
                    )
                if "_" in "".join(row):
                    cell = next(c for c in row if "_" in c)
                    raise CsvFormatError(f"{path.name} line {lineno}: {cell!r} is not a number ('_' in a cell)")
                found = True
                yield lineno, row
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path.name}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise CsvFormatError(f"{path.name} line {reader.line_num}: {exc}") from exc
    if not found:
        raise CsvFormatError(f"{path.name}: no data rows")


def read_series_csv_oracle(path) -> TimeSeries:
    """Reference oracle: parse a t,value CSV one row at a time."""
    name = Path(path).name
    times = []
    values = []
    for lineno, (t_text, v_text) in read_rows_oracle(path, ["t", "value"]):
        try:
            t = int(t_text)
            v = float(v_text)
        except ValueError as exc:
            raise CsvFormatError(f"{name} line {lineno}: {exc}") from exc
        if not math.isfinite(v):
            raise CsvFormatError(f"{name} line {lineno}: {v_text.strip()!r} is not a finite number")
        if times and t != times[-1] + 1:
            raise CsvFormatError(
                f"{name} line {lineno}: time column must be consecutive integers "
                f"(got {t} after {times[-1]})"
            )
        times.append(t)
        values.append(v)
    try:
        return TimeSeries(values, start_index=times[0])
    except ValueError as exc:
        raise CsvFormatError(f"{name}: {exc}") from exc


def outcome(read, path):
    """The series' bits and start, or the error message."""
    try:
        series = read(path)
    except CsvFormatError as exc:
        return "error", str(exc)
    return series.values.tobytes(), series.start_index


def assert_same_outcome(path):
    got = outcome(read_series_csv, path)
    assert got == outcome(read_series_csv_oracle, path)
    return got


def series_lines(n, start=0):
    return [f"{start + i},{(i * 7919) % 1000 / 7.0!r}" for i in range(n)]


# Each fault replaces or shifts one data row; a gap shifts every later t.
FAULTS = {
    "bad-cell": lambda lines, k: lines[k].split(",")[0] + ",1.5x",
    "field-count": lambda lines, k: lines[k] + ",3",
    "underscore": lambda lines, k: lines[k].split(",")[0] + ",1_0",
    # float() reads 1e999 as inf.
    "non-finite": lambda lines, k: lines[k].split(",")[0] + ",1e999",
}


def with_fault(lines, fault, k):
    lines = list(lines)
    if fault == "gap":
        for i in range(k, len(lines)):
            t, v = lines[i].split(",")
            lines[i] = f"{int(t) + 1},{v}"
    else:
        lines[k] = FAULTS[fault](lines, k)
    return lines


def write_lines(path, lines, end="\n"):
    path.write_text("t,value" + end + "".join(line + end for line in lines), newline="")
    return path


@pytest.mark.parametrize("blanks", [False, True], ids=["no-blank", "blank-rows-before"])
@pytest.mark.parametrize("k", [0, CHUNK // 2, CHUNK - 1, CHUNK, 2 * CHUNK - 1],
                         ids=["first-row", "mid-chunk", "last-row", "next-chunk-first", "next-chunk-last"])
@pytest.mark.parametrize("fault", ["bad-cell", "field-count", "underscore", "non-finite", "gap"])
def test_fault_at_a_chunk_position_matches_oracle(tmp_path, fault, k, blanks):
    lines = with_fault(series_lines(2 * CHUNK + 10), fault, k)
    if blanks:
        # Blank rows count toward line numbers, before the fault's chunk and inside it.
        lines = lines[:k] + ["", ""] + lines[k:]
        lines = lines[:k // 2] + [""] + lines[k // 2:]
    kind, message = assert_same_outcome(write_lines(tmp_path / "series.csv", lines))
    if fault != "gap" or k > 0:
        assert kind == "error" and f"line {k + 2 + 3 * blanks}:" in message


def test_clean_series_over_several_chunks_matches_oracle(tmp_path):
    path = write_lines(tmp_path / "series.csv", series_lines(2 * CHUNK + 1, start=-CHUNK))
    assert assert_same_outcome(path)[1] == -CHUNK


def test_quoted_cells_and_crlf_line_ends(tmp_path):
    lines = [f'"{t}","{v}"' for t, v in (line.split(",") for line in series_lines(30, start=5))]
    # A quoted cell may span lines; a row counts as one line number all the same.
    lines[3] = '"8\n",' + lines[3].split(",")[1]
    assert assert_same_outcome(write_lines(tmp_path / "series.csv", lines, end="\r\n"))[1] == 5
    bad = write_lines(tmp_path / "bad.csv", lines[:10] + ['"15","x"'], end="\r\n")
    assert assert_same_outcome(bad) == ("error", "bad.csv line 12: could not convert string to float: 'x'")


def test_nul_byte_in_a_cell(tmp_path):
    lines = series_lines(20)
    lines[9] = "9,1.\x005"
    kind, message = assert_same_outcome(write_lines(tmp_path / "series.csv", lines))
    assert kind == "error" and message.startswith("series.csv line 11: could not convert")


@pytest.mark.parametrize("bad_row", [None, 3], ids=["alone", "after-a-bad-cell"])
def test_field_over_the_size_limit(tmp_path, bad_row):
    lines = series_lines(CHUNK)
    lines[CHUNK - 100] = f"{CHUNK - 100}," + "9" * (csv.field_size_limit() + 1)
    if bad_row is not None:
        lines[bad_row] = f"{bad_row},nope"
    kind, message = assert_same_outcome(write_lines(tmp_path / "series.csv", lines))
    # csv's own error is raised only after every row read before it has been parsed.
    expected = "line 5: could not convert" if bad_row is not None else "field larger than field limit"
    assert kind == "error" and expected in message


def test_bytes_that_are_not_utf8_after_a_bad_cell(tmp_path):
    # The bad bytes sit in a later block of the text decoder than the bad cell.
    text = "t,value\n" + "".join(line + "\n" for line in series_lines(CHUNK))
    data = text.replace("\n3,", "\n3,x", 1).encode()
    path = tmp_path / "series.csv"
    path.write_bytes(data[:-200] + b"\xe9" + data[-199:])
    assert assert_same_outcome(path)[1].startswith("series.csv line 5: could not convert")
    path.write_bytes(text.encode()[:-200] + b"\xe9" + text.encode()[-199:])
    assert assert_same_outcome(path)[1].startswith("series.csv: not UTF-8 text")


# The last file's values are finite, though their sum overflows.
@pytest.mark.parametrize("text", ["", "t,value\n", "t,value\n\n\n", "time,value\n0,1\n", "\ufefft,value\n0,1.5\n",
                                  "t,value\n0,inf\n", "t,value\n0,1\n1\n", " T , Value \n3,1\n4,2\n",
                                  "t,value\n0,1e308\n1,1e308\n2,-1e308\n"])
def test_small_files_match_oracle(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    assert_same_outcome(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN ", "1e999", "-1e999"])
def test_a_non_finite_value_names_its_line(tmp_path, cell):
    path = write_lines(tmp_path / "nan.csv", ["0,1", "", "1,2", f"2,{cell}", "3,4"])
    assert assert_same_outcome(path) == ("error", f"nan.csv line 5: {cell.strip()!r} is not a finite number")


row_kinds = st.sampled_from(["good"] * 6 + ["blank", "bad-cell", "field-count", "underscore", "non-finite", "gap",
                                           "quoted"])


@given(st.lists(row_kinds, min_size=1, max_size=30), st.integers(-5, 5), st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=200, deadline=None)
def test_random_rows_match_oracle(tmp_path_factory, kinds, start, end):
    lines, t = [], start
    for kind in kinds:
        if kind == "blank":
            lines.append("")
            continue
        t += 2 if kind == "gap" else 1
        line = f"{t},{t / 3!r}"
        if kind == "quoted":
            line = f'"{t}","{t / 3!r}"'
        elif kind != "good" and kind != "gap":
            line = FAULTS[kind]([line], 0)
        lines.append(line)
    path = write_lines(tmp_path_factory.mktemp("csv") / "series.csv", lines, end=end)
    assert_same_outcome(path)
