"""CSV input/output and run manifests for the command-line surface.

Every input CSV, a ``t,value`` series or a ``reps.csv`` log, is read by one
streaming reader, ``read_rows``, a chunk of rows at a time: UTF-8 text (a
leading byte-order mark is skipped), a header that matches after stripping
spaces and folding case, the header's number of fields on every non-blank
row, no "_" in a data cell, and at least one data row. A broken rule is a
CsvFormatError naming the file and, where there is one, the line. In a series
the time column must be consecutive integers (unit spacing, no gaps) and
every value finite. Every output CSV is written by one writer,
``write_rows_csv``, with csv.writer's bytes; floats are written with 17
significant digits so every file round-trips double precision exactly. A
manifest is a plain dict written as sorted JSON.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import platform
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CsvFormatError
from .series import TimeSeries

TOOL_NAME = "vmbpbb"


def fmt_float(v: float) -> str:
    return format(float(v), ".17g")


# Data rows are read, checked and parsed this many at a time. A chunk that
# breaks a rule is walked row by row, so its error names the row that a
# row-by-row reader names.
_CHUNK_ROWS = 2048
# Every CSV is written this many rows per write, so no whole file is held.
_PIECE_ROWS = 2048


def _check_row(name, lineno, row, width) -> None:
    if len(row) != width:
        raise CsvFormatError(f"{name} line {lineno}: expected {width} columns, got {len(row)}")
    if "_" in "".join(row):
        cell = next(c for c in row if "_" in c)
        raise CsvFormatError(f"{name} line {lineno}: {cell!r} is not a number ('_' in a cell)")


def _row_chunks(path, header):
    """Yield (line number, rows) for runs of consecutive data rows of a CSV with this header.

    The rules of read_rows hold, checked on a chunk of rows at once. Where a
    chunk holds a blank row or breaks a rule, its rows are yielded one at a
    time and the first bad row raises, so a caller sees every row before the
    bad one first. An error met while reading (text that is not UTF-8, a csv
    error) is raised after the rows read before it have been yielded.
    """
    path = Path(path)
    width = len(header)
    found = False
    try:
        # utf-8-sig reads past the byte-order mark that some editors write first.
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise CsvFormatError(f"{path.name}: empty input file")
            if [c.strip().lower() for c in first] != header:
                raise CsvFormatError(f"{path.name} line 1: expected header {','.join(header)!r}")
            lineno = 2
            while True:
                rows, failure = [], None
                try:
                    # extend keeps the rows it read before an error.
                    rows.extend(itertools.islice(reader, _CHUNK_ROWS))
                except (csv.Error, UnicodeDecodeError) as exc:
                    failure = exc
                cells = "".join(itertools.chain.from_iterable(rows))
                if set(map(len, rows)) <= {width} and "_" not in cells:
                    if rows:
                        found = True
                        yield lineno, rows
                else:
                    for offset, row in enumerate(rows):
                        if row:
                            _check_row(path.name, lineno + offset, row, width)
                            found = True
                            yield lineno + offset, [row]
                if failure is not None:
                    raise failure
                if len(rows) < _CHUNK_ROWS:
                    break
                lineno += len(rows)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path.name}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise CsvFormatError(f"{path.name} line {reader.line_num}: {exc}") from exc
    if not found:
        raise CsvFormatError(f"{path.name}: no data rows")


def read_rows(path, header):
    """Yield (line number, fields) for each non-blank data row of a CSV with this header.

    header holds lowercase names; a file's header matches after strip().lower()
    of each name. Rows are read a chunk at a time, so a caller never holds
    the whole file. The rules every input CSV shares raise CsvFormatError: text
    that is not UTF-8, an empty file, another header, a row with another field
    count, a cell holding "_" or over csv's size limit, no data rows. Every data cell of both input
    formats is a number, and int() and float() would read "1_0" as 10.
    """
    for lineno, rows in _row_chunks(path, header):
        yield from enumerate(rows, start=lineno)


def _series_rows(name, lineno, rows, last):
    """(first t, last t, values) of consecutive series rows from line lineno.

    last is the t of the row before them, None at the first row. The columns
    are parsed whole, the t column compared with the run of integers it must
    be and the values' sum checked for inf and nan. If that fails, the rows are
    walked in order, so the first bad row raises the error a row-by-row
    reader raises.
    """
    t_texts, v_texts = zip(*rows)
    try:
        times = list(map(int, t_texts))
        values = list(map(float, v_texts))
    except ValueError:
        pass
    else:
        first = times[0] if last is None else last + 1
        # The sum is finite only if every value is; values whose sum overflows
        # are walked too, and pass.
        if times == list(range(first, first + len(times))) and math.isfinite(sum(values)):
            return first, times[-1], values
    first, values = None, []
    for lineno, (t_text, v_text) in enumerate(rows, start=lineno):
        try:
            t = int(t_text)
            value = float(v_text)
        except ValueError as exc:
            raise CsvFormatError(f"{name} line {lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise CsvFormatError(f"{name} line {lineno}: {v_text.strip()!r} is not a finite number")
        values.append(value)
        if last is not None and t != last + 1:
            raise CsvFormatError(
                f"{name} line {lineno}: time column must be consecutive integers "
                f"(got {t} after {last})"
            )
        first = t if first is None else first
        last = t
    return first, last, values


def read_series_csv(path) -> TimeSeries:
    """Parse a t,value CSV into a TimeSeries; the first t becomes start_index."""
    name = Path(path).name
    start = last = None
    values = []
    for lineno, rows in _row_chunks(path, ["t", "value"]):
        first, last, chunk = _series_rows(name, lineno, rows, last)
        start = first if start is None else start
        values += chunk
    return TimeSeries(values, start_index=start)


def _quoted(text: str) -> str:
    """A field as csv.writer's minimal quoting writes it with a "\\n" line terminator."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _texts(column) -> list:
    """The written fields of a column's cells.

    A float64 array is formatted from its ndarray.tolist() floats and a range
    with str(); neither needs quoting. Any other cell is formatted on its own:
    floats (np.float64 included, np.float32 not) with 17 significant digits,
    None as an empty field, the rest with str(); then it is quoted.
    """
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return [fmt_float(v) for v in column.tolist()]
    if isinstance(column, range):
        return list(map(str, column))
    return [
        _quoted(fmt_float(cell) if isinstance(cell, float) else ("" if cell is None else str(cell)))
        for cell in column
    ]


def write_rows_csv(path, header, columns, cycle=None) -> None:
    """Write one column per header name, all of one length; floats get full precision.

    The bytes are those csv.writer writes with minimal quoting and "\\n" line
    ends, a row holding one empty field included (it is written as "").

    Row i is its first field plus the tail of row i % cycle, and a tail (the
    later columns' fields and the line end) is built for each of the first
    cycle rows only. Without cycle, every row has its own. A band file passes
    cycle: columns[0] then holds each row's first field as written, such as
    str(t), shared by every band of a run, and each later column is a float64
    array whose row i equals its row i % cycle.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    first, *later = columns or [()]
    if cycle is None:
        first = _texts(first)
        if any(len(column) != len(first) for column in later):
            raise ValueError("columns must all have one length")
    # The later columns' texts are let go once the tails hold them.
    tails = (["," + ",".join(cells) + "\n" for cells in zip(*[_texts(column[:cycle]) for column in later])]
             if later else ["\n"])
    head = ",".join(_texts(header))
    if len(header) == 1:
        # csv.writer writes a lone empty field as "", so the line does not read back as blank.
        head, *first = [text or '""' for text in (head, *first)]
    lines = itertools.chain([head + "\n"], map(operator.add, first, itertools.cycle(tails)))
    with Path(path).open("w", newline="") as fh:
        fh.writelines(iter(lambda: "".join(itertools.islice(lines, _PIECE_ROWS)), ""))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.cache
def _environment() -> tuple:
    """The (key, value) pairs of the host a process runs on; read once per process.

    The draws' bits rest on numpy's PCG64 seeding and the floats on numpy's
    and the platform's arithmetic, so a byte difference between two runs can
    be traced to a difference here.
    """
    return (
        ("cpu_count", os.cpu_count()),
        ("numpy", np.__version__),
        ("platform", platform.platform()),
        ("python", platform.python_version()),
    )


def manifest_for(command: str, config: dict, outputs, master_seed=None, input_paths=()) -> dict:
    """Everything needed to reproduce a command's outputs byte for byte.

    outputs names the files the command wrote, relative to the manifest.
    """
    return {
        "command": command,
        "config": config,
        "master_seed": master_seed,
        "inputs": {str(p): sha256_file(p) for p in input_paths},
        "outputs": list(outputs),
        "tool": TOOL_NAME,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "environment": dict(_environment()),
    }


def write_manifest(path, manifest: dict) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
