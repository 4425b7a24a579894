"""CSV input/output and run manifests for the command-line surface.

Every input CSV, a ``t,value`` series or a ``reps.csv`` log, is checked by
one streaming reader, ``read_rows``, a row at a time: UTF-8 text (a leading
byte-order mark is skipped), a header that matches after stripping spaces and
folding case, the header's number of fields on every non-blank row, no "_" in
a data cell, and at least one data row. A broken rule is a CsvFormatError
naming the file and, where there is one, the line. In a series the time
column must be consecutive integers (unit spacing, no gaps) and every value
finite. Every output CSV is written by one writer, ``write_rows_csv``, with
csv.writer's bytes; floats are written with 17 significant digits so every
file round-trips double precision exactly. A manifest is a plain dict written
as sorted JSON.
"""

from __future__ import annotations

import csv
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


# Every CSV is written this many rows per write, so no whole file is held.
_PIECE_ROWS = 2048


def read_rows(path, header):
    """Yield (line number, fields) for each non-blank data row of a CSV with this header.

    The one place the rules every input CSV shares are checked, a row at a
    time, so a caller never holds the whole file and the first row that breaks
    a rule names its line. header holds lowercase names; a file's header
    matches after strip().lower() of each name. CsvFormatError is raised for
    text that is not UTF-8, an empty file, another header, a row with another
    field count, a cell holding "_" or over csv's size limit, and no data
    rows. Every data cell of both input formats is a number, and int() and
    float() would read "1_0" as 10.
    """
    path = Path(path)
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


def read_series_csv(path) -> TimeSeries:
    """Parse a t,value CSV into a TimeSeries; the first t becomes start_index.

    On top of read_rows' rules, t runs on in steps of one and every value is
    finite; the first row that breaks one names its line.
    """
    name = Path(path).name
    start, values = None, []
    for lineno, (t_text, v_text) in read_rows(path, ["t", "value"]):
        try:
            t = int(t_text)
            value = float(v_text)
        except ValueError as exc:
            raise CsvFormatError(f"{name} line {lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise CsvFormatError(f"{name} line {lineno}: {v_text.strip()!r} is not a finite number")
        if start is not None and t != start + len(values):
            raise CsvFormatError(
                f"{name} line {lineno}: time column must be consecutive integers "
                f"(got {t} after {start + len(values) - 1})"
            )
        start = t if start is None else start
        values.append(value)
    return TimeSeries(values, start_index=start)


def _quoted(text: str) -> str:
    """A field as csv.writer's minimal quoting writes it with a "\\n" line terminator."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _texts(column) -> list:
    """The written fields of a column's cells.

    A float64 array is formatted from its ndarray.tolist() floats, which need
    no quoting. Any other cell is formatted on its own: floats (np.float64
    included, np.float32 not) with 17 significant digits, None as an empty
    field, the rest with str(); then it is quoted.
    """
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return [fmt_float(v) for v in column.tolist()]
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


def _environment() -> dict:
    """The host a process runs on; platform caches what it looks up.

    The draws' bits rest on numpy's PCG64 seeding and the floats on numpy's
    and the platform's arithmetic, so a byte difference between two runs can
    be traced to a difference here.
    """
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


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
        "environment": _environment(),
    }


def write_manifest(path, manifest: dict) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
