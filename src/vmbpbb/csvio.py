"""CSV input/output and run manifests for the command-line surface.

Every input CSV, a ``t,value`` series or a ``reps.csv`` log, is read by one
streaming reader, ``read_rows``: UTF-8 text, a header that matches after
stripping spaces and folding case, the header's number of fields on every
non-blank row, and at least one data row. A broken rule is a CsvFormatError
naming the file and, where there is one, the line. In a series the time
column must be consecutive integers (unit spacing, no gaps). Floats are
written with 17 significant digits so every file round-trips double
precision exactly. A manifest is a plain dict written as sorted JSON.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
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


def read_rows(path, header):
    """Yield (line number, fields) for each non-blank data row of a CSV with this header.

    header holds lowercase names; a file's header matches after strip().lower()
    of each name. Rows are yielded as they are read, so a caller never holds
    the whole file. The rules every input CSV shares raise CsvFormatError: text
    that is not UTF-8, an empty file, another header, a row with another field
    count, no data rows.
    """
    path = Path(path)
    found = False
    try:
        with path.open(newline="", encoding="utf-8") as fh:
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
                found = True
                yield lineno, row
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path.name}: not UTF-8 text: {exc}") from exc
    if not found:
        raise CsvFormatError(f"{path.name}: no data rows")


def read_series_csv(path) -> TimeSeries:
    """Parse a t,value CSV into a TimeSeries; the first t becomes start_index."""
    name = Path(path).name
    times = []
    values = []
    for lineno, (t_text, v_text) in read_rows(path, ["t", "value"]):
        try:
            t = int(t_text)
            v = float(v_text)
        except ValueError as exc:
            raise CsvFormatError(f"{name} line {lineno}: {exc}") from exc
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


def _quoted(text: str) -> str:
    """A field as csv.writer's minimal quoting writes it with a "\\n" line terminator."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_fields(column, end: str) -> list:
    """The written fields of one column, each followed by end.

    A float64 array formats each distinct bit pattern once, so a band that
    repeats every period costs one format per phase; keying by bits keeps
    0.0 and -0.0 apart. A range or an integer array is written with str(),
    which never needs quoting. Any other cell is formatted on its own: floats
    (np.float64 included, np.float32 not) with 17 significant digits, None
    as an empty field, the rest with str().
    """
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        texts = np.array([fmt_float(v) + end for v in bits.view(np.float64)], dtype=object)
        return texts[inverse].tolist()
    if isinstance(column, range):
        texts = map(str, column)
    elif isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        texts = map(str, column.tolist())
    else:
        texts = (
            _quoted(fmt_float(cell) if isinstance(cell, float) else ("" if cell is None else str(cell)))
            for cell in column
        )
    return [text + end for text in texts] if end else list(texts)


def write_rows_csv(path, header, columns) -> None:
    """Write one column per header name, all of one length; floats get full precision.

    The bytes are those csv.writer writes with minimal quoting and "\\n" line
    ends, a row holding one empty field included (it is written as "").
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    # The line end rides on the last column's fields, so no string is built per line.
    fields = [_column_fields(column, "\n" if i == len(columns) - 1 else "")
              for i, column in enumerate(columns)]
    head = ",".join(_quoted(str(name)) for name in header)
    if len(header) == 1:
        # csv.writer writes a lone empty field as "", so the line does not read back as blank.
        head = head or '""'
        fields[0] = [text if text != "\n" else '""\n' for text in fields[0]]
    with Path(path).open("w", newline="") as fh:
        fh.write(head + "\n")
        fh.writelines(map(",".join, zip(*fields, strict=True)))


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
