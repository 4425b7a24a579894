"""CSV input/output and run manifests for the command-line surface.

Input series use a strict two-column format with header ``t,value``; the time
column must be consecutive integers (unit spacing, no gaps). Input files are
read as UTF-8. Floats are written with 17 significant digits so every file
round-trips double precision exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CsvFormatError
from .series import TimeSeries

TOOL_NAME = "vmbpbb"


def fmt_float(v: float) -> str:
    return format(float(v), ".17g")


@contextmanager
def csv_reader(path):
    """A csv.reader over a UTF-8 file; bytes that do not decode are a CsvFormatError naming it."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            yield csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path.name}: not UTF-8 text: {exc}") from exc


def read_series_csv(path) -> TimeSeries:
    """Parse a t,value CSV into a TimeSeries; the first t becomes start_index."""
    path = Path(path)
    times = []
    values = []
    with csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path.name}: empty input file")
        if [c.strip().lower() for c in header] != ["t", "value"]:
            raise CsvFormatError(f"{path.name} line 1: expected header 't,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CsvFormatError(f"{path.name} line {lineno}: expected 2 columns, got {len(row)}")
            try:
                t = int(row[0])
                v = float(row[1])
            except ValueError as exc:
                raise CsvFormatError(f"{path.name} line {lineno}: {exc}") from exc
            if times and t != times[-1] + 1:
                raise CsvFormatError(
                    f"{path.name} line {lineno}: time column must be consecutive integers "
                    f"(got {t} after {times[-1]})"
                )
            times.append(t)
            values.append(v)
    if not values:
        raise CsvFormatError(f"{path.name}: no data rows")
    try:
        return TimeSeries(values, start_index=times[0])
    except ValueError as exc:
        raise CsvFormatError(f"{path.name}: {exc}") from exc


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


@dataclass
class RunManifest:
    """Everything needed to reproduce a command's outputs byte for byte."""

    command: str
    config: dict
    master_seed: int | None = None
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    tool: str = TOOL_NAME
    version: str = __version__
    created_utc: str = ""

    def __post_init__(self):
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat()


def write_manifest(path, manifest: RunManifest) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def manifest_for(command: str, config: dict, master_seed=None, input_paths=()) -> RunManifest:
    inputs = {str(p): sha256_file(p) for p in input_paths}
    return RunManifest(command=command, config=config, master_seed=master_seed, inputs=inputs)
