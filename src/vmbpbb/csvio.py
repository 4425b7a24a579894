"""CSV input/output and run manifests for the command-line surface.

Input series use a strict two-column format with header ``t,value``; the time
column must be consecutive integers (unit spacing, no gaps). Floats are
written with 17 significant digits so every file round-trips double precision
exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import CsvFormatError
from .series import TimeSeries

TOOL_NAME = "vmbpbb"


def fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def read_series_csv(path) -> TimeSeries:
    """Parse a t,value CSV into a TimeSeries; the first t becomes start_index."""
    path = Path(path)
    times = []
    values = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
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


def write_rows_csv(path, header, rows) -> None:
    """Write rows of mixed ints/floats/strings; floats get full precision."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                fmt_float(cell) if isinstance(cell, float) else ("" if cell is None else str(cell))
                for cell in row
            ])


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
