"""Command-line interface: filter, run, simulate, transfer, report.

Exit codes: 0 success, 2 configuration error (flags, config files, invalid
arguments), 3 data error (malformed input CSV). Errors print one line to
stderr in the form ``error:<category>: <message>``.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from .bootstrap import SeedSpec
from .csvio import (
    TOOL_VERSION,
    fmt_float,
    manifest_for,
    read_series_csv,
    write_manifest,
    write_rows_csv,
)
from .errors import ConfigError, CsvFormatError
from .filters import EdgePolicy, FilterSpec, energy_transfer, kzft_apply, reconstruct_component, select_filter_specs
from .pipeline import Mode, PipelineConfig, Resample, run_pipeline
from .simulation import GridCell, RepRecord, _aggregate_records, run_grid


def _parse_threads(value) -> int:
    """Worker count from --threads, else $VMBPBB_THREADS, else 1; must be an integer >= 1."""
    if value is None:
        source, value = "VMBPBB_THREADS", os.environ.get("VMBPBB_THREADS", "1")
    else:
        source = "--threads"
    try:
        threads = int(value)
    except ValueError:
        raise ConfigError(f"bad {source} value {value!r}: expected an integer >= 1") from None
    if threads < 1:
        raise ConfigError(f"bad {source} value {value!r}: expected an integer >= 1")
    return threads


def _cli_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except CsvFormatError as exc:
            click.echo(f"error:data: {exc}", err=True)
            sys.exit(3)
        except (ValueError, OSError) as exc:
            click.echo(f"error:config: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_periods(text: str) -> tuple:
    try:
        periods = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --periods value {text!r}: {exc}") from exc
    if not periods:
        raise ConfigError("--periods must list at least one integer")
    return periods


def _parse_spec(text: str) -> FilterSpec:
    fields = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ConfigError(f"bad --spec token {token!r}; expected key=value")
        key, value = token.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"m", "k", "nu"}
    if unknown:
        raise ConfigError(f"unknown --spec keys: {sorted(unknown)}")
    if "m" not in fields or "k" not in fields:
        raise ConfigError("--spec needs at least m=... and k=...")
    try:
        return FilterSpec(m=int(fields["m"]), k=int(fields["k"]), nu=float(fields.get("nu", 0.0)))
    except ValueError as exc:
        raise ConfigError(f"bad --spec value in {text!r}: {exc}") from exc


def _parse_edge(name: str) -> EdgePolicy:
    return EdgePolicy.TRUNCATE if name == "truncate" else EdgePolicy.RENORMALIZE


# Both values give different statistical results, so every manifest records the choice.
_RESAMPLE_OPTION = click.option(
    "--resample", type=click.Choice([r.value for r in Resample]), default=Resample.COMPONENTS.value,
    show_default=True,
    help="components: resample each component at its own period (the paper's band); "
         "series: resample the whole input at lcm(periods), needs 2*lcm <= n.",
)


def _snr_label(snr) -> str:
    return f"{snr[0]:g}:{snr[1]:g}"


@click.group()
@click.version_option(version=TOOL_VERSION, prog_name="vmbpbb")
def main():
    """Bandpass-separated periodic block bootstrap for multi-period time series."""


@main.command("filter")
@click.argument("input_csv", type=click.Path(dir_okay=False))
@click.option("--periods", "periods_text", default=None, help="Comma-separated periods, e.g. 50,100.")
@click.option("--spec", "spec_texts", multiple=True, help="Explicit filter m=..,k=..[,nu=..]; repeatable.")
@click.option("--narrow-factor", default=1.0, show_default=True, help="Window narrowing multiplier for --periods.")
@click.option("--edge", type=click.Choice(["renormalize", "truncate"]), default="renormalize", show_default=True)
@click.option("-o", "--output", "output_path", required=True, type=click.Path(dir_okay=False))
@_cli_errors
def cmd_filter(input_csv, periods_text, spec_texts, narrow_factor, edge, output_path):
    """Bandpass-filter a series into one column per component."""
    if (periods_text is None) == (not spec_texts):
        raise ConfigError("give exactly one of --periods or --spec")
    series = read_series_csv(input_csv)
    edge_policy = _parse_edge(edge)
    if periods_text is not None:
        periods = _parse_periods(periods_text)
        specs = select_filter_specs(periods, narrow_factor)
        names = [f"p{p}" for p in periods]
    else:
        specs = [_parse_spec(text) for text in spec_texts]
        names = [f"m{s.m}_k{s.k}_nu{s.nu:g}" for s in specs]
    components = [reconstruct_component(kzft_apply(series, s, edge_policy)) for s in specs]

    # Under TRUNCATE components may cover different time ranges; keep the overlap.
    start = max(c.start_index for c in components)
    stop = min(c.start_index + c.n for c in components)
    if stop <= start:
        raise ConfigError("filter supports leave no common time range")
    rows = []
    for t in range(start, stop):
        rows.append([t] + [float(c.values[t - c.start_index]) for c in components])
    write_rows_csv(output_path, ["t"] + names, rows)
    manifest = manifest_for(
        "filter",
        {
            "input": str(input_csv),
            "specs": [{"m": s.m, "k": s.k, "nu": s.nu} for s in specs],
            "edge": edge,
            "narrow_factor": narrow_factor,
            "columns": names,
        },
        input_paths=[input_csv],
    )
    write_manifest(Path(str(output_path) + ".manifest.json"), manifest)


@main.command("run")
@click.argument("input_csv", type=click.Path(dir_okay=False))
@click.option("--periods", "periods_text", required=True, help="Comma-separated periods, e.g. 50,100.")
@click.option("--mode", type=click.Choice(["vmbpbb", "pbb"]), default="vmbpbb", show_default=True)
@click.option("-B", "--resamples", default=200, show_default=True)
@click.option("--seed", required=True, type=int, help="Master seed; same seed reproduces outputs byte for byte.")
@click.option("--alpha", default=0.05, show_default=True)
@click.option("--narrow-factor", default=1.0, show_default=True)
@_RESAMPLE_OPTION
@click.option("-o", "--output", "output_dir", required=True, type=click.Path(file_okay=False))
@_cli_errors
def cmd_run(input_csv, periods_text, mode, resamples, seed, alpha, narrow_factor, resample, output_dir):
    """Bootstrap a series and write per-component and aggregate CI bands."""
    series = read_series_csv(input_csv)
    periods = _parse_periods(periods_text)
    cfg = PipelineConfig(
        periods=periods,
        resamples=resamples,
        seed=SeedSpec(seed),
        narrow_factor=narrow_factor,
        mode=Mode(mode),
        alpha=alpha,
        resample=Resample(resample),
    )
    result = run_pipeline(series, cfg)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    times = range(series.start_index, series.start_index + series.n)

    def band_rows(band):
        return [
            [t, float(band.lower[i]), float(band.point[i]), float(band.upper[i])]
            for i, t in enumerate(times)
        ]

    outputs = []
    for comp in result.components:
        name = f"component_p{comp.period}.csv"
        write_rows_csv(outdir / name, ["t", "lower", "point", "upper"], band_rows(comp.band))
        outputs.append(name)
    agg_rows = [
        [t, float(result.aggregate_band.lower[i]), float(result.aggregate_point.values[i]),
         float(result.aggregate_band.upper[i])]
        for i, t in enumerate(times)
    ]
    write_rows_csv(outdir / "aggregate.csv", ["t", "lower", "point", "upper"], agg_rows)
    outputs.append("aggregate.csv")
    manifest = manifest_for(
        "run",
        {
            "input": str(input_csv),
            "periods": list(periods),
            "mode": mode,
            "resamples": resamples,
            "alpha": alpha,
            "narrow_factor": narrow_factor,
            "resample": resample,
        },
        master_seed=seed,
        input_paths=[input_csv],
    )
    manifest.outputs = outputs
    write_manifest(outdir / "manifest.json", manifest)


_SCALE_DEFAULTS = {"desk": (200, 50), "paper": (1000, 1000)}
_GRID_KEYS = {"periods", "snrs", "n", "resamples", "reps", "seed", "narrow_factor", "paper_faithful"}


def _load_grid_config(path) -> dict:
    try:
        with Path(path).open() as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read grid config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("grid config must be a JSON object")
    unknown = set(raw) - _GRID_KEYS
    if unknown:
        raise ConfigError(f"unknown grid config keys: {sorted(unknown)}")
    if "periods" not in raw or "snrs" not in raw:
        raise ConfigError("grid config needs 'periods' and 'snrs'")
    return raw


def _rep_rows(cells):
    for cell in cells:
        for rec in cell.records:
            yield [
                cell.snr[0], cell.snr[1], cell.p1, cell.p2, cell.narrow_factor,
                rec.rep, rec.ci_ratio, rec.outside_pbb, rec.outside_vmbpbb,
                rec.r2_pbb, rec.r2_vmbpbb,
            ]


_REPS_HEADER = [
    "snr_signal", "snr_noise", "p1", "p2", "narrow_factor",
    "rep", "ci_ratio", "outside_pbb", "outside_vmbpbb", "r2_pbb", "r2_vmbpbb",
]


def _write_grid_outputs(outdir: Path, cells, write_reps: bool = True) -> list:
    periods = sorted({p for c in cells for p in (c.p1, c.p2)})
    snrs = []
    for c in cells:
        if c.snr not in snrs:
            snrs.append(c.snr)
    by_key = {(c.snr, c.p1, c.p2): c for c in cells}

    def matrix_rows(value_of):
        rows = []
        for snr in snrs:
            for p_row in periods:
                row = [_snr_label(snr), p_row]
                for p_col in periods:
                    cell = by_key.get((snr, min(p_row, p_col), max(p_row, p_col)))
                    row.append(None if p_row == p_col or cell is None else value_of(cell))
                rows.append(row)
        return rows

    header = ["snr", "period"] + [str(p) for p in periods]
    write_rows_csv(outdir / "table1.csv", header, matrix_rows(lambda c: c.metrics.ci_ratio_median))
    # Table 2 cells that ran with the doubled window design carry a '*' suffix.
    write_rows_csv(
        outdir / "table2.csv",
        header,
        matrix_rows(lambda c: fmt_float(c.metrics.r2_diff) + ("*" if c.narrowed else "")),
    )
    write_rows_csv(
        outdir / "coverage.csv",
        ["snr", "p1", "p2", "outside_pbb", "outside_vmbpbb"],
        [
            [_snr_label(c.snr), c.p1, c.p2, c.metrics.outside_frac_pbb, c.metrics.outside_frac_vmbpbb]
            for c in cells
        ],
    )
    write_rows_csv(
        outdir / "cells.csv",
        ["snr_signal", "snr_noise", "p1", "p2", "narrow_factor", "narrowed", "reps",
         "ci_ratio_median", "r2_pbb", "r2_vmbpbb", "r2_diff", "outside_pbb", "outside_vmbpbb"],
        [
            [c.snr[0], c.snr[1], c.p1, c.p2, c.narrow_factor, int(c.narrowed),
             c.metrics.reps_completed, c.metrics.ci_ratio_median, c.metrics.r2_pbb,
             c.metrics.r2_vmbpbb, c.metrics.r2_diff, c.metrics.outside_frac_pbb,
             c.metrics.outside_frac_vmbpbb]
            for c in cells
        ],
    )
    outputs = ["table1.csv", "table2.csv", "coverage.csv", "cells.csv"]
    if write_reps:
        write_rows_csv(outdir / "reps.csv", _REPS_HEADER, _rep_rows(cells))
        outputs.append("reps.csv")
    return outputs


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(dir_okay=False))
@click.option("--scale", type=click.Choice(["desk", "paper"]), default="desk", show_default=True,
              help="Default resamples/reps when the config does not pin them.")
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
@click.option("--threads", default=None, help="Worker processes (default $VMBPBB_THREADS or 1).")
@click.option("--paper-faithful/--no-paper-faithful", default=None,
              help="Doubled window for the {10,25} pairs at noise ratios 2 and 5.")
@_RESAMPLE_OPTION
@click.option("-o", "--output", "output_dir", required=True, type=click.Path(file_okay=False))
@_cli_errors
def cmd_simulate(config_path, scale, seed, threads, paper_faithful, resample, output_dir):
    """Run the scenario grid and write table/coverage/per-repetition CSVs."""
    threads = _parse_threads(threads)
    raw = _load_grid_config(config_path)
    default_b, default_reps = _SCALE_DEFAULTS[scale]
    resamples = int(raw.get("resamples", default_b))
    reps = int(raw.get("reps", default_reps))
    if seed is None:
        if "seed" not in raw:
            raise ConfigError("a seed is required (config 'seed' or --seed)")
        seed = int(raw["seed"])
    if paper_faithful is None:
        paper_faithful = bool(raw.get("paper_faithful", True))
    if scale == "paper":
        click.echo(
            f"warning: paper scale runs {resamples} resamples x {reps} repetitions "
            "per cell and may take hours; proceeding",
            err=True,
        )
    cells = run_grid(
        raw["periods"],
        raw["snrs"],
        n=int(raw.get("n", 1000)),
        resamples=resamples,
        reps=reps,
        seed=SeedSpec(seed),
        narrow_factor=float(raw.get("narrow_factor", 1.0)),
        paper_faithful=paper_faithful,
        threads=threads,
        keep_records=True,
        resample=Resample(resample),
    )
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = _write_grid_outputs(outdir, cells)
    manifest = manifest_for(
        "simulate",
        {
            "config": str(config_path),
            "scale": scale,
            "periods": list(raw["periods"]),
            "snrs": [list(s) for s in raw["snrs"]],
            "n": int(raw.get("n", 1000)),
            "resamples": resamples,
            "reps": reps,
            "narrow_factor": float(raw.get("narrow_factor", 1.0)),
            "paper_faithful": paper_faithful,
            "resample": resample,
            "threads": threads,
        },
        master_seed=seed,
        input_paths=[config_path],
    )
    manifest.outputs = outputs
    write_manifest(outdir / "manifest.json", manifest)


@main.command("transfer")
@click.option("--spec", "spec_texts", multiple=True, required=True,
              help="Filter m=..,k=..[,nu=..]; repeatable, one curve each.")
@click.option("--grid", "grid_text", default="0:0.5:501", show_default=True,
              help="Frequency grid start:stop:count.")
@click.option("-o", "--output", "output_path", required=True, type=click.Path(dir_okay=False))
@_cli_errors
def cmd_transfer(spec_texts, grid_text, output_path):
    """Evaluate energy transfer curves on a frequency grid."""
    try:
        start, stop, count = grid_text.split(":")
        freqs = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ConfigError(f"bad --grid value {grid_text!r}: {exc}") from exc
    specs = [_parse_spec(text) for text in spec_texts]
    rows = []
    for spec in specs:
        energies = energy_transfer(freqs, spec.m, spec.k, spec.nu)
        for lam, energy in zip(freqs, energies):
            rows.append([spec.m, spec.k, float(spec.nu), float(lam), float(energy)])
    write_rows_csv(output_path, ["m", "k", "nu", "lambda", "energy"], rows)
    manifest = manifest_for(
        "transfer",
        {"specs": [{"m": s.m, "k": s.k, "nu": s.nu} for s in specs], "grid": grid_text},
    )
    write_manifest(Path(str(output_path) + ".manifest.json"), manifest)


def _read_rep_log(path) -> list:
    cells = {}
    order = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _REPS_HEADER:
            raise CsvFormatError(f"{Path(path).name} line 1: expected header {','.join(_REPS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_REPS_HEADER):
                raise CsvFormatError(f"{Path(path).name} line {lineno}: expected {len(_REPS_HEADER)} columns")
            try:
                snr = (float(row[0]), float(row[1]))
                p1, p2 = int(row[2]), int(row[3])
                nf = float(row[4])
                rec = RepRecord(
                    rep=int(row[5]), ci_ratio=float(row[6]), outside_pbb=float(row[7]),
                    outside_vmbpbb=float(row[8]), r2_pbb=float(row[9]), r2_vmbpbb=float(row[10]),
                )
            except ValueError as exc:
                raise CsvFormatError(f"{Path(path).name} line {lineno}: {exc}") from exc
            key = (snr, p1, p2, nf)
            if key not in cells:
                cells[key] = []
                order.append(key)
            cells[key].append(rec)
    if not order:
        raise CsvFormatError(f"{Path(path).name}: no data rows")
    out = []
    for key in order:
        snr, p1, p2, nf = key
        records = cells[key]
        out.append(GridCell(
            p1=p1, p2=p2, snr=snr, narrow_factor=nf, narrowed=nf > 1.0,
            metrics=_aggregate_records(records), records=tuple(records),
        ))
    return out


@main.command("report")
@click.argument("reps_csv", type=click.Path(dir_okay=False))
@click.option("-o", "--output", "output_dir", required=True, type=click.Path(file_okay=False))
@_cli_errors
def cmd_report(reps_csv, output_dir):
    """Re-aggregate a per-repetition log into the table CSVs."""
    cells = _read_rep_log(reps_csv)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = _write_grid_outputs(outdir, cells, write_reps=False)
    manifest = manifest_for("report", {"input": str(reps_csv)}, input_paths=[reps_csv])
    manifest.outputs = outputs
    write_manifest(outdir / "manifest.json", manifest)


if __name__ == "__main__":
    main()
