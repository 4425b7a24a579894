"""Command-line interface: filter, run, simulate, transfer, report.

Exit codes: 0 success, 2 configuration error (flags, config files, invalid
arguments), 3 data error (malformed input CSV). Errors print one line to
stderr in the form ``error:<category>: <message>``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bootstrap import SeedSpec
from .csvio import (
    fmt_float,
    manifest_for,
    read_series_csv,
    write_manifest,
    write_rows_csv,
)
from .errors import ConfigError, CsvFormatError
from .filters import (
    EdgePolicy,
    FilterSpec,
    check_window_fits,
    energy_transfer,
    kzft_apply,
    reconstruct_component,
    select_filter_specs,
)
from .pipeline import Mode, PipelineConfig, Resample, run_pipeline
from .simulation import REPS_HEADER, read_rep_log, rep_columns, run_grid


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
    """The integers of a comma-separated --periods value; the library checks the period rules."""
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --periods value {text!r}: {exc}") from exc


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
@click.version_option(version=__version__, prog_name="vmbpbb")
def main():
    """Bandpass-separated periodic block bootstrap for multi-period time series."""


@main.command("filter")
@click.argument("input_csv", type=click.Path(dir_okay=False))
@click.option("--periods", "periods_text", default=None, help="Comma-separated periods, e.g. 50,100.")
@click.option("--spec", "spec_texts", multiple=True, help="Explicit filter m=..,k=..[,nu=..]; repeatable.")
@click.option("--narrow-factor", default=1.0, show_default=True, help="Window narrowing multiplier for --periods.")
@click.option("--edge", type=click.Choice([e.value for e in EdgePolicy]), default=EdgePolicy.RENORMALIZE.value,
              show_default=True)
@click.option("-o", "--output", "output_path", required=True, type=click.Path(dir_okay=False))
@_cli_errors
def cmd_filter(input_csv, periods_text, spec_texts, narrow_factor, edge, output_path):
    """Bandpass-filter a series into one column per component."""
    if (periods_text is None) == (not spec_texts):
        raise ConfigError("give exactly one of --periods or --spec")
    series = read_series_csv(input_csv)
    edge_policy = EdgePolicy(edge)
    if periods_text is not None:
        periods = _parse_periods(periods_text)
        specs = select_filter_specs(periods, narrow_factor)
        names = [f"p{p}" for p in periods]
    else:
        specs = [_parse_spec(text) for text in spec_texts]
        names = [f"m{s.m}_k{s.k}_nu{s.nu:g}" for s in specs]
    if edge_policy is EdgePolicy.RENORMALIZE:
        for spec, name in zip(specs, names):
            check_window_fits(spec, series.n, f"filter {name}")
    components = [reconstruct_component(kzft_apply(series, s, edge_policy)) for s in specs]

    # Under TRUNCATE components may cover different time ranges; keep the overlap.
    start = max(c.start_index for c in components)
    stop = min(c.start_index + c.n for c in components)
    if stop <= start:
        raise ConfigError("filter supports leave no common time range")
    columns = [range(start, stop)] + [c.values[start - c.start_index : stop - c.start_index] for c in components]
    write_rows_csv(output_path, ["t"] + names, columns)
    manifest = manifest_for(
        "filter",
        {
            "input": str(input_csv),
            "specs": [{"m": s.m, "k": s.k, "nu": s.nu} for s in specs],
            "edge": edge,
            "narrow_factor": narrow_factor,
            "columns": names,
        },
        [Path(output_path).name],
        input_paths=[input_csv],
    )
    write_manifest(Path(str(output_path) + ".manifest.json"), manifest)


@main.command("run")
@click.argument("input_csv", type=click.Path(dir_okay=False))
@click.option("--periods", "periods_text", required=True, help="Comma-separated periods, e.g. 50,100.")
@click.option("--mode", type=click.Choice([m.value for m in Mode]), default=Mode.VMBPBB.value, show_default=True)
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
    bands = [(f"component_p{c.period}.csv", c.band) for c in result.components]
    bands.append(("aggregate.csv", result.aggregate_band))
    for name, band in bands:
        write_rows_csv(outdir / name, ["t", "lower", "point", "upper"],
                       [times, band.lower, band.point, band.upper])
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
        [name for name, _ in bands],
        master_seed=seed,
        input_paths=[input_csv],
    )
    write_manifest(outdir / "manifest.json", manifest)


_SCALE_DEFAULTS = {"desk": {"resamples": 200, "reps": 50}, "paper": {"resamples": 1000, "reps": 1000}}
# The defaults of the other keys a grid config may leave out.
_GRID_DEFAULTS = {"n": 1000, "narrow_factor": 1.0, "paper_faithful": True}


def _integer(key, value):
    # bool is an int subclass, and JSON yields no other integer type.
    if type(value) is not int:
        raise ConfigError(f"grid config {key!r} must be an integer, got {value!r}")
    return value


def _number(key, value):
    if type(value) not in (int, float):
        raise ConfigError(f"grid config {key!r} must be a number, got {value!r}")
    return value


def _list(key, value, item):
    if not isinstance(value, list):
        raise ConfigError(f"grid config {key!r} must be a list, got {value!r}")
    return tuple(item(key, v) for v in value)


def _snr(key, value):
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"grid config {key!r} entries must be [signal, noise] pairs, got {value!r}")
    return tuple(_number(key, v) for v in value)


def _flag(key, value):
    if type(value) is not bool:
        raise ConfigError(f"grid config {key!r} must be true or false, got {value!r}")
    return value


_GRID_FIELDS = {
    "periods": lambda key, value: _list(key, value, _integer),
    "snrs": lambda key, value: _list(key, value, _snr),
    "n": _integer,
    "resamples": _integer,
    "reps": _integer,
    "seed": _integer,
    "narrow_factor": lambda key, value: float(_number(key, value)),
    "paper_faithful": _flag,
}


def _load_grid_config(path, scale: str, seed, paper_faithful) -> dict:
    """Read and check a grid config into run_grid's keyword arguments, seed as an int.

    Defaults are filled in, periods and snrs keep the numbers the file gave,
    and --seed and --paper-faithful override the file's values.
    """
    try:
        with Path(path).open() as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read grid config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("grid config must be a JSON object")
    unknown = set(raw) - set(_GRID_FIELDS)
    if unknown:
        raise ConfigError(f"unknown grid config keys: {sorted(unknown)}")
    if "periods" not in raw or "snrs" not in raw:
        raise ConfigError("grid config needs 'periods' and 'snrs'")
    values = {**_GRID_DEFAULTS, **_SCALE_DEFAULTS[scale]}
    values.update((key, _GRID_FIELDS[key](key, value)) for key, value in raw.items())
    if seed is not None:
        values["seed"] = seed
    if paper_faithful is not None:
        values["paper_faithful"] = paper_faithful
    if "seed" not in values:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    return values


def _write_grid_outputs(outdir: Path, cells, write_reps: bool = True) -> list:
    periods = sorted({p for c in cells for p in (c.p1, c.p2)})
    snrs = []
    for c in cells:
        if c.snr not in snrs:
            snrs.append(c.snr)
    by_key = {(c.snr, c.p1, c.p2): c for c in cells}

    # One table row per (snr, period); one column per partner period, empty on the diagonal.
    row_keys = [(snr, p_row) for snr in snrs for p_row in periods]

    def matrix_columns(value_of):
        def entry(snr, p_row, p_col):
            cell = by_key.get((snr, min(p_row, p_col), max(p_row, p_col)))
            return None if p_row == p_col or cell is None else value_of(cell)

        return [[_snr_label(snr) for snr, _ in row_keys], [p_row for _, p_row in row_keys]] + [
            [entry(snr, p_row, p_col) for snr, p_row in row_keys] for p_col in periods
        ]

    def cell_columns(*getters):
        return [[get(c) for c in cells] for get in getters]

    header = ["snr", "period"] + [str(p) for p in periods]
    write_rows_csv(outdir / "table1.csv", header, matrix_columns(lambda c: c.metrics.ci_ratio_median))
    # Table 2 cells that ran with a narrowed window design carry a '*' suffix.
    write_rows_csv(
        outdir / "table2.csv",
        header,
        matrix_columns(lambda c: fmt_float(c.metrics.r2_diff) + ("*" if c.narrowed else "")),
    )
    write_rows_csv(
        outdir / "coverage.csv",
        ["snr", "p1", "p2", "outside_pbb", "outside_vmbpbb"],
        cell_columns(
            lambda c: _snr_label(c.snr), lambda c: c.p1, lambda c: c.p2,
            lambda c: c.metrics.outside_frac_pbb, lambda c: c.metrics.outside_frac_vmbpbb,
        ),
    )
    write_rows_csv(
        outdir / "cells.csv",
        ["snr_signal", "snr_noise", "p1", "p2", "narrow_factor", "narrowed", "reps",
         "ci_ratio_median", "r2_pbb", "r2_vmbpbb", "r2_diff", "outside_pbb", "outside_vmbpbb"],
        cell_columns(
            lambda c: c.snr[0], lambda c: c.snr[1], lambda c: c.p1, lambda c: c.p2,
            lambda c: c.narrow_factor, lambda c: int(c.narrowed), lambda c: c.metrics.reps_completed,
            lambda c: c.metrics.ci_ratio_median, lambda c: c.metrics.r2_pbb, lambda c: c.metrics.r2_vmbpbb,
            lambda c: c.metrics.r2_diff, lambda c: c.metrics.outside_frac_pbb,
            lambda c: c.metrics.outside_frac_vmbpbb,
        ),
    )
    outputs = ["table1.csv", "table2.csv", "coverage.csv", "cells.csv"]
    if write_reps:
        write_rows_csv(outdir / "reps.csv", REPS_HEADER, rep_columns(cells))
        outputs.append("reps.csv")
    return outputs


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(dir_okay=False))
@click.option("--scale", type=click.Choice(["desk", "paper"]), default="desk", show_default=True,
              help="Default resamples/reps when the config does not pin them.")
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
@click.option("--threads", default=None,
              help="Worker processes, at most one per repetition (default $VMBPBB_THREADS or 1).")
@click.option("--paper-faithful/--no-paper-faithful", default=None,
              help="Doubled window for the {10,25} pairs at noise ratios 2 and 5.")
@_RESAMPLE_OPTION
@click.option("-o", "--output", "output_dir", required=True, type=click.Path(file_okay=False))
@_cli_errors
def cmd_simulate(config_path, scale, seed, threads, paper_faithful, resample, output_dir):
    """Run the scenario grid and write table/coverage/per-repetition CSVs."""
    threads = _parse_threads(threads)
    grid = _load_grid_config(config_path, scale, seed, paper_faithful)
    if scale == "paper":
        click.echo(
            f"warning: paper scale runs {grid['resamples']} resamples x {grid['reps']} repetitions "
            "per cell and may take hours; proceeding",
            err=True,
        )
    cells = run_grid(**dict(grid, seed=SeedSpec(grid["seed"])), threads=threads, resample=Resample(resample))
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = {"config": str(config_path), "scale": scale, "resample": resample, "threads": threads}
    config.update((key, value) for key, value in grid.items() if key != "seed")
    manifest = manifest_for("simulate", config, _write_grid_outputs(outdir, cells),
                            master_seed=grid["seed"], input_paths=[config_path])
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
    # One block of rows per spec, one row per grid frequency.
    columns = [
        [spec.m for spec in specs for _ in freqs],
        [spec.k for spec in specs for _ in freqs],
        np.repeat([float(spec.nu) for spec in specs], freqs.size),
        np.tile(freqs, len(specs)),
        np.concatenate([energy_transfer(freqs, spec.m, spec.k, spec.nu) for spec in specs]),
    ]
    write_rows_csv(output_path, ["m", "k", "nu", "lambda", "energy"], columns)
    manifest = manifest_for(
        "transfer",
        {"specs": [{"m": s.m, "k": s.k, "nu": s.nu} for s in specs], "grid": grid_text},
        [Path(output_path).name],
    )
    write_manifest(Path(str(output_path) + ".manifest.json"), manifest)


@main.command("report")
@click.argument("reps_csv", type=click.Path(dir_okay=False))
@click.option("-o", "--output", "output_dir", required=True, type=click.Path(file_okay=False))
@_cli_errors
def cmd_report(reps_csv, output_dir):
    """Re-aggregate a per-repetition log into the table CSVs."""
    cells = read_rep_log(reps_csv)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = _write_grid_outputs(outdir, cells, write_reps=False)
    manifest = manifest_for("report", {"input": str(reps_csv)}, outputs, input_paths=[reps_csv])
    write_manifest(outdir / "manifest.json", manifest)


if __name__ == "__main__":
    main()
