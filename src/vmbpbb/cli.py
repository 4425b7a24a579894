"""Command-line interface: filter, run, simulate, transfer, report.

Exit codes: 0 success, 2 configuration error (flags, config files, invalid
arguments, arguments that need more memory than can be allocated, or sizes
too large to index), 3 data error (malformed input CSV, or series values so
large that the arithmetic of filter or run overflows). Errors print one line
to stderr in the form ``error:<category>: <message>``; click's usage errors
and a bare ``vmbpbb`` are config errors too. One boundary on the command group maps them all.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .bootstrap import SeedSpec
from .csvio import manifest_for, read_series_csv, write_manifest, write_rows_csv
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
from .simulation import read_rep_log, run_grid, study_tables


@contextlib.contextmanager
def _exit_contract():
    """Turn an error into one ``error:<category>:`` line on stderr and its exit code."""
    try:
        yield
    except click.ClickException as exc:
        click.echo(f"error:config: {exc.format_message()}", err=True)
        sys.exit(2)
    except CsvFormatError as exc:
        click.echo(f"error:data: {exc}", err=True)
        sys.exit(3)
    except (ValueError, OSError, OverflowError) as exc:
        click.echo(f"error:config: {exc}", err=True)
        sys.exit(2)
    except MemoryError as exc:
        # Arguments that ask for more memory than the host has, such as a huge --grid count.
        click.echo(f"error:config: out of memory: {exc}", err=True)
        sys.exit(2)


class _Main(click.Group):
    """The command group; parsing and invoke (which parses and runs a subcommand) run inside _exit_contract."""

    def make_context(self, info_name, args, parent=None, **extra):
        with _exit_contract():
            return super().make_context(info_name, args, parent, **extra)

    def invoke(self, ctx):
        with _exit_contract():
            return super().invoke(ctx)


@contextlib.contextmanager
def _finite_arithmetic(path):
    """Raise CsvFormatError naming path where numpy arithmetic on its values overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise CsvFormatError(f"{Path(path).name}: values too large to process: {exc}") from None


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


def _write_outputs(command, manifest_path, files, config, **manifest_kw):
    """Write each CSV of files, {path: (header, columns[, cycle])}, then the manifest that lists them.

    manifest_kw (master_seed, input_paths) passes on to manifest_for.
    """
    for path, table in files.items():
        write_rows_csv(path, *table)
    write_manifest(manifest_path, manifest_for(command, config, [Path(path).name for path in files], **manifest_kw))


# Both values give different statistical results, so every manifest records the choice.
_RESAMPLE_OPTION = click.option(
    "--resample", type=click.Choice([r.value for r in Resample]), default=Resample.COMPONENTS.value,
    show_default=True,
    help="components: resample each component at its own period (the paper's band); "
         "series: resample the whole input at lcm(periods), needs 2*lcm <= n.",
)


@click.group(cls=_Main, no_args_is_help=False)
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
def cmd_filter(input_csv, periods_text, spec_texts, narrow_factor, edge, output_path):
    """Bandpass-filter a series into one column per component."""
    if (periods_text is None) == (not spec_texts):
        raise ConfigError("give exactly one of --periods or --spec")
    # Asked of the context, so --help and the manifest keep the default of 1.
    if spec_texts and click.get_current_context().get_parameter_source("narrow_factor") is not ParameterSource.DEFAULT:
        raise ConfigError("--narrow-factor applies to --periods only; a --spec gives its own window")
    edge_policy = EdgePolicy(edge)
    if periods_text is not None:
        periods = _parse_periods(periods_text)
        specs = select_filter_specs(periods, narrow_factor)
        names = [f"p{p}" for p in periods]
    else:
        specs = [_parse_spec(text) for text in spec_texts]
        names = [f"m{s.m}_k{s.k}_nu{s.nu:g}" for s in specs]
        if len(set(names)) < len(names):
            raise ConfigError(f"--spec filters must have distinct column names, got {','.join(names)}")
    series = read_series_csv(input_csv)
    if edge_policy is EdgePolicy.RENORMALIZE:
        for spec, name in zip(specs, names):
            check_window_fits(spec, series.n, f"filter {name}")
    with _finite_arithmetic(input_csv):
        components = [reconstruct_component(kzft_apply(series, s, edge_policy)) for s in specs]

    # Under TRUNCATE components may cover different time ranges; keep the overlap.
    # It is never empty: TRUNCATE has rejected every window wider than the series.
    start = max(c.start_index for c in components)
    stop = min(c.start_index + c.n for c in components)
    columns = [range(start, stop)] + [c.values[start - c.start_index : stop - c.start_index] for c in components]
    config = {"input": str(input_csv), "specs": [asdict(s) for s in specs], "edge": edge,
              "narrow_factor": narrow_factor, "columns": names}
    _write_outputs("filter", str(output_path) + ".manifest.json", {output_path: (["t"] + names, columns)}, config,
                   input_paths=[input_csv])


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
def cmd_run(input_csv, periods_text, seed, output_dir, **options):
    """Bootstrap a series and write per-component and aggregate CI bands."""
    # options are named after PipelineConfig's fields, so the manifest records them as given.
    cfg = PipelineConfig(periods=_parse_periods(periods_text), seed=SeedSpec(seed), **options)
    series = read_series_csv(input_csv)
    # Component bands are built on first read, so they are read under the overflow check too.
    with _finite_arithmetic(input_csv):
        result = run_pipeline(series, cfg)
        # Each band repeats with its cycle: a component's period, the aggregate's lcm(periods).
        bands = [(f"component_p{c.period}.csv", c.band, c.period) for c in result.components]
    bands.append(("aggregate.csv", result.aggregate_band, math.lcm(*cfg.periods)))
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    # The t fields as written, formatted once for all three files.
    times = list(map(str, range(series.start_index, series.start_index + series.n)))
    files = {outdir / name: (["t", "lower", "point", "upper"], [times, band.lower, band.point, band.upper], cycle)
             for name, band, cycle in bands}
    config = {"input": str(input_csv), "periods": list(cfg.periods), **options}
    _write_outputs("run", outdir / "manifest.json", files, config, master_seed=seed, input_paths=[input_csv])


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


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(dir_okay=False))
@click.option("--scale", type=click.Choice(["desk", "paper"]), default="desk", show_default=True,
              help="Default resamples/reps when the config does not pin them.")
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
@click.option("--threads", type=click.IntRange(min=1), default=1, envvar="VMBPBB_THREADS",
              help="Worker processes, at most one per repetition (default $VMBPBB_THREADS or 1).")
@click.option("--paper-faithful/--no-paper-faithful", default=None,
              help="Doubled window for the {10,25} pairs at noise ratios 2 and 5.")
@_RESAMPLE_OPTION
@click.option("-o", "--output", "output_dir", required=True, type=click.Path(file_okay=False))
def cmd_simulate(config_path, scale, seed, threads, paper_faithful, resample, output_dir):
    """Run the scenario grid and write table/coverage/per-repetition CSVs."""
    grid = _load_grid_config(config_path, scale, seed, paper_faithful)
    if scale == "paper":
        click.echo(
            f"warning: paper scale runs {grid['resamples']} resamples x {grid['reps']} repetitions "
            "per cell and may take hours; proceeding",
            err=True,
        )
    cells = run_grid(**dict(grid, seed=SeedSpec(grid["seed"])), threads=threads, resample=resample)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = {"config": str(config_path), "scale": scale, "resample": resample, "threads": threads}
    config.update((key, value) for key, value in grid.items() if key != "seed")
    # study_tables gives rows; the writer takes columns.
    files = {outdir / name: (header, list(zip(*rows))) for name, (header, rows) in study_tables(cells).items()}
    _write_outputs("simulate", outdir / "manifest.json", files, config, master_seed=grid["seed"],
                   input_paths=[config_path])


@main.command("transfer")
@click.option("--spec", "spec_texts", multiple=True, required=True,
              help="Filter m=..,k=..[,nu=..]; repeatable, one curve each.")
@click.option("--grid", "grid_text", default="0:0.5:501", show_default=True,
              help="Frequency grid start:stop:count.")
@click.option("-o", "--output", "output_path", required=True, type=click.Path(dir_okay=False))
def cmd_transfer(spec_texts, grid_text, output_path):
    """Evaluate energy transfer curves on a frequency grid."""
    try:
        start, stop, count = grid_text.split(":")
        start, stop, count = float(start), float(stop), int(count)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("start and stop must be finite")
        if not math.isfinite(stop - start):
            raise ValueError("stop - start must be finite")
        if count < 1:
            raise ValueError("count must be at least 1")
        freqs = np.linspace(start, stop, count)
    except ValueError as exc:
        raise ConfigError(f"bad --grid value {grid_text!r}: {exc}") from exc
    specs = [_parse_spec(text) for text in spec_texts]
    # One block of rows per spec, one row per grid frequency.
    columns = [
        [spec.m for spec in specs for _ in freqs],
        [spec.k for spec in specs for _ in freqs],
        np.repeat([float(spec.nu) for spec in specs], freqs.size),
        np.concatenate([freqs] * len(specs)),
        np.concatenate([energy_transfer(freqs, spec.m, spec.k, spec.nu) for spec in specs]),
    ]
    _write_outputs("transfer", str(output_path) + ".manifest.json",
                   {output_path: (["m", "k", "nu", "lambda", "energy"], columns)},
                   {"specs": [asdict(s) for s in specs], "grid": grid_text})


@main.command("report")
@click.argument("reps_csv", type=click.Path(dir_okay=False))
@click.option("-o", "--output", "output_dir", required=True, type=click.Path(file_okay=False))
def cmd_report(reps_csv, output_dir):
    """Re-aggregate a per-repetition log into the table CSVs."""
    tables = study_tables(read_rep_log(reps_csv))
    # The log it was read from is not written again.
    del tables["reps.csv"]
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {outdir / name: (header, list(zip(*rows))) for name, (header, rows) in tables.items()}
    _write_outputs("report", outdir / "manifest.json", files, {"input": str(reps_csv)}, input_paths=[reps_csv])


if __name__ == "__main__":
    main()
