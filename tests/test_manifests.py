"""Each command's manifest, pinned field by field.

A manifest is how a run's outputs can be reproduced, so every key a command
records under ``config``, the files it lists under ``outputs``, its master
seed and the names of the inputs it hashes are written out here as literals.
``created_utc`` and ``environment`` vary by host and time, and ``version``
is pinned in tests/test_cli.py.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from vmbpbb.cli import main
from vmbpbb.csvio import sha256_file, write_rows_csv

GRID = {"periods": [10, 25], "snrs": [[1, 2]], "n": 100, "resamples": 4, "reps": 1, "seed": 3}
STUDY_FILES = ["table1.csv", "table2.csv", "coverage.csv", "cells.csv"]


@pytest.fixture
def invoke():
    runner = CliRunner()

    def invoke(*args):
        result = runner.invoke(main, [str(arg) for arg in args])
        assert result.exit_code == 0, result.output
    return invoke


@pytest.fixture
def series(tmp_path):
    path = tmp_path / "series.csv"
    t = np.arange(1000)
    write_rows_csv(path, ["t", "value"], [t, np.sin(2 * np.pi * t / 50) + np.sin(2 * np.pi * t / 100)])
    return path


def pinned_fields(manifest_path):
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["tool"] == "vmbpbb"
    for name, digest in manifest["inputs"].items():
        assert digest == sha256_file(name)
    return {
        "command": manifest["command"],
        "config": manifest["config"],
        "outputs": manifest["outputs"],
        "master_seed": manifest["master_seed"],
        "inputs": [Path(name).name for name in manifest["inputs"]],
    }


def test_filter_periods(invoke, series, tmp_path):
    out = tmp_path / "components.csv"
    invoke("filter", series, "--periods", "50,100", "-o", out)
    assert pinned_fields(str(out) + ".manifest.json") == {
        "command": "filter",
        "config": {
            "input": str(series),
            "specs": [{"m": 201, "k": 1, "nu": 0.02}, {"m": 201, "k": 1, "nu": 0.01}],
            "edge": "renormalize",
            "narrow_factor": 1.0,
            "columns": ["p50", "p100"],
        },
        "outputs": ["components.csv"],
        "master_seed": None,
        "inputs": ["series.csv"],
    }


def test_filter_spec(invoke, series, tmp_path):
    out = tmp_path / "explicit.csv"
    invoke("filter", series, "--spec", "m=5,k=1,nu=0.1", "--spec", "m=11,k=2", "--edge", "truncate", "-o", out)
    assert pinned_fields(str(out) + ".manifest.json") == {
        "command": "filter",
        "config": {
            "input": str(series),
            "specs": [{"m": 5, "k": 1, "nu": 0.1}, {"m": 11, "k": 2, "nu": 0.0}],
            "edge": "truncate",
            "narrow_factor": 1.0,
            "columns": ["m5_k1_nu0.1", "m11_k2_nu0"],
        },
        "outputs": ["explicit.csv"],
        "master_seed": None,
        "inputs": ["series.csv"],
    }


def test_run_defaults(invoke, series, tmp_path):
    out = tmp_path / "run"
    invoke("run", series, "--periods", "100,50", "--seed", "11", "-o", out)
    assert pinned_fields(out / "manifest.json") == {
        "command": "run",
        "config": {
            "input": str(series),
            "periods": [100, 50],
            "mode": "vmbpbb",
            "resamples": 200,
            "alpha": 0.05,
            "narrow_factor": 1.0,
            "resample": "components",
        },
        "outputs": ["component_p100.csv", "component_p50.csv", "aggregate.csv"],
        "master_seed": 11,
        "inputs": ["series.csv"],
    }


def test_run_options(invoke, series, tmp_path):
    out = tmp_path / "run"
    invoke("run", series, "--periods", "50,100", "--seed", "7", "--mode", "pbb", "--alpha", "0.1",
           "--resample", "series", "-B", "4", "--narrow-factor", "1.5", "-o", out)
    assert pinned_fields(out / "manifest.json") == {
        "command": "run",
        "config": {
            "input": str(series),
            "periods": [50, 100],
            "mode": "pbb",
            "resamples": 4,
            "alpha": 0.1,
            "narrow_factor": 1.5,
            "resample": "series",
        },
        "outputs": ["component_p50.csv", "component_p100.csv", "aggregate.csv"],
        "master_seed": 7,
        "inputs": ["series.csv"],
    }


def test_transfer(invoke, tmp_path):
    out = tmp_path / "curve.csv"
    invoke("transfer", "--spec", "m=3,k=1", "--spec", "m=5,k=2,nu=0.25", "--grid", "0:0.5:11", "-o", out)
    assert pinned_fields(str(out) + ".manifest.json") == {
        "command": "transfer",
        "config": {
            "specs": [{"m": 3, "k": 1, "nu": 0.0}, {"m": 5, "k": 2, "nu": 0.25}],
            "grid": "0:0.5:11",
        },
        "outputs": ["curve.csv"],
        "master_seed": None,
        "inputs": [],
    }


def test_simulate_then_report(invoke, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(GRID))
    out = tmp_path / "study"
    invoke("simulate", "--config", config, "--threads", "2", "--no-paper-faithful", "--resample", "series",
           "-o", out)
    assert pinned_fields(out / "manifest.json") == {
        "command": "simulate",
        "config": {
            "config": str(config),
            "scale": "desk",
            "resample": "series",
            "threads": 2,
            "periods": [10, 25],
            "snrs": [[1, 2]],
            "n": 100,
            "resamples": 4,
            "reps": 1,
            "narrow_factor": 1.0,
            "paper_faithful": False,
        },
        "outputs": [*STUDY_FILES, "reps.csv"],
        "master_seed": 3,
        "inputs": ["grid.json"],
    }

    reps = out / "reps.csv"
    report = tmp_path / "report"
    invoke("report", reps, "-o", report)
    assert pinned_fields(report / "manifest.json") == {
        "command": "report",
        "config": {"input": str(reps)},
        "outputs": STUDY_FILES,
        "master_seed": None,
        "inputs": ["reps.csv"],
    }
