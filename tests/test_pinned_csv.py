"""Pinned CLI output files: the CSV bytes that filter, run, transfer, simulate and report write.

`test_pinned_outputs.py` pins the arrays behind the bands; this file pins the
files themselves, so a change to how cells are formatted, quoted or joined
shows up here even when every array is unchanged. The digests were taken
from the row-wise `csv.writer` implementation of `write_rows_csv`.
"""

import hashlib
import json
import os
import platform

import numpy as np
import pytest
from click.testing import CliRunner

from vmbpbb.cli import main

from oracles import hourly_values

DIGESTS = {
    "filter_periods": {
        "out.csv": "20f042625b055cbcbe210480714cbae0137c9aff54d7f471ca79b9a2af79689d",
    },
    "filter_spec_truncate": {
        "out.csv": "2d849079e948216e241fb9761d18b93295216761ae607a68df0e9663f17bbf29",
    },
    "filter_signed_zeros": {
        "out.csv": "9b2606c41e981dc479aa7b88c91bdabc1f027e1b6cebf355dbb95a3bb5265d6c",
    },
    "run_vmbpbb": {
        "aggregate.csv": "18a05ec6a8232db66c5f3d5f087e23a0d621d23277e040122d0754ea9c7cf419",
        "component_p24.csv": "81d7c51f8f6d1360ef9aaf1a33cc5775bbe48005cd821690ca6765b891dd7ce3",
        "component_p168.csv": "51f5a31dbd51c58fe4ffb92e18b1d0cb25684ce98f4f8a2399246794ebad145e",
    },
    "run_pbb": {
        "aggregate.csv": "7658b109db3e119273701cb73d016d08d74c1a2252242b1fc630f4309a7ddd37",
        "component_p24.csv": "237bf1ffdcd790ff2aa8ed66c4bd62f3abc402fa7444d0b9f9b4056cc708f3e1",
        "component_p168.csv": "59af322b10bf9cbca110609210059e40a49f6bfa38c350a4ffe930a37d8558e5",
    },
    "run_series": {
        "aggregate.csv": "ceabac76b8540fe557c0636d0542cf441c0ddde41d1f094f62c2a856af89e1a1",
        "component_p24.csv": "b8b727a72348d452f71f8a2524574fbb88d11768f9cc2848e55a9ea13af52f55",
        "component_p168.csv": "294c2270fff6f182789511ea6dc86d5cc7d46b067c65a9a266d9ee9e52be1f87",
    },
    "transfer": {
        "out.csv": "a1bcf9c5b5fd14e67b33ffa2562f7c1feef975082fb99115ee4e0d1f5f86d45f",
    },
    "simulate": {
        "table1.csv": "545ac776c91f0dea5714d9abb47b1d5aa8d26a1a749ab33168f14fd2ca403463",
        "table2.csv": "89f115c5e0fa3b66eb4de0b35950c2b38edcafb00189f121cd8df4f26c76e07a",
        "coverage.csv": "ae33f20f09bf6c4cc5c6c1558d25f72d5cc83b711706ffc6be084a3295d70211",
        "cells.csv": "d22b9cc0c7958262c04898ace01e3c4e7fae6e5759de71b4f2d121ea2db27474",
        "reps.csv": "65157bbf3596f573edaa1a6bcc33d00511fbd0a3f627cf0e05fbc5d35bf1df13",
    },
    "report": {
        "table1.csv": "545ac776c91f0dea5714d9abb47b1d5aa8d26a1a749ab33168f14fd2ca403463",
        "table2.csv": "89f115c5e0fa3b66eb4de0b35950c2b38edcafb00189f121cd8df4f26c76e07a",
        "coverage.csv": "ae33f20f09bf6c4cc5c6c1558d25f72d5cc83b711706ffc6be084a3295d70211",
        "cells.csv": "d22b9cc0c7958262c04898ace01e3c4e7fae6e5759de71b4f2d121ea2db27474",
    },
}


def write_input(path, values, start=0):
    # Written with repr, not the writer under test, so the inputs cannot move with it.
    lines = ["t,value"] + [f"{start + i},{float(v)!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def signed_zero_values(n):
    # -0.0 cells between ordinary values, plus negative subnormals.
    values = np.sin(2 * np.pi * np.arange(n) / 10)
    values[::3] = -0.0
    values[1::9] = -5e-324
    return values


def file_digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def invoke(args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output


def produce(case, tmp_path):
    """Run the CLI command behind `case`; return the directory holding its CSVs."""
    src = tmp_path / "in.csv"
    out = tmp_path / "out"
    out.mkdir()
    if case == "filter_periods":
        write_input(src, hourly_values(400), start=5)
        invoke(["filter", src, "--periods", "24,50", "-o", out / "out.csv"])
    elif case == "filter_spec_truncate":
        write_input(src, hourly_values(300))
        invoke(["filter", src, "--spec", "m=25,k=2,nu=0.04", "--spec", "m=11,k=3",
                "--edge", "truncate", "-o", out / "out.csv"])
    elif case == "filter_signed_zeros":
        write_input(src, signed_zero_values(200))
        invoke(["filter", src, "--periods", "10,25", "-o", out / "out.csv"])
    elif case.startswith("run_"):
        # n = 990: neither period nor lcm(24, 168) = 168 divides n.
        write_input(src, hourly_values(990))
        mode, resample = {"run_vmbpbb": ("vmbpbb", "components"), "run_pbb": ("pbb", "components"),
                          "run_series": ("vmbpbb", "series")}[case]
        invoke(["run", src, "--periods", "24,168", "--mode", mode, "--resample", resample,
                "-B", 40, "--seed", 11, "-o", out])
    elif case == "transfer":
        invoke(["transfer", "--spec", "m=7,k=2,nu=0.1", "--spec", "m=25,k=1",
                "--grid", "0:0.5:101", "-o", out / "out.csv"])
    else:
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 2], [1, 5]], "n": 200,
            "resamples": 6, "reps": 2, "seed": 5, "narrow_factor": 1.5,
        }))
        sim = tmp_path / "sim"
        invoke(["simulate", "--config", config, "--threads", 1, "-o", sim])
        if case == "simulate":
            return sim
        invoke(["report", sim / "reps.csv", "-o", out])
    return out


@pytest.mark.parametrize("case", list(DIGESTS))
def test_cli_csv_bytes_pinned(case, tmp_path):
    out = produce(case, tmp_path)
    assert file_digests(out, DIGESTS[case]) == DIGESTS[case]


MANIFEST_KEYS = {"command", "config", "created_utc", "environment", "inputs", "master_seed", "outputs",
                 "tool", "version"}


@pytest.mark.parametrize("case", ["filter_periods", "run_vmbpbb", "transfer", "simulate", "report"])
def test_manifest_records_environment(case, tmp_path):
    # The block only adds keys: the CSVs keep their pinned bytes.
    out = produce(case, tmp_path)
    assert file_digests(out, DIGESTS[case]) == DIGESTS[case]
    (path,) = out.glob("*manifest.json")
    manifest = json.loads(path.read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["environment"] == {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


@pytest.mark.parametrize("case", ["filter_periods", "run_vmbpbb", "transfer", "simulate", "report"])
def test_manifest_lists_every_written_csv(case, tmp_path):
    out = produce(case, tmp_path)
    (path,) = out.glob("*manifest.json")
    outputs = json.loads(path.read_text())["outputs"]
    assert sorted(outputs) == sorted(p.name for p in out.glob("*.csv"))
    assert all((path.parent / name).is_file() for name in outputs)
