"""The benchmark workloads: inputs made from a seed, one op, and its output digest.

Each workload rotates over INPUTS_PER_SEED inputs derived from the workload
seed. An op calls the program the way its users do (the public simulation
function, or the click CLI in-process) and returns something `digest` turns
into a SHA-256 of the output bytes. Importing this module imports vmbpbb.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from vmbpbb import cli, simulation
from vmbpbb.bootstrap import SeedSpec

INPUTS_PER_SEED = 3
# Worker processes for grid_sweep; fixed so the op is the same on every host.
GRID_THREADS = 2


def _derived_seed(seed: int, index: int) -> int:
    """A 32-bit seed for input `index` of workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _digest_files(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def invoke_cli(args) -> int:
    """Run `vmbpbb <args>` through click in this process; returns the exit code."""
    try:
        rv = cli.main.main(args=[str(a) for a in args], standalone_mode=False, prog_name="vmbpbb")
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return rv if isinstance(rv, int) else 0


class DeskRep:
    """One paired PBB+VMBPBB repetition at the pinned desk cell, no I/O."""

    name = "desk_rep"
    via_cli = False
    FULL = {"periods": (50, 100), "snr": (1.0, 10.0), "n": 1000, "resamples": 200}
    TINY = {"periods": (10, 20), "snr": (1.0, 10.0), "n": 200, "resamples": 20}

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        p1, p2 = self.size["periods"]
        self.inputs = [
            simulation.ScenarioConfig(
                p1=p1, p2=p2, snr=self.size["snr"], n=self.size["n"],
                resamples=self.size["resamples"], reps=1, seed=SeedSpec(seed, (i,)),
            )
            for i in range(INPUTS_PER_SEED)
        ]

    def op(self, index: int):
        # Looked up through the module so a traced run sees its wrapper.
        _, records = simulation.run_scenario_detail(self.inputs[index], 1)
        return records

    def digest(self, index: int, records) -> str:
        text = "\n".join(
            ";".join(f"{k}={v!r}" for k, v in vars(rec).items()) for rec in records
        )
        return hashlib.sha256(text.encode()).hexdigest()


class HourlyRun:
    """`vmbpbb run` on a year of hourly samples: long series, few resamples per sample."""

    name = "hourly_run"
    via_cli = True
    FULL = {"periods": (24, 168), "n": 8760, "resamples": 200}
    TINY = {"periods": (24, 168), "n": 504, "resamples": 20}
    OUTPUTS = ("component_p24.csv", "component_p168.csv", "aggregate.csv")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        workdir.mkdir(parents=True, exist_ok=True)
        n = self.size["n"]
        periods = ",".join(str(p) for p in self.size["periods"])
        self.outdirs = []
        self.inputs = []
        t = np.arange(n)
        for i in range(INPUTS_PER_SEED):
            rng = np.random.default_rng([seed, i])
            values = (
                2.0 * np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi))
                + 1.0 * np.sin(2 * np.pi * t / 168 + rng.uniform(0, 2 * np.pi))
                + rng.normal(0.0, 1.5, n)
            )
            # A zero grand mean keeps the pipeline's grand-mean warning quiet.
            values -= values.mean()
            path = workdir / f"hourly-{i}.csv"
            with path.open("w") as fh:
                fh.write("t,value\n")
                fh.writelines(f"{j},{format(v, '.17g')}\n" for j, v in enumerate(values))
            outdir = workdir / f"hourly-{i}-out"
            self.outdirs.append(outdir)
            self.inputs.append([
                "run", path, "--periods", periods, "-B", self.size["resamples"],
                "--mode", "vmbpbb", "--seed", _derived_seed(seed, i), "-o", outdir,
            ])

    def op(self, index: int) -> int:
        return invoke_cli(self.inputs[index])

    def digest(self, index: int, code: int) -> str:
        if code != 0:
            raise RuntimeError(f"vmbpbb run exited with code {code}")
        return _digest_files(self.outdirs[index], self.OUTPUTS)


class GridSweep:
    """`vmbpbb simulate --threads 2` on a 3-cell grid, including the narrowed (10,25) cell."""

    name = "grid_sweep"
    via_cli = True
    FULL = {"periods": [10, 25, 100], "snrs": [[1, 2]], "n": 1000, "resamples": 200, "reps": 2}
    TINY = {"periods": [10, 25, 50], "snrs": [[1, 2]], "n": 120, "resamples": 20, "reps": 2}
    OUTPUTS = ("table1.csv", "table2.csv", "coverage.csv", "cells.csv", "reps.csv")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        workdir.mkdir(parents=True, exist_ok=True)
        self.outdirs = []
        self.inputs = []
        for i in range(INPUTS_PER_SEED):
            config = workdir / f"grid-{i}.json"
            config.write_text(json.dumps({**self.size, "seed": _derived_seed(seed, i)}))
            outdir = workdir / f"grid-{i}-out"
            self.outdirs.append(outdir)
            self.inputs.append([
                "simulate", "--config", config, "--threads", GRID_THREADS, "-o", outdir,
            ])

    def op(self, index: int) -> int:
        return invoke_cli(self.inputs[index])

    def digest(self, index: int, code: int) -> str:
        if code != 0:
            raise RuntimeError(f"vmbpbb simulate exited with code {code}")
        return _digest_files(self.outdirs[index], self.OUTPUTS)


WORKLOADS = {w.name: w for w in (DeskRep, HourlyRun, GridSweep)}


def working_set(workload) -> dict:
    """Array sizes one op touches, computed from its parameters (not measured)."""
    n, b = workload.size["n"], workload.size["resamples"]
    return {
        "pipeline.trajectory_bytes": b * n * 8,
        "bootstrap.gather_bytes_per_row": n * 8,
        "bootstrap.gather_bytes_per_run": b * n * 8,
    }
