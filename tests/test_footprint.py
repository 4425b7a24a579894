"""What a fresh interpreter loads to run vmbpbb.

A serial repetition and `vmbpbb run` need neither a process pool nor numpy's
masked arrays: simulation imports concurrent.futures only when a pool starts,
and takes its medians without np.median, whose NaN check imports numpy.ma.
The check runs in a new interpreter, since the test process has loaded all of
these long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import vmbpbb

SRC = Path(vmbpbb.__file__).resolve().parents[1]

CHILD = """
import json, sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import vmbpbb
from vmbpbb import ScenarioConfig, SeedSpec, run_scenario_detail
from vmbpbb.cli import main
from vmbpbb.csvio import write_rows_csv

tmp = Path(sys.argv[1])
cfg = ScenarioConfig(p1=10, p2=25, snr=(1, 2), n=200, resamples=10, reps=3, seed=SeedSpec(7))
serial = run_scenario_detail(cfg, threads=1)
t = np.arange(200)
write_rows_csv(tmp / "input.csv", ["t", "value"], [range(200), np.sin(2 * np.pi * t / 10) + np.sin(2 * np.pi * t / 25)])
result = CliRunner().invoke(main, ["run", str(tmp / "input.csv"), "--periods", "10,25", "-B", "10",
                                   "--seed", "3", "-o", str(tmp / "out")])
loaded = [name for name in ("multiprocessing", "concurrent.futures", "numpy.ma") if name in sys.modules]
pooled = run_scenario_detail(cfg, threads=2)
print(json.dumps({"exit_code": result.exit_code, "loaded": loaded, "pool_matches_serial": pooled == serial,
                  "pool_loaded": "concurrent.futures" in sys.modules}))
"""


def test_serial_work_loads_no_pool_and_no_masked_arrays(tmp_path):
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["exit_code"] == 0
    assert report["loaded"] == []
    # The pool path still runs, and gives the serial result, once a pool is asked for.
    assert report["pool_matches_serial"] and report["pool_loaded"]
