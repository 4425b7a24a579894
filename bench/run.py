#!/usr/bin/env python3
"""vmbpbb benchmark: one workload per call, a closed loop with one caller.

    python3 bench/run.py --workload desk_rep --seed 1 --seconds 55 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
this one, never from an installed copy. With `--trace 0` the loop runs
untraced and reports the end-to-end metrics, then times set-up in fresh
processes. With `--trace 1` every second op runs traced and the per-layer
metrics are reported, with the traced ops' p50 against the untraced ones' as
the tracing overhead. Every op's output
digest must equal the first digest of its input, and the default seed's
digests are pinned in pins.json. The last stdout line is the JSON result; a
human-readable report goes to stderr and a full report, with the spans of a
traced run, to `.bench_out/` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINS = BENCH_DIR / "pins.json"

SETUP_PROBES = 3
SETUP_PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "filters.design_ms": "ms/op",
    "filters.apply_ms": "ms/op",
    "filters.apply_calls": "1/op",
    "filters.macs": "1/op",
    "bootstrap.resample_ms": "ms/op",
    "bootstrap.rows": "1/op",
    "bootstrap.row_us": "us",
    "bootstrap.gather_bytes": "B/op",
    "bootstrap.stream_unique_frac": "ratio",
    "bootstrap.band_ms": "ms/op",
    "bootstrap.band_calls": "1/op",
    "bootstrap.band_cells": "1/op",
    "bootstrap.band_useful_frac": "ratio",
    "pipeline.run_calls": "1/op",
    "pipeline.run_ms": "ms/op",
    "pipeline.self_ms": "ms/op",
    "pipeline.trajectory_bytes": "B/op",
    "simulation.generate_ms": "ms/op",
    "simulation.cell_ms": "ms/op",
    "simulation.self_ms": "ms/op",
    "simulation.pool_ms": "ms/op",
    "simulation.pool_starts": "1/op",
    "simulation.pool_tasks": "1/op",
    "simulation.worker_cpu_ms": "ms/op",
    "simulation.parallel_eff": "ratio",
    "csvio.read_ms": "ms/op",
    "csvio.rows_read": "1/op",
    "csvio.write_ms": "ms/op",
    "csvio.rows_written": "1/op",
    "csvio.bytes_written": "B/op",
    "csvio.manifest_ms": "ms/op",
    "cli.self_ms": "ms/op",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["desk_rep", "hourly_run", "grid_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import plus one op in this fresh process, print seconds")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import vmbpbb from this checkout's src/ and fail if that is not where it came from."""
    if not (SRC / "vmbpbb" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'vmbpbb'}")
    sys.path.insert(0, str(SRC))
    import vmbpbb

    if SRC not in Path(vmbpbb.__file__).resolve().parents:
        raise SystemExit(f"error: vmbpbb was imported from {vmbpbb.__file__}, not {SRC}")


def cpu_seconds(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_loop(workload, seconds, pins=None, tracer=None):
    """Closed loop over the workload's inputs for `seconds` of wall time.

    With a tracer, every second op runs with the hooks installed, so traced
    and untraced ops see the same state of a shared machine; their latencies
    are kept apart. An op fails when it raises, exits non-zero, or yields a
    digest other than the first one its input produced (or the pinned one,
    when given).
    """
    latencies = {False: [], True: []}
    traced_child_cpu_s = 0.0
    attempted = failed = 0
    reference = {}
    cpu0 = cpu_seconds(resource.RUSAGE_SELF)
    child0 = cpu_seconds(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    while True:
        index = attempted % len(workload.inputs)
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.install()
            child_before = cpu_seconds(resource.RUSAGE_CHILDREN)
        try:
            start = time.perf_counter()
            with tracer.op_span() if traced else nullcontext():
                result = workload.op(index)
            elapsed = time.perf_counter() - start
            digest = workload.digest(index, result)
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            expected = pins[index] if pins else reference.setdefault(index, digest)
            if digest == expected:
                latencies[traced].append(elapsed)
            else:
                failed += 1
                print(f"digest mismatch on {workload.name} input {index}: {digest} != {expected}",
                      file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
                traced_child_cpu_s += cpu_seconds(resource.RUSAGE_CHILDREN) - child_before
        if time.perf_counter() - t0 >= seconds:
            break
    return {
        "latencies": latencies[False],
        "traced_latencies": latencies[True],
        "traced_child_cpu_s": traced_child_cpu_s,
        "attempted": attempted,
        "failed": failed,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": cpu_seconds(resource.RUSAGE_SELF) - cpu0,
        "child_cpu_s": cpu_seconds(resource.RUSAGE_CHILDREN) - child0,
    }


def latency_summary(latencies):
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else p50
    return 1e3 * p50, 1e3 * p90


def setup_times(args):
    """Set-up times in seconds, one per fresh process; a failed probe raises."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    import_program()
    import workloads

    t1 = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="probe-") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        t2 = time.perf_counter()
        result = workload.op(0)
        t3 = time.perf_counter()
        workload.digest(0, result)
    print(repr((t1 - t0) + (t3 - t2)))
    return 0


def _read_first(path: Path, key: str):
    try:
        for line in path.read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """The checkout's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _size_bytes(text):
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def environment(workload) -> dict:
    from importlib import metadata

    import numpy

    import workloads

    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = None
    caches = _cache_sizes()
    computed = workloads.working_set(workload)
    computed["L2_bytes"] = _size_bytes(caches.get("L2"))
    computed["L3_bytes"] = _size_bytes(caches.get("L3"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": click_version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first(Path("/proc/cpuinfo"), "model name"),
        "caches": caches,
        "git_commit": _git_commit(),
        "working_set_computed": computed,
    }


def end_to_end(workload, args, pins):
    """Untraced loop for the whole run time, then set-up timed in fresh processes."""
    loop = run_loop(workload, args.seconds, pins=pins)
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    p50, p90 = latency_summary(loop["latencies"])
    setups = setup_times(args)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(loop["latencies"]) / loop["wall_s"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "cpu_ms_per_op": 1e3 * (loop["cpu_s"] + loop["child_cpu_s"]) / loop["attempted"],
        "peak_rss_mb": max(self_ru.ru_maxrss, child_ru.ru_maxrss) / 1024.0,
    }
    detail = {"latencies_s": loop["latencies"], "setup_s_samples": setups}
    return [loop], metrics, detail


def per_layer(workload, args, pins):
    """One loop for the whole run time in which every second op is traced."""
    import spans

    tracer = spans.Tracer()
    loop = run_loop(workload, args.seconds, pins=pins, tracer=tracer)
    metrics = spans.layer_metrics(tracer, workload.via_cli, 1e3 * loop["traced_child_cpu_s"])
    metrics["trace_overhead_frac"] = (
        latency_summary(loop["traced_latencies"])[0] / latency_summary(loop["latencies"])[0] - 1.0
    )
    detail = {
        "latencies_s": loop["latencies"],
        "traced_latencies_s": loop["traced_latencies"],
        "missing_hooks": tracer.missing,
        "nesting_errors": spans.nesting_errors(tracer),
        "spans": tracer.spans,
    }
    return [loop], metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    import_program()
    import workloads

    pins = json.loads(PINS.read_text())
    cls = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{args.workload}-"))
    try:
        # Warm-up: one op on the default seed's first input, checked against its pin.
        warm = run_loop(cls(pins["seed"], workdir / "pinned"), 0, pins=pins[args.workload])
        workload = cls(args.seed, workdir / "inputs")
        seed_pins = pins[args.workload] if args.seed == pins["seed"] else None
        measure = per_layer if args.trace else end_to_end
        runs, metrics, detail = measure(workload, args, seed_pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = warm["attempted"] + sum(r["attempted"] for r in runs)
    failed = warm["failed"] + sum(r["failed"] for r in runs)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if args.trace:
        metrics["failed_frac"] = failed / attempted
    env = environment(workload)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    report.write_text(json.dumps({"args": vars(args), "environment": env, "result": result, **detail}))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops attempted, "
          f"{failed} failed; closed loop, one caller", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    print(f"  report: {report}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
