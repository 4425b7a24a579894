"""Span tracing from outside the program, and the per-layer metrics built from it.

`Tracer.install` replaces the names that vmbpbb's caller modules import
(HOOKS below) with timing wrappers and `uninstall` puts the originals back.
Each wrapper records a span (name, start, end, parent, op) in memory. After
the span closes it updates counters from the call's arguments inside a
`trace.count` span, so counting lands in no layer's self time.

Pool workers inherit the wrappers when they fork; a wrapper called in another
process than the tracer's passes straight through, so work done in workers is
reported as not captured (see `simulation.pool_tasks`), never estimated.
"""

from __future__ import annotations

import collections
import importlib
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_apply(tracer, args, kwargs, result):
    series, spec = _arg(args, kwargs, 0, "series"), _arg(args, kwargs, 1, "spec")
    tracer.counts["filters.apply_calls"] += 1
    tracer.counts["filters.macs"] += series.n * spec.support


def _count_resample(tracer, args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    resamples = int(_arg(args, kwargs, 2, "resamples"))
    seed = _arg(args, kwargs, 3, "seed")
    tracer.counts["bootstrap.rows"] += resamples
    tracer.counts["bootstrap.gather_bytes"] += resamples * series.n * 8
    # Row b uses the stream (master_seed, labels + (b,)); count each stream
    # once per op.
    key = (seed.master_seed, seed.labels)
    seen = tracer.op_streams.get(key, 0)
    tracer.counts["bootstrap.streams_unique"] += max(0, resamples - seen)
    tracer.op_streams[key] = max(seen, resamples)


def _count_band(tracer, args, kwargs, result):
    arr = np.asarray(_arg(args, kwargs, 0, "samples"), dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    rows, cols = arr.shape
    # Columns are told apart by their first two rows (exact float pairs);
    # bootstrap means of continuous data do not tie there by chance.
    pairs = arr[0] + 1j * arr[min(1, rows - 1)]
    tracer.counts["bootstrap.band_calls"] += 1
    tracer.counts["bootstrap.band_cells"] += rows * cols
    tracer.counts["bootstrap.band_columns"] += cols
    tracer.counts["bootstrap.band_distinct_columns"] += np.unique(pairs).size


def _count_run(tracer, args, kwargs, result):
    series, cfg = _arg(args, kwargs, 0, "series"), _arg(args, kwargs, 1, "cfg")
    tracer.counts["pipeline.run_calls"] += 1
    tracer.counts["pipeline.trajectory_bytes"] += cfg.resamples * series.n * 8


def _count_read(tracer, args, kwargs, result):
    tracer.counts["csvio.rows_read"] += result.n


def _count_write(tracer, args, kwargs, result):
    data = Path(_arg(args, kwargs, 0, "path")).read_bytes()
    tracer.counts["csvio.rows_written"] += data.count(b"\n") - 1
    tracer.counts["csvio.bytes_written"] += len(data)


# (module, imported name, span name, counter). The run_pipeline and csvio
# names are hooked where the CLI and the simulation import them.
HOOKS = (
    ("vmbpbb.pipeline", "select_filter_specs", "filters.design", None),
    ("vmbpbb.pipeline", "kzft_apply", "filters.apply", _count_apply),
    ("vmbpbb.pipeline", "reconstruct_component", "filters.reconstruct", None),
    ("vmbpbb.pipeline", "bootstrap_periodic_means", "bootstrap.resample", _count_resample),
    ("vmbpbb.pipeline", "ci_band", "bootstrap.band", _count_band),
    ("vmbpbb.simulation", "generate_mpc", "simulation.generate", None),
    ("vmbpbb.simulation", "run_pipeline", "pipeline.run", _count_run),
    ("vmbpbb.simulation", "run_scenario_detail", "simulation.cell", None),
    ("vmbpbb.simulation", "ProcessPoolExecutor", "simulation.pool", None),
    ("vmbpbb.cli", "read_series_csv", "csvio.read", _count_read),
    ("vmbpbb.cli", "write_rows_csv", "csvio.write", _count_write),
    ("vmbpbb.cli", "manifest_for", "csvio.manifest", None),
    ("vmbpbb.cli", "write_manifest", "csvio.manifest", None),
    ("vmbpbb.cli", "run_pipeline", "pipeline.run", _count_run),
)

OP_SPAN = "op"
COUNT_SPAN = "trace.count"


class Tracer:
    """In-memory spans and counters for one traced run in one process."""

    def __init__(self):
        self.pid = os.getpid()
        # Each span is [name, start_ns, end_ns, parent index or -1, op index].
        self.spans = []
        self.stack = []
        self.op = -1
        self.op_streams = {}
        self.counts = collections.Counter()
        self.pool_workers = {}
        self.installed = []
        self.missing = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self.stack.remove(sid)

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def op_span(self):
        """The root span of the next op."""
        self.op += 1
        self.op_streams = {}
        return self.span(OP_SPAN)

    def wrap(self, span_name, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            sid = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if counter is not None:
                # A span of its own keeps counting out of the caller's self time.
                with tracer.span(COUNT_SPAN):
                    counter(tracer, args, kwargs, result)
            return result

        return traced

    def pool_class(self, span_name, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                self._bench_sid = tracer.open(span_name)
                tracer.counts["simulation.pool_starts"] += 1
                tracer.pool_workers[self._bench_sid] = max_workers or os.cpu_count() or 1
                super().__init__(max_workers, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tracer.counts["simulation.pool_tasks"] += min(map(len, iterables), default=0)
                return super().map(fn, *iterables, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._bench_sid is not None:
                        tracer.close(self._bench_sid)
                        self._bench_sid = None

        return TracedPool

    def install(self) -> None:
        """Wrap every hooked name that still exists; remember the ones that are gone."""
        self.missing = []
        for module_name, attr, span_name, counter in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(original, type):
                replacement = self.pool_class(span_name, original)
            else:
                replacement = self.wrap(span_name, original, counter)
            setattr(module, attr, replacement)
            self.installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed = []


def span_times(tracer: Tracer):
    """Per span: (duration_ns, self_ns), where self excludes direct children."""
    dur = [end - start for _, start, end, _, _ in tracer.spans]
    child = [0] * len(dur)
    for sid, (_, _, _, parent, _) in enumerate(tracer.spans):
        if parent >= 0:
            child[parent] += dur[sid]
    return dur, [d - c for d, c in zip(dur, child)]


def nesting_errors(tracer: Tracer) -> list:
    """Spans that start before or end after their parent, or have negative self time."""
    _, self_ns = span_times(tracer)
    errors = []
    for sid, (name, start, end, parent, _) in enumerate(tracer.spans):
        if self_ns[sid] < 0:
            errors.append(f"{name}#{sid}: negative self time")
        if parent >= 0:
            _, p_start, p_end, _, _ = tracer.spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"{name}#{sid}: outside parent #{parent}")
    return errors


def layer_metrics(tracer: Tracer, via_cli: bool, worker_cpu_ms: float) -> dict:
    """Per-layer figures per traced op, from the spans and counters of one traced run."""
    dur, self_ns = span_times(tracer)
    total = collections.Counter()
    self_total = collections.Counter()
    for (name, *_), d, s in zip(tracer.spans, dur, self_ns):
        total[name] += d
        self_total[name] += s
    ops = sum(1 for sp in tracer.spans if sp[0] == OP_SPAN and sp[3] < 0)
    c = tracer.counts

    def per_op(value):
        return value / ops if ops else 0.0

    def ms(value_ns):
        return per_op(value_ns) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    pool_capacity_ns = sum(
        dur[sid] * workers for sid, workers in tracer.pool_workers.items()
    )
    return {
        "filters.design_ms": ms(total["filters.design"]),
        "filters.apply_ms": ms(total["filters.apply"] + total["filters.reconstruct"]),
        "filters.apply_calls": per_op(c["filters.apply_calls"]),
        "filters.macs": per_op(c["filters.macs"]),
        "bootstrap.resample_ms": ms(total["bootstrap.resample"]),
        "bootstrap.rows": per_op(c["bootstrap.rows"]),
        "bootstrap.row_us": ratio(total["bootstrap.resample"] / 1e3, c["bootstrap.rows"]),
        "bootstrap.gather_bytes": per_op(c["bootstrap.gather_bytes"]),
        "bootstrap.stream_unique_frac": ratio(c["bootstrap.streams_unique"], c["bootstrap.rows"]),
        "bootstrap.band_ms": ms(total["bootstrap.band"]),
        "bootstrap.band_calls": per_op(c["bootstrap.band_calls"]),
        "bootstrap.band_cells": per_op(c["bootstrap.band_cells"]),
        "bootstrap.band_useful_frac": ratio(
            c["bootstrap.band_distinct_columns"], c["bootstrap.band_columns"]
        ),
        "pipeline.run_calls": per_op(c["pipeline.run_calls"]),
        "pipeline.run_ms": ms(total["pipeline.run"]),
        "pipeline.self_ms": ms(self_total["pipeline.run"]),
        "pipeline.trajectory_bytes": per_op(c["pipeline.trajectory_bytes"]),
        "simulation.generate_ms": ms(total["simulation.generate"]),
        "simulation.cell_ms": ms(total["simulation.cell"]),
        "simulation.self_ms": ms(self_total["simulation.cell"]),
        "simulation.pool_ms": ms(total["simulation.pool"]),
        "simulation.pool_starts": per_op(c["simulation.pool_starts"]),
        "simulation.pool_tasks": per_op(c["simulation.pool_tasks"]),
        "simulation.worker_cpu_ms": per_op(worker_cpu_ms),
        "simulation.parallel_eff": ratio(worker_cpu_ms * 1e6, pool_capacity_ns),
        "csvio.read_ms": ms(total["csvio.read"]),
        "csvio.rows_read": per_op(c["csvio.rows_read"]),
        "csvio.write_ms": ms(total["csvio.write"]),
        "csvio.rows_written": per_op(c["csvio.rows_written"]),
        "csvio.bytes_written": per_op(c["csvio.bytes_written"]),
        "csvio.manifest_ms": ms(total["csvio.manifest"]),
        "cli.self_ms": ms(self_total[OP_SPAN]) if via_cli else 0.0,
    }
