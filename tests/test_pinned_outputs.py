"""Pinned output digests: refactors and speedups must keep every output byte.

The digests below were taken from the implementation that ran the PBB and
VMBPBB pipelines as two independent calls per repetition. Any change that
moves one of them changes the program's results and must be handled as a
behaviour change, not as a speedup.
"""

import hashlib

import numpy as np
import pytest

from vmbpbb import (
    Mode,
    PipelineConfig,
    Resample,
    ScenarioConfig,
    SeedSpec,
    TimeSeries,
    run_pipeline,
    run_scenario_detail,
)

from oracles import hourly_values

# Desk cell (50/100, SNR 1:10, n=1000, B=200), 3 repetitions, master seed 42.
DESK_RECORD_DIGESTS = {
    Resample.COMPONENTS: "82ff4f5860fd577325bed8ebc650482c862a1341730da4bc3f19bbeca552cbd8",
    Resample.SERIES: "a1ba285ad08c6aad805ce599f8f850551075bbde0ebc45999ba332f9b4f9e28c",
}

# run_pipeline on 1000 samples at periods (24, 168): neither period divides n
# and n is no multiple of lcm = 168, so the draws use per-slot bounds and the
# aggregate band covers a partial last cycle.
BAND_DIGESTS = {
    (Mode.VMBPBB, Resample.COMPONENTS): "b7b0415f588b3ad0a648e5f3f2b27bf0a433ba98773b2df689f8b43c362e7438",
    (Mode.PBB, Resample.COMPONENTS): "e2deb34f6248324b93006c2b5661fea012cf99fe0d409f09bde9016c04ade6f2",
    (Mode.VMBPBB, Resample.SERIES): "e7012e21f6c2c9422252997256345c08471fb9869fd81a2be2a917606314822e",
    (Mode.PBB, Resample.SERIES): "534a69fd4afe501cf16c8f375a1d735c1eca084a8d3bb700d2f50ceb602bf56f",
}


def records_digest(records) -> str:
    text = "\n".join(";".join(f"{k}={v!r}" for k, v in vars(rec).items()) for rec in records)
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> str:
    h = hashlib.sha256()
    bands = [result.aggregate_band] + [c.band for c in result.components]
    for band in bands:
        for arr in (band.lower, band.point, band.upper):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(result.aggregate_band.point, dtype="<f8").tobytes())
    for comp in result.components:
        h.update(np.ascontiguousarray(comp.estimates, dtype="<f8").tobytes())
    return h.hexdigest()


def hourly_series(n=1000):
    values = hourly_values(n)
    return TimeSeries(values - values.mean())


@pytest.mark.parametrize("resample", list(Resample))
def test_desk_cell_records_pinned(resample):
    cfg = ScenarioConfig(p1=50, p2=100, snr=(1, 10), n=1000, resamples=200, reps=3,
                         seed=SeedSpec(42), resample=resample)
    _, records = run_scenario_detail(cfg)
    assert records_digest(records) == DESK_RECORD_DIGESTS[resample]


@pytest.mark.parametrize("mode,resample", list(BAND_DIGESTS))
def test_partial_cycle_band_pinned(mode, resample):
    cfg = PipelineConfig(periods=(24, 168), resamples=50, seed=SeedSpec(9), mode=mode,
                         resample=resample)
    result = run_pipeline(hourly_series(), cfg)
    assert result_digest(result) == BAND_DIGESTS[(mode, resample)]
