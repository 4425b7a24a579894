"""Variable multiple bandpass periodic block bootstrap for time series.

Separates a series with several periodically correlated components into one
bandpass-filtered series per component, block-bootstraps each at its own
period, and aggregates the component bootstraps into confidence bands for the
multi-period periodic mean. Ships the filters, the bootstrap, the pipelines,
and a paired simulation study comparing against the unfiltered baseline.
"""

# The one place the version is written; pyproject.toml and every manifest read it.
__version__ = "0.1.0"

from .bootstrap import (
    CIBand,
    SeedSpec,
    ci_band,
)
from .filters import (
    EdgePolicy,
    FilterSpec,
    energy_transfer,
    half_power_cutoff,
    kz_coefficients,
    kzft_apply,
    reconstruct_component,
    select_filter_specs,
)
from .pipeline import (
    ComponentResult,
    Mode,
    MpcResult,
    PipelineConfig,
    Resample,
    run_paired,
    run_pipeline,
)
from .series import ComplexSeries, TimeSeries
from .simulation import (
    GridCell,
    RepRecord,
    ScenarioConfig,
    ScenarioMetrics,
    TrueSignals,
    ci_ratio,
    generate_mpc,
    outside_fraction,
    run_grid,
    run_scenario_detail,
)

__all__ = [
    "CIBand",
    "ComplexSeries",
    "ComponentResult",
    "EdgePolicy",
    "FilterSpec",
    "GridCell",
    "Mode",
    "MpcResult",
    "PipelineConfig",
    "RepRecord",
    "Resample",
    "ScenarioConfig",
    "ScenarioMetrics",
    "SeedSpec",
    "TimeSeries",
    "TrueSignals",
    "ci_band",
    "ci_ratio",
    "energy_transfer",
    "generate_mpc",
    "half_power_cutoff",
    "kz_coefficients",
    "kzft_apply",
    "outside_fraction",
    "reconstruct_component",
    "run_grid",
    "run_paired",
    "run_pipeline",
    "run_scenario_detail",
    "select_filter_specs",
]
