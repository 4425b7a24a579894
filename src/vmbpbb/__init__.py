"""Variable multiple bandpass periodic block bootstrap for time series.

Separates a series with several periodically correlated components into one
bandpass-filtered series per component, block-bootstraps each at its own
period, and aggregates the component bootstraps into confidence bands for the
multi-period periodic mean. Ships the filters, the bootstrap, the pipelines,
and a paired simulation study comparing against the unfiltered baseline.
"""

from .bootstrap import (
    BootstrapRun,
    CIBand,
    PhasePartition,
    SeedSpec,
    bootstrap_periodic_means,
    ci_band,
    pbb_resample,
    phase_partition,
)
from .filters import (
    CoefficientTable,
    ComplexSeries,
    EdgePolicy,
    FilterSpec,
    energy_transfer,
    half_power_cutoff,
    kz_apply,
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
    component_seed,
    decompose,
    run_paired,
    run_pipeline,
)
from .series import (
    PeriodicMean,
    Spectrum,
    TimeSeries,
    extend_periodic,
    periodic_mean,
    periodogram,
)
from .simulation import (
    GridCell,
    RepRecord,
    ScenarioConfig,
    ScenarioMetrics,
    TrueSignals,
    ci_ratio,
    generate_mpc,
    outside_fraction,
    r2_against_truth,
    run_grid,
    run_scenario,
    run_scenario_detail,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapRun",
    "CIBand",
    "CoefficientTable",
    "ComplexSeries",
    "ComponentResult",
    "EdgePolicy",
    "FilterSpec",
    "GridCell",
    "Mode",
    "MpcResult",
    "PeriodicMean",
    "PhasePartition",
    "PipelineConfig",
    "RepRecord",
    "Resample",
    "ScenarioConfig",
    "ScenarioMetrics",
    "SeedSpec",
    "Spectrum",
    "TimeSeries",
    "TrueSignals",
    "bootstrap_periodic_means",
    "ci_band",
    "ci_ratio",
    "component_seed",
    "decompose",
    "energy_transfer",
    "extend_periodic",
    "generate_mpc",
    "half_power_cutoff",
    "kz_apply",
    "kz_coefficients",
    "kzft_apply",
    "outside_fraction",
    "pbb_resample",
    "periodic_mean",
    "periodogram",
    "phase_partition",
    "r2_against_truth",
    "reconstruct_component",
    "run_grid",
    "run_paired",
    "run_pipeline",
    "run_scenario",
    "run_scenario_detail",
    "select_filter_specs",
]
