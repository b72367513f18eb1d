"""Modeling toolkit for two-photon interference between remote
quantum-dot-cavity single-photon sources.

Modules:
    units_core        units, physical constants, seeded RNG streams
    wavepacket        temporal emission profiles and classical overlap
    overlap_analytics mean wavepacket overlap formulas, Voigt averaging,
                      spectral filtering
    spectral_noise    Ornstein-Uhlenbeck frequency wandering and the
                      delay-visibility law
    hom_montecarlo    deterministic sharded coincidence-histogram simulator
    estimation        Levenberg-Marquardt fits (lifetime, reflectivity,
                      delay-visibility)
    cli_io            CLI, config ingestion, pair matching, serialization
"""

from .units_core import (
    HBAR_UEV_NS,
    EnergySplitting,
    Frequency,
    Rate,
    Wavelength,
)
from .wavepacket import (
    Charge,
    EmitterParams,
    WavepacketProfile,
    classical_overlap,
    closed_form_temporal_overlap,
    emission_profile,
)
from .overlap_analytics import (
    FilterParams,
    SourcePair,
    apply_filter,
    make_source_pair,
    mwo_no_dephasing,
    mwo_voigt_averaged,
    mwo_with_dephasing,
    remote_upper_bound,
)
from .spectral_noise import (
    DelayVisibilitySeries,
    WanderingProcess,
    individual_indistinguishability,
    intrinsic_visibility,
    sample_frequency_path,
    visibility_vs_delay,
)
from .hom_montecarlo import (
    CoincidenceHistogram,
    HomExperimentConfig,
    Polarization,
    VisibilityEstimate,
    analytic_prediction,
    estimate_visibility,
    simulate_histogram,
)
from .estimation import (
    FitResult,
    LifetimeModel,
    LifetimeTrace,
    fit_delay_visibility,
    fit_lifetime,
    fit_reflectivity,
)
from .cli_io import (
    RunConfig,
    SourceCatalog,
    demo_catalog,
    match_pairs,
    run_pipeline,
)

__version__ = "0.1.0"
