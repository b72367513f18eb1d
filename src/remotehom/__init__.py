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

Names are imported from their modules; the package root holds only
`__version__`.
"""

__version__ = "0.1.0"
