"""Sideband (modulational) stability of small-amplitude periodic waves.

The package builds small-amplitude periodic traveling waves of
rotation-modified dispersive model equations, classifies their stability
to long-wavelength sideband perturbations through a closed-form index,
and cross-validates every verdict with an independent truncated-Fourier
spectral solver.  See the README for the CLI surface.
"""

from .critical import (
    CriticalResult,
    StabilityDiagram,
    classify_intervals,
    diagram,
    kc_closed_form,
    kc_numeric,
    params_from_alpha,
    spot_check,
    tc_of_alpha,
)
from .errors import (
    BracketError,
    DomainError,
    InconclusiveError,
    NoRootError,
    ResonanceError,
    SolveError,
)
from .floquet_hill import (
    FloquetProblem,
    FloquetSpectrum,
    assemble,
    convergence_study,
    max_growth,
    spectrum,
    unperturbed_eigenvalue,
)
from .mi_index import (
    IndexResult,
    assemble_b_matrix,
    bmatrix_det_roots,
    detuning_ratio,
    growth_rate_leading,
    index,
)
from .stokes import (
    StokesWave,
    check_resonance,
    expand,
    find_resonances,
    harmonic_denominator,
    profile,
    residual_norm,
    speed,
)
from .symbols import (
    DispersionSymbol,
    HypothesisReport,
    ModelParams,
    check_hypotheses,
    group_velocity,
    group_velocity_derivative,
    make_symbol,
    parse_symbol_spec,
    phase_velocity,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CriticalResult",
    "DispersionSymbol",
    "DomainError",
    "FloquetProblem",
    "FloquetSpectrum",
    "HypothesisReport",
    "InconclusiveError",
    "IndexResult",
    "ModelParams",
    "NoRootError",
    "ResonanceError",
    "SolveError",
    "StabilityDiagram",
    "StokesWave",
    "assemble",
    "assemble_b_matrix",
    "bmatrix_det_roots",
    "check_hypotheses",
    "check_resonance",
    "classify_intervals",
    "convergence_study",
    "diagram",
    "detuning_ratio",
    "expand",
    "find_resonances",
    "group_velocity",
    "group_velocity_derivative",
    "growth_rate_leading",
    "harmonic_denominator",
    "index",
    "kc_closed_form",
    "kc_numeric",
    "make_symbol",
    "max_growth",
    "params_from_alpha",
    "parse_symbol_spec",
    "phase_velocity",
    "profile",
    "residual_norm",
    "speed",
    "spectrum",
    "spot_check",
    "tc_of_alpha",
    "unperturbed_eigenvalue",
    "__version__",
]
