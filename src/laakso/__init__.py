"""Spectral analysis of Laplacians on Laakso spaces.

Exact spectra with multiplicities from the defining sequence {j_n},
metric-graph approximants with a Kirchhoff finite-difference Laplacian and
sparse eigensolver for cross-validation, and heat-trace / spectral-zeta /
dimension analytics.
"""

from .compare import ComparisonReport, ComparisonRow, compare_spectra
from .errors import (
    DimensionUndefinedError,
    DivergenceError,
    LevelRangeError,
    PoleError,
    TailToleranceError,
    ValidationError,
)
from .graphs import (
    MetricGraph,
    SparseSymmetricMatrix,
    build_graph,
    continuum_eigenvalues,
    discretize,
    discretize_weighted,
    mesh_spacing,
    trust_cutoff,
)
from .heatzeta import (
    HeatTraceSample,
    PoleLattice,
    estimate_spectral_dimension,
    fine_pole_spacing,
    heat_trace,
    heat_trace_asymptote,
    heat_trace_grid,
    oscillation_amplitude,
    oscillation_log_period,
    poles,
    residue_coefficient,
    spectral_zeta_closed,
    spectral_zeta_direct,
    sqrt_term_coefficient,
    zeta_at_zero,
)
from .sequences import (
    DimensionReport,
    JSequence,
    LevelInfo,
    ShapeCensus,
    dimensions,
    level_info,
    parse_sequence,
    shape_census,
)
from .solver import EigenResult, lowest_eigenvalues
from .special import complex_gamma, riemann_zeta
from .spectrum import (
    Contribution,
    SpectrumEntry,
    SpectrumTable,
    counting_function,
    eigenvalue_of_key,
    first_distinct,
    full_spectrum,
    level_spectrum,
    shape_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ComparisonRow",
    "Contribution",
    "DimensionReport",
    "DimensionUndefinedError",
    "DivergenceError",
    "EigenResult",
    "HeatTraceSample",
    "JSequence",
    "LevelInfo",
    "LevelRangeError",
    "MetricGraph",
    "PoleError",
    "PoleLattice",
    "ShapeCensus",
    "SparseSymmetricMatrix",
    "SpectrumEntry",
    "SpectrumTable",
    "TailToleranceError",
    "ValidationError",
    "build_graph",
    "compare_spectra",
    "complex_gamma",
    "continuum_eigenvalues",
    "counting_function",
    "dimensions",
    "discretize",
    "discretize_weighted",
    "eigenvalue_of_key",
    "estimate_spectral_dimension",
    "fine_pole_spacing",
    "first_distinct",
    "full_spectrum",
    "heat_trace",
    "heat_trace_asymptote",
    "heat_trace_grid",
    "level_info",
    "level_spectrum",
    "lowest_eigenvalues",
    "mesh_spacing",
    "oscillation_amplitude",
    "oscillation_log_period",
    "parse_sequence",
    "poles",
    "residue_coefficient",
    "riemann_zeta",
    "shape_census",
    "shape_spectrum",
    "spectral_zeta_closed",
    "spectral_zeta_direct",
    "sqrt_term_coefficient",
    "trust_cutoff",
    "zeta_at_zero",
]
