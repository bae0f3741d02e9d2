"""Solver and verification toolkit for one-dimensional Neel wall profiles
in thin films with uniaxial anisotropy.

The reduced energy couples exchange, anisotropy with an in-plane field,
and a nonlocal stray-field term built on the half-Laplacian. The package
minimizes it on a uniform grid, checks the structural properties of the
minimizer (monotonicity, symmetry, quadratic tail decay, a-priori
derivative bounds), certifies uniqueness through convexity along an
arcsin interpolation path, and checks the tail constant against the
far-field law of the linearized equation.
"""

from .analysis import (
    BoundsReport,
    DecayFit,
    check_bounds,
    check_monotone,
    derivative_sup,
    fit_decay,
    oracle,
    symmetry_defect,
    tail_decay_check,
    verify,
)
from .energy import energy, energy_and_gradient, grad_norm
from .errors import (
    FlatTopError,
    MultipleCrossingsError,
    NeelWallError,
    NoCrossingError,
    NotRecentredError,
    RangeViolationError,
    TailTooLargeError,
    WindowTooNoisyError,
)
from .greenfn import far_field_constant
from .halflap import (
    HalfLaplacianOperator,
    apply_quadrature,
    apply_spectral,
    make_operator,
    pairing,
    seminorm_double_integral,
    spectrum,
)
from .model import (
    EnergyBreakdown,
    Grid,
    ModelParams,
    WallProfile,
    load_profile,
    make_grid,
    make_initial_profile,
    make_params,
    recenter,
    save_profile,
)
from .path import (
    CertificateVerdict,
    PathPoint,
    path_scan,
    uniqueness_certificate,
)
from .solver import SolveOptions, SolveReport, minimize, sweep

__version__ = "0.1.0"
