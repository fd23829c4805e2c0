"""Bloch bands, gap closing, driven dynamics and Hall-type response of the
Kerr-nonlinear Qi-Wu-Zhang Chern insulator."""

from .model import (
    BlochVector,
    GaplessParameterError,
    KPoint,
    ModelParams,
    NormalizationError,
    Spinor,
    bloch_vector,
    chern_number,
    hamiltonian,
    linear_eigenvalues,
)
from .spectrum import (
    AtCriticalityError,
    BandNode,
    BifurcationResult,
    DegeneracyKind,
    DegeneratePoint,
    NonlinearEigenpair,
    SpectrumHealth,
    band_surface,
    bifurcation_correction,
    branch_count,
    classify_degeneracies,
    eigenpair_residual,
    nonlinear_eigenpairs,
    nonlinear_spectra,
    physical_spectrum,
    quartic_coefficients,
    solve_quartic,
)
from .effective import (
    BracketError,
    GapClosingReport,
    LocusDomainError,
    PPoint,
    count_iii_points,
    effective_spectrum,
    gap_closed_u_interval,
    gap_closing_search,
    iii_locus_residual,
)
from .dynamics import (
    DriveSpec,
    NumericalHealthError,
    TrajectoryRecord,
    detect_breakdown,
    evolve,
    instantaneous_projections,
    mean_energy,
)
from .response import (
    PhaseDiagram,
    RegimeError,
    ResponseSummary,
    is_adiabatic,
    phase_diagram,
    pumped_charge,
    velocity_expectation,
)

__version__ = "0.1.0"
