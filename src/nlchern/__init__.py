"""Bloch bands, gap closing, driven dynamics and Hall-type response of the
Kerr-nonlinear Qi-Wu-Zhang Chern insulator."""

from .model import (
    BlochVector,
    GaplessParameterError,
    KPoint,
    ModelParams,
    Spinor,
    bloch_vector,
    chern_number,
)
from .spectrum import (
    DegeneracyKind,
    DegeneratePoint,
    NonlinearEigenpair,
    Spectra,
    SpectrumHealth,
    band_surface,
    branch_count,
    classify_degeneracies,
    nonlinear_spectra,
    physical_spectrum,
)
from .effective import (
    BracketError,
    GapClosingReport,
    count_iii_points,
    gap_closed_u_interval,
    gap_closing_search,
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
)

__version__ = "0.1.0"
