"""Desk-scale laboratory for site-by-site vacuum preparation of the
lattice Gross-Neveu model: Hamiltonian construction, classical ground-state
engines, correlator and energy analyses, and a statevector simulation of
the quantum preparation algorithm."""

__version__ = "0.1.0"

from .model import (
    Boundary,
    GammaRep,
    ModelSpec,
    build_hamiltonian,
    free_dispersion,
    free_quadratic_form,
    lattice_momenta,
    majorana_gammas,
    spinor_frame_gammas,
    spinor_frame_site,
)
from .pauli import PauliSumOperator
from .exact import (
    ConvergenceError,
    SpectrumResult,
    ground_state_dense,
)
from .mps import (
    MatrixProductOperator,
    MatrixProductState,
    append_site,
    apply_mpo,
    compile_mpo,
    expectation_value,
    mps_overlap,
)
from .dmrg import DmrgReport, dmrg_ground_state, epsilon_measure
from .bessel import bessel_k
from .observables import CorrelatorSeries, two_point_correlator
from .fits import (
    CorrelationFit,
    EnergyFit,
    EnergyModel,
    fit_correlation_length,
    fit_energy_extrapolation,
)
from .overlaps import OverlapSeries, PadKind, consecutive_overlaps, pad_state
from .config import Engine
from .stateprep import (
    Decision,
    FixedPointConfig,
    OracleMode,
    PhaseEstimationConfig,
    PrepTrace,
    fixed_point_amplify,
    fixed_point_schedule_length,
    ground_oracle_reflection,
    phase_estimate,
    prepare_vacuum,
    state_reflection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
