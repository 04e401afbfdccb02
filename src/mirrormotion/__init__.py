"""Quantum-limited mirror-motion estimation toolkit.

Simulates a mirror driven by a stochastic force, read out interferometrically
with phase-tracked homodyne detection of a coherent or phase-squeezed probe
beam, and compares Wiener-smoothed position/momentum/force estimates against
the analytic minimum MSEs and the waveform quantum estimation bounds.
"""

from .errors import GridMismatchError, RiccatiError, SingularityError, TailAccuracyError
from .est import (
    FilterBank,
    SpectralGrid,
    analytic_mmse,
    empirical_mse,
    optimal_filter,
    prior_variance,
    qcrb,
    qcrb_finite_bandwidth,
    smooth,
    trial_mse,
)
from .model import (
    ForceParams,
    MirrorParams,
    NominalTransferFunction,
    PriorModel,
    TabulatedTransferFunction,
    TransferFunction,
    effective_mass,
    force_gains,
    motion_function,
    prior_psd,
)
from .probe import (
    ProbeState,
    SqueezingBandwidth,
    attainability_gap,
    effective_squeezing_factor,
    mean_squeezing_flux,
    measurement_noise_psd,
    photon_flux_psd_broadband,
    photon_flux_psd_exact,
    squeezing_spectrum,
    xi_factor,
)
from .sim import (
    KalmanTracker,
    SimConfig,
    Trajectory,
    calibrate_tracking,
    mirror_response,
    run_tracking,
    simulate_ou,
    simulate_trial,
    trial_rng,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
