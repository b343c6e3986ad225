"""Macroscopic-electromagnetics numerics: effective Green tensors on voxel
scenes, box-mode spectral densities, bulk polariton branches, fluctuating
current correlators, LDOS and thermal-Casimir forces, plus the verification
CLI wiring them together."""

from .constants import DEFAULT, SI, Constants
from .material import (
    VACUUM,
    DrudeLorentzModel,
    TabulatedPermittivity,
    Vacuum,
    kramers_kronig_residual,
    resonance_params,
)
from .scene import Scene, Shell, build_scene, shell_voxelization, sphere_quadrature
from .greens import (
    DyadicBlock,
    EffectiveSolver,
    greens_identity_report,
    solve_effective_green,
    surface_functional,
    vacuum_green,
    vacuum_green_block,
    vacuum_imag_coincidence,
)
from .modes import (
    ModeBasis,
    enumerate_modes,
    mode_sum_spectral_density,
)
from .polariton import (
    BranchPoint,
    dispersion_sweep,
    effective_photon_weight,
    longitudinal_branch,
    lossless_transverse,
    transverse_branches,
    window_integral_norm,
)
from .fluctuations import (
    CorrelatorDensity,
    commutator_density,
    equivalence_densities,
    equivalence_fan,
    noise_correlator_density,
    planck_factor,
    planck_weights,
    thermal_correlator_density,
)
from .observables import (
    BodySpec,
    EmitterSpec,
    casimir_thermal_force,
    green_trace_gradient,
    ldos,
    spontaneous_rate,
    vacuum_ldos,
)
from .oracle import (
    OracleReport,
    born_series_oracle,
    mode_counting_ldos,
    quadrature_convergence,
    richardson_gradient,
)

__version__ = "0.1.0"
