"""Wehrl entropy production and flux rates for dissipative spin-J systems.

The package simulates Lindblad dynamics of a single spin J (dephasing and
thermal amplitude damping, static and driven Hamiltonians) and quantifies
irreversibility through phase-space entropy rates computed on the Husimi-Q
function, cross-validated against closed forms, an exact hypergeometric
flux expression, and von Neumann counterparts.
"""

from .errors import (
    AmplitudeUnderflow,
    ConfigError,
    DimensionMismatch,
    InvalidFrequency,
    NonMarkovianRate,
    NonMarkovianRegime,
    NonPhysicalState,
    NothingToCompare,
    PrecisionFailure,
    SpinWehrlError,
    StiffnessFailure,
    TailNotConverged,
    UndefinedAngles,
    UndefinedRatio,
    UnsupportedParameters,
    WrongDimension,
)
from .spin_ops import (
    BlochVector,
    DensityMatrix,
    SpinOperators,
    SpinQuantumNumber,
    bloch_to_rho,
    expectation,
    gibbs_state,
    make_spin_operators,
    nbar_from_temperature,
    rho_to_bloch,
    temperature_from_nbar,
)
from .phase_space import (
    CoherentStateVector,
    HusimiField,
    SphereGrid,
    angle_action_inverse,
    angle_action_map,
    coherent_state,
    husimi,
    husimi_chunks,
    husimi_fields,
    husimi_of_matrix,
    make_grid,
    phase_space_currents,
    tss_correspondences,
    v_function,
    wehrl_entropy,
    wehrl_entropy_spin_half,
)
from .dynamics import (
    DissipatorSpec,
    HamiltonianSpec,
    Trajectory,
    amplitude_damping_dissipator,
    current_superoperator_f,
    dephasing_dissipator,
    evolve,
    lindblad_rhs,
)
from .hypergeom import gauss_2f1
from .entropy_rates import (
    BathParams,
    EntropyRates,
    clausius_ratio,
    damping_phi_asymptotic,
    damping_phi_exact,
    damping_quadrature,
    damping_phi_quadrature,
    damping_phi_zero_temperature,
    damping_pi_quadrature,
    dephasing_pi_quadrature,
    dephasing_pi_spin_half,
    dephasing_pi_von_neumann,
    dissipative_entropy_rate,
    energy_flux,
    generator_entropy_rate,
    integrate_rate_series,
    spin_half_damping_rates,
    spin_half_damping_von_neumann,
    spin_half_dephasing_rates,
    spin_half_dephasing_von_neumann,
    total_entropy_produced,
    von_neumann_entropy,
    von_neumann_rates,
)
from .scenarios import (
    PulseParams,
    ScenarioResult,
    custom_scenario,
    is_markovian,
    markov_threshold,
    photon_pulse_scenario,
    pulse_amplitude,
    pulse_effective_rates,
    pulse_gamma_explicit,
    pulse_xi,
    rotating_field,
    rotating_field_steady_state,
    spontaneous_emission,
    thermal_quench,
    write_scenario_csv,
)

__version__ = "0.1.0"
