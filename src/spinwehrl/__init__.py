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
    UnsupportedParameters,
    WrongDimension,
)
from .spin_ops import (
    BlochVector,
    DensityMatrix,
    SpinOperators,
    SpinQuantumNumber,
    bloch_to_rho,
    coherence_orders,
    gibbs_state,
    make_spin_operators,
    nbar_from_temperature,
)
from .phase_space import (
    HusimiField,
    SphereGrid,
    husimi,
    husimi_chunks,
    make_grid,
    wehrl_entropy,
    wehrl_entropy_spin_half,
)
from .dynamics import (
    DissipatorSpec,
    HamiltonianSpec,
    Trajectory,
    dissipation,
    evolve,
    lindblad_rhs,
)
from .hypergeom import gauss_2f1
from .entropy_rates import (
    BathParams,
    EntropyRates,
    damping_phi_exact,
    damping_quadrature,
    damping_phi_zero_temperature,
    dephasing_pi_quadrature,
    dephasing_pi_spin_half,
    dephasing_pi_von_neumann,
    spin_half_damping_rates,
    spin_half_damping_von_neumann,
    spin_half_dephasing_rates,
    spin_half_dephasing_von_neumann,
    von_neumann_rates,
)
from .scenarios import (
    Model,
    PulseParams,
    ScenarioResult,
    compare,
    is_markovian,
    markov_threshold,
    photon_pulse_model,
    pulse_amplitude,
    pulse_effective_rates,
    pulse_xi,
    rotating_field_model,
    rotating_field_steady_state,
    simulate,
    spontaneous_emission_model,
    thermal_quench_model,
    write_scenario_csv,
)

__version__ = "0.1.0"
