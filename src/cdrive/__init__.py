"""Counter-diabatic driving toolkit.

Classical and quantum engines for transitionless parameter ramps in 1D
confining systems: exact invariant-preserving driving terms, trajectory and
ensemble evolution, spectral/dilation generators on grids, and a batch CLI.
"""

from .errors import ConfigError, DomainError, NumericalError
from .systems import PhasePoint, SystemModel, box, generic_1d, power_law
from .schedules import (
    Schedule,
    constant_hold,
    cosine_ramp,
    linear_ramp,
    smoothstep_ramp,
    tabulated,
)
from .shells import (
    EnergyShell,
    adiabatic_invariant,
    energy_shell,
    grad_shell_energy,
    microcanonical_average,
    orbit_period,
    phase_volume,
    power_law_coefficient,
    shell_average_grad_lambda,
    shell_energy_from_volume,
    turning_points,
)
from .generators import (
    AnalyticGenerator,
    GeneratorCheck,
    MapCheck,
    NumericShellGenerator,
    ShellGeneratorTable,
    analytic_generator_for,
    box_generator,
    build_xi_numeric,
    dilation_generator,
    parametric_map_check,
    power_law_generator,
    verify_generator,
)
from .classical import (
    EnsembleRecord,
    TrajectoryRecord,
    collide,
    dissipation,
    evolve_bare,
    evolve_cd,
    evolve_ensemble,
    shell_sampler,
    uniform_gas_sampler,
)
from .quantum import (
    BasisTrajectory,
    EigenSystem,
    GridSpec,
    GridTrajectory,
    HermitianOperator,
    QuantumState,
    berry_connection,
    box_grid,
    box_phase,
    discretize_h0,
    eigensystem,
    exact_box_state,
    fidelity,
    finite_stretch,
    grad_h0_matrix,
    infinitesimal_stretch,
    propagate_basis,
    propagate_grid,
    well_grid,
    xi_dilation,
    xi_spectral,
)
from .config import ExperimentConfig, config_from_dict, load_config

__version__ = "0.1.0"
