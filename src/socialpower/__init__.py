"""Social power evolution under constant, switching, and periodic topologies."""

from .analysis import (
    ContractionReport,
    Tolerances,
    contraction_margin,
    contraction_radii,
    convergence_rate,
    equilibrium_upper_bound,
    fixed_point,
    jacobian,
    transform_chain,
    vertex_stability,
)
from .degroot import appraisal_step_via_zeta, build_w
from .dynamics import Trajectory, df_map, limit_gap, simulate
from .periodic import PeriodicLimit, periodic_fixed_points, verify_periodic_limit
from .topology import (
    Constant,
    Periodic,
    RandomUniform,
    RelativeInteractionMatrix,
    Scripted,
    TopologyProgram,
    classify_star,
    dominant_left_eigenvector,
    is_irreducible,
    load_program,
    max_gamma_profile,
    save_program,
    validate,
)

__version__ = "0.1.0"
