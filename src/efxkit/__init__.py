"""Toolkit for EFX allocation existence under additive valuations.

Exposes the exact exhaustive oracle, the Lovász-extension relaxation, the
smoothed rounding bound with its piecewise-linear limit objective, the
LP-based difference-of-convex descent, and the clamp-map fixed-point
iterations, plus instance and allocation documents shared by all of them.
"""

from .dc import DCAResult, DescentLP, InternalCheckError, build_lp, dca_solve, solve_lp
from .extension import (
    box_radius,
    dc_objective,
    encode_allocation,
    extract_allocation,
    rounding_bound,
    rowwise_round_many,
    softmax_map,
)
from .fixedpoint import (
    FixedPointReport,
    SelfMapViolation,
    clamp_map,
    constraint_slacks,
    picard_iterate_many,
    rowmax_clamp_map,
    smooth_clamp_map,
    stuck_row_diagnostics,
    transfer_gain,
    verify_constraints,
)
from .instance import (
    Allocation,
    EfxReport,
    Instance,
    InstanceFormatError,
    ZeroColumnError,
    allocation_to_doc,
    generate_instance,
    instance_to_doc,
    is_efx,
    load_allocation,
    load_instance,
    normalize,
    total_mass,
)
from .lovasz import (
    envy_gap_extension,
    in_partition_polytope,
    monotone_envy_gap_extension,
    project_rows_to_simplex,
    relaxation_objective,
    uniform_point,
)
from .oracle import OracleGuardError, OracleResult, batch_efx_slack, enumerate_efx

__version__ = "0.1.0"
