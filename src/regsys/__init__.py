"""Numerical toolkit for composing and verifying regular linear control
systems at finite dimension: exact zero-order-hold discrete quadruples,
closed-loop algebra with quantitative robustness margins, Gramian-based
controllability and observability analysis, boundary-value realizations,
and a clamped-free beam example suite."""

from .beam import (
    BeamModel,
    BeamState,
    BeamTrajectory,
    FunctionalTrace,
    beam_discretize,
    beam_model,
    beam_transfer_H,
    beam_transfer_H1,
    energy,
    multiplier_rho,
    multiplier_rho1,
    random_smooth_state,
    rho1_derivative_check,
    rho_derivative_check,
    simulate,
    transfer_bound_products,
    verify_admissibility_bound,
    verify_observability,
    verify_wellposedness_bound,
    wellposedness_constant,
)
from .boundary import (
    BoundaryTriple,
    DirichletMap,
    FeedInReport,
    FeedthroughEstimate,
    RestrictedGenerator,
    close_boundary_loop,
    control_operator_from_triple,
    default_shift_sweep,
    dirichlet_map,
    feed_in_full,
    feed_in_observe,
    feedthrough_estimate,
    laplacian_triple,
    restrict_generator,
    wave_triple,
)
from .errors import (
    AdmissibilityError,
    ControllabilityError,
    GridError,
    RegsysError,
    ShapeError,
    SpectrumError,
)
from .feedback import (
    CompositionReport,
    FeedbackGain,
    admissible_feedback_check,
    closed_loop,
    k0_bound,
    perturb_across,
    perturb_cross,
    perturb_double,
    theta0_bound,
)
from .gramian import (
    ControlOperatorMatrix,
    GramianReport,
    ObservationOperatorMatrix,
    SweepReport,
    control_operator,
    gramian_report,
    min_norm_control,
    observability_constant,
    observation_operator,
    robustness_sweep,
    surjectivity_radius,
)
from .grids import Signal, TimeGrid
from .node import (
    QuadrupleMaps,
    Realization,
    composition_deviations,
    input_map,
    io_map,
    lambda_extension,
    lifted_quadruple,
    output_map,
    quadruple_maps,
    regularity_limit,
    semigroup_step,
    transfer,
)
from .sampling import (
    across_instance,
    cross_instance,
    double_instance,
    random_realization,
)

__version__ = "0.1.0"
