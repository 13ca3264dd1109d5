"""Cubature formulas with prescribed weights on model manifolds.

The package builds, for a target band L and a prescribed weight vector,
node configurations whose weighted point evaluations reproduce integrals
of all band-L diffusion or algebraic polynomials.  The pipeline follows
the constructive route: a measure-exact weighted area partition seeds the
nodes, and a damped Gauss-Newton descent drives the residual to zero.
The smoothed gradient flow of the existence argument is ``flow_run``;
no solver runs it.  Weighted sampling ratios and an independent
quadrature check of each rule provide the diagnostics.  On the circle
and the sphere the algebraic space of degree L is the diffusion space
of band L or sqrt(L (L + 1)).
"""

from .geometry import (
    Manifold,
    QuadratureGrid,
    arclength,
    arclength_inverse,
    ball_measure,
    charts_to_ambient,
    circumference,
    doubling_constants,
    manifold_from_descriptor,
    move_points,
    pairwise_distance,
    reference_grid,
    reference_integrate,
)
from .spectra import (
    SpectralSpace,
    enumerate_basis,
)
from .algebraic import (
    RestrictedPolySpace,
    build_restricted_space,
    restriction_fit_residual,
)
from .weights import (
    BlockAggregation,
    WeightVector,
    block_aggregate,
    concentrated_weights,
    random_band_weights,
    validate_weights,
)
from .partition import (
    CellTree,
    Partition,
    PartitionReport,
    Region,
    build_cell_tree,
    partition_from_json,
    partition_to_json,
    spanning_tree,
    verify_partition,
    weighted_partition,
)
from .engine import (
    CubatureRule,
    FlowConfig,
    FlowResult,
    RuleReport,
    SmootherV,
    flow_run,
    mz_ratio_algebraic,
    mz_ratio_diffusion,
    mz_ratios,
    residual_vector,
    rule_from_json,
    rule_to_csv,
    rule_to_json,
    smooth_cutoff,
    solve,
    verify_rule,
)

__version__ = "0.18.0"

__all__ = [name for name in dir() if not name.startswith("_")]
