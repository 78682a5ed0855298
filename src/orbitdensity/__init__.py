"""Exact return-time density experiments for weighted backward shift orbits.

Builds an orbit vector for the weighted backward shift whose visit times to
an open half-space provably oscillate between two distinct density values
along a dyadic checkpoint subsequence, and verifies every quantitative
ingredient (interval combinatorics, exact rational limits, certified norm
bounds) at desk scale.
"""

from .densities import DensityReport, density_ratios
from .dyadic import (
    CLASS1,
    CLASS2,
    SeparationParams,
    checkpoint_schedule,
    checkpoints_between,
    count_sites,
    in_site_set,
    min_alignment_exponent,
    scale_mass,
    scale_mass_limit,
    site_members,
    # bound in dyadic (in_site_set, aligned_sites) and in vector
    # (expansion_coefficient's windows): a mutant must patch both bindings
    site_window,
    strip,
    strip_sites,
    verify_checkpoint_gap,
    verify_class_limits,
    verify_counting_bounds,
    verify_mass_bound,
    verify_separation,
)
from .scalars import GaussianRational
from .shift import (
    ShiftOperator,
    tail_constant,
    vector_norm,
)
from .vector import (
    AssembledVector,
    CoefficientBlock,
    LevelBudgets,
    SeriesOracle,
    approach_bound,
    build_level_budgets,
    checkpoint_count,
    dense_family_blocks,
    density_experiment,
    expansion_coefficient,
    one_block_family,
    predicted_density_limits,
    return_set,
    sign_cross_check,
    site_hit_count,
    verify_orbit_approach,
)

__version__ = "0.1.0"
