"""Numerical laboratory for obstacle problems of quasilinear stochastic PDEs.

Builds constrained solutions by penalization or projection, extracts the
nonnegative reflection measure, and verifies at desk scale the energy
identities, a priori and positive-part bounds, the minimal-reflection
(Skorokhod) condition, comparison of ordered data, and parabolic-capacity
facts of the underlying theory.
"""

from .errors import AssumptionError, ConfigurationError, SolverError
from .grid import (EllipticOperator, Field, Grid, assemble_operator, build_grid,
                   divergence, energy, gradient_sq, node_gradient, sobolev_ratio)
from .norms import (FieldPath, data_ingredients, dual_sharp_upper, gradient_norm_22,
                    mixed_norm, pairing, sharp_norm)
from .solver import (OBSTACLE_OFF, BatchResult, DiscreteMeasure, DominatorData, ProblemData,
                     SolveResult, prepare_batch, skorokhod_defect, solve_batch,
                     solve_dominators, solve_mode)
from .stochastics import CoefficientSet, NoisePath, sample_noise, validate_assumptions
from .verify import (ComparisonReport, EstimateReport, ResidualReport, apriori_check,
                     comparison_experiment, ito_square_residual,
                     positive_part_bound_check, positive_part_residual,
                     weak_form_residual)
from .capacity import CompactSet, box_set, capacity, smallest_potential

__version__ = "0.1.0"
