"""coskit: numerical toolkit for cosymplectic 3-manifolds.

Constructs mapping tori of hyperbolic toral automorphisms, Sol and flat
co-Kaehler models, certifies compatible metrics, evaluates the torsion
energy functional and its Euler-Lagrange residual, runs the suspension
flow exactly, and minimizes the energy over compatible deformations.
"""

from .grids import Grid, GridError, integrate, partial_derivative, seam_transport, shift
from .tensors import TensorCalculusError, TensorField, christoffel, covariant_derivative, \
    exterior_derivative, hodge_star, lie_bracket, lie_derivative, symmetric_eigen, \
    tensor_norm2
from .cosymplectic import CompatibleMetric, Structure, StructureError, \
    certify_compatible, d_alpha_plus, polar_compatible_metric
from .models import HyperbolicModel, NotHyperbolicError, NotSymplecticError, \
    SolModel, build_hyperbolic_model, contact_t3_testbed, critical_frame, \
    critical_metric, flat_cokahler, sol_box_grid, sol_frame, sol_model, \
    sol_to_mapping_torus, suspension_structure
from .variational import Deformation, GapReport, OptimizationResult, TorsionReport, \
    deform, deformation_chart, energy, energy_gap, energy_gap_direct, \
    euler_lagrange_residual, euler_lagrange_supnorm, exponential_curve, first_variation, \
    minimize_energy, nabla_r_h_residual, random_deformation, random_global_scalar, \
    random_tangent, tangent_project, torsion_report
from .dynamics import FlowCocycle, NotHyperbolicTorsionError, SplittingFrame, \
    anosov_splitting, bracket_residuals, contraction_law_residual, flow_transport, \
    lyapunov_exponents, reeb_flow, refine_splitting, sol_bracket_residuals, \
    splitting_invariance_residual
from .topology import ObstructionVerdict, TopologyError, betti_numbers_mapping_torus, \
    critical_metric_obstruction, h1_torsion_invariants, smith_normal_form

__version__ = "0.1.0"
