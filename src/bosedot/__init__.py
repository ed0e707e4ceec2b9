"""Spectral and dynamical diagnostics for a small quantum dot coupled to a
condensed free Bose gas, on truncated doubled Fock spaces."""

from .dot import (DotSpec, CondensatePoint, gibbs_vector, lower_raise,
                  doubled_free_part, condensate_block, condensate_left_term)
from .reservoir import (Dispersion, RELATIVISTIC, NONRELATIVISTIC, FormFactor,
                        TestFunction, GridSpec, ModeGrid, discretize,
                        occupation, planck_density, critical_density,
                        fugacity, ReservoirThermo, kac_density, XiMeasure,
                        uniform_phase_average, generating_functional,
                        kac_superposition_residual, QuadratureError)
from .fock import (TruncationSpec, FockBasis, SparseOperator, StateVector,
                   DimensionCapError, SolverConvergenceError)
from .krylov import expm_action
from .liouville import (FirstParts, OperatorBundle, assemble_first,
                        build_bundle, assemble_interaction, assemble_conjugate,
                        kms_vector, dilation_one_body, antisymmetric_one_body)
from .spectral import (SpectralReport, LevelShiftReport, SandwichReport,
                       solve_near_zero, kernel_structure,
                       kms_kernel_vector, orthogonal_kernel_panel,
                       attach_diagnostics, level_shift, resolvent_sandwich,
                       lorentzian_constant)
from .dynamics import (ErgodicReport, evolve, ergodic_mean, rte_deviation,
                       equilibrium_vector, superpose_xi, dot_observable,
                       operator_norm, dyson_truncated, heisenberg_exact,
                       dyson_comparison)

__version__ = "0.1.0"
