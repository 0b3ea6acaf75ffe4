"""Unconditionally stable two-stage implicit (ADI) FDTD solver for the 3D
Maxwell equations on staggered Yee grids with conducting walls, plus the
verification machinery: exactly conserved discrete energy functionals,
manufactured-solution error metrics, and divergence diagnostics."""

from .grid import (COMPONENTS, FieldState, GridSpec, Medium, enforce_pec, extent, make_grid,
                   read_component_blob, rotate_state, write_component_blob, write_snapshot,
                   zero_state)
from .harness import (ConfigError, RunConfig, converge_space, converge_time, emit_config,
                      energy_audit, parse_config, run, stability)
from .manufactured import (ENERGY_GRAD_SQ, ENERGY_GRAD_TIME_SQ, ENERGY_TIME_SQ, ENERGY_TOTAL_SQ,
                           OMEGA, metrics, observed_rate, sample_exact, sample_semidiscrete)
from .norms import (DivergenceReport, divergence, energy_h1, energy_l2, energy_report,
                    energy_suite)
from .operators import diff
from .stepper import NonFiniteFieldError, stage1, stage2, step, step_residual

__version__ = "0.1.0"
