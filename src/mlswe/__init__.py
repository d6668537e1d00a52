"""Multilayer shallow-water solver with variable density (Boussinesq).

Staggered finite-volume discretization in one horizontal dimension with a
configurable stack of vertical layers, explicit SSP-RK3 and semi-implicit
IMEX-ARK2 time integrators, linear-analysis tools and benchmark cases.
"""

from .bc import Boundaries, Discharge, Elevation, Periodic, Wall, closed, periodic
from .cases import (CASES, CaseSpec, build_problem, case_internal_wave,
                    case_lock_exchange, case_tidal,
                    lock_exchange_theoretical_speed)
from .harness import (RunReport, RunResult, error_norms, front_positions,
                      front_speed, project_state, run_case, stream_case)
from .integrators import (ButcherPair, IMEXIntegrator, RK3Integrator,
                          ark2_tableau, courant_dt, courant_numbers,
                          imex_ark2_step, rk3_step)
from .layers import LayerLayout, LayoutError, build_layout, uniform_layout
from .linear import (AssembledA, LinearModel, assemble_A,
                     characteristic_residual, hyperbolicity_check, spectrum)
from .mesh import Mesh1D, build_mesh
from .spatial import Grid, compute_tendencies
from .state import (PhysParams, State, StepFailure, WallFriction, Wind,
                    rest_state, total_density_mass, total_volume)

__all__ = [
    "Boundaries", "Discharge", "Elevation", "Periodic", "Wall", "closed",
    "periodic", "CASES", "CaseSpec", "build_problem", "case_internal_wave",
    "case_lock_exchange", "case_tidal", "lock_exchange_theoretical_speed",
    "RunReport", "RunResult", "error_norms", "front_positions", "front_speed",
    "project_state", "run_case", "stream_case", "ButcherPair",
    "IMEXIntegrator", "RK3Integrator", "ark2_tableau",
    "courant_dt", "courant_numbers", "imex_ark2_step", "rk3_step",
    "LayerLayout", "LayoutError", "build_layout", "uniform_layout",
    "AssembledA", "LinearModel", "assemble_A", "characteristic_residual",
    "hyperbolicity_check", "spectrum", "Mesh1D", "build_mesh", "Grid",
    "compute_tendencies", "PhysParams", "State", "StepFailure",
    "WallFriction", "Wind", "rest_state", "total_density_mass", "total_volume",
]

__version__ = "0.1.0"
