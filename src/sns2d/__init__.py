"""Spectral toolkit for the 2D stochastic Navier-Stokes equation on the
periodic square: colored-noise sampling, controlled/skeleton dynamics, and
large-deviation experiments."""

__version__ = "0.1.0"

from .fields import SpectralField, TensorField, leray_project, load_field, save_field, taylor_green
from .grid import SpectralGrid, grid_for
from .spectral import (
    BesovParams,
    besov_norm,
    block_powers,
    lp_norm,
    sobolev_norm,
    tensor_sobolev_norm,
)
from .nonlinear import DealiasRule, tensor_product, wick_square
from .noise import NoiseSpec, PowerSchedule, RngStream, lambda_beta_bound, ou_step, renorm_constant
from .dynamics import (
    ControlPath,
    IntegratorConfig,
    Trajectory,
    duhamel_gamma,
    phi_eps,
    solve_controlled,
    solve_controlled_block,
    solve_skeleton,
    step_skeleton,
)
from .ldp import ActionReport, OptimizerSettings, action, minimize_action, residual
from .montecarlo import (
    ConvergenceReport,
    besov_convergence_experiment,
    besov_moment_check,
    h_convergence_experiment,
    laplace_check,
    lp_log_moment_check,
    trajectory_space_norm,
    tube_probability,
)
