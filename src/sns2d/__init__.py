"""Spectral toolkit for the 2D stochastic Navier-Stokes equation on the
periodic square: colored-noise sampling, controlled/skeleton dynamics, and
large-deviation experiments."""

__version__ = "0.1.0"

from .fields import SpectralField, TensorField, load_field, save_field, taylor_green
from .grid import SpectralGrid, grid_for
from .spectral import (
    BesovParams,
    besov_norm,
    block_powers,
    leray_project,
    lp_norm,
    sobolev_norm,
    tensor_sobolev_norm,
)
from .nonlinear import DealiasRule, tensor_product
from .noise import (
    NoiseSpec,
    PowerSchedule,
    RngStream,
    besov_moment_check,
    lambda_beta_bound,
    lp_log_moment_check,
    ou_step,
    renorm_constant,
    wick_square,
)
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
from .ldp import (
    ActionReport,
    ConvergenceReport,
    OptimizerSettings,
    action,
    besov_convergence_experiment,
    h_convergence_experiment,
    laplace_check,
    minimize_action,
    residual,
    trajectory_space_norm,
    tube_probability,
)
