"""Monte Carlo side of the small-noise limit: the per-replica estimators and
their statistics.

Monte Carlo with one stream per replica goes through ``replica_values``,
the one owner of that layout; ``controlled_values`` is its controlled-path
form, ``mean_stderr`` the one standard error and ``sweep_specs`` the one list
of a sweep's members.  On top of them sit the moment checks of the
stationary process, the convergence sweeps against the skeleton, the tube
probabilities and the Laplace check, whose variational side is one
fixed-weight descent of ``ldp.minimize_action``.

The KS p-value of the OU checks is Smirnov's exact two-sample formula for
equal sizes (``ks_pvalue``), computed here as scipy's ``ks_2samp`` computes
it, so that the checks do not import ``scipy.stats``.
"""

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .dynamics import (
    ControlPath,
    IntegratorConfig,
    Trajectory,
    march,
    solve_controlled_block,
    solve_skeleton,
    step_count,
)
from .fields import SpectralField
from .grid import SAMPLES_PER_CALL, grid_for, stack_depth
from .ldp import OptimizerSettings, minimize_action
from .noise import (
    NoiseSpec,
    as_generator,
    drawn_l2_powers,
    l2_moment_exact,
    lattice_sum,
    ou_transition,
    require_stream,
    stationary_batch,
    stationary_std,
    unit_complex_normals,
    validate_scaling_condition,
    validate_vanishing_schedule,
)
from .nonlinear import replicas_per_block
from .spectral import BesovParams, besov_of_powers, block_powers, h_norm_of, lp_powers, sobolev_norm


def require_replicas(replicas: int):
    """Refuse fewer than 2 replicas, which have no sample standard deviation."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas")


def replica_values(member, replicas: int, per_block, march_block, value) -> np.ndarray:
    """value(path) of each of the member's replicas: the one engine of the
    per-replica-stream Monte Carlo.  Replica r draws from member.child(r);
    the replicas are marched per_block at a time, march_block(streams)
    returning one path per stream of a block, and only one block of paths is
    alive at a time.  Refuses a bare seed or Generator and fewer than 2
    replicas before it marches."""
    member = require_stream(member)
    require_replicas(replicas)
    vals = np.empty(replicas)
    for lo in range(0, replicas, per_block):
        block = [member.child(r) for r in range(lo, min(lo + per_block, replicas))]
        vals[lo : lo + len(block)] = [value(path) for path in march_block(block)]
    return vals


def mean_stderr(samples):
    """(mean, standard error) of a Monte Carlo sample, as floats."""
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / math.sqrt(len(samples)))


def sweep_specs(schedule, epsilons, gamma=1.0) -> list:
    """The NoiseSpec of each member of a sweep over epsilons: member i is the
    i-th largest epsilon, with delta = schedule(epsilon)."""
    return [NoiseSpec.at_epsilon(e, schedule, gamma=gamma) for e in sorted(epsilons, reverse=True)]


def controlled_values(u0, phi, spec: NoiseSpec, cfg: IntegratorConfig, member, replicas, value):
    """value(path) of each of the member's controlled paths under phi at
    spec, replica r on member.child(r), marched in blocks of as many as one
    b_core synthesis holds."""
    return replica_values(
        member, replicas, replicas_per_block(u0.grid, cfg.rule(u0.cutoff)),
        partial(solve_controlled_block, u0, phi, spec, cfg), value,
    )


def ks_pvalue(a, b) -> float:
    """Two-sided two-sample Kolmogorov-Smirnov p-value of two samples of one
    size n, by Smirnov's exact formula for equal sizes (Hodges, Ark. Mat. 3,
    1958), at every n; NaN when a sample holds a NaN.

    h = n max |F_a - F_b| is the largest gap of the empirical distribution
    functions in counts, and P(D >= h/n) = 2 sum_{k >= 1} (-1)^(k+1)
    C(2n, n - kh) / C(2n, n) is summed in nested form from the smallest
    term, as scipy.stats.ks_2samp computes it, to the same bits.  That
    function uses the formula up to n = 10000 and an asymptotic one above.
    """
    a, b = np.sort(a), np.sort(b)
    n = len(a)
    if n == 0 or len(b) != n:
        raise ValueError(f"need two non-empty samples of one size, got {len(a)} and {len(b)}")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # a sort puts NaN last
        return math.nan
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, side="right") - np.searchsorted(b, both, side="right")
    h = int(np.max(np.abs(gap)))
    if h == 0:
        return 1.0
    # 2 A_0 (1 - A_1 (1 - A_2 (...))), A_k = C(2n, n - (k+1)h) / C(2n, n - kh)
    prob = 0.0
    for k in range(n // h, -1, -1):
        ratio = 1.0
        for j in range(h):
            ratio = (n - k * h - j) * ratio / (n + k * h + j + 1)
        prob = ratio * (1.0 - prob)
    return min(max(2 * prob, 0.0), 1.0)


# ---------------------------------------------------------------------------
# moment checks


@dataclass
class MomentReport:
    """Monte Carlo moment estimate paired with its computable bound."""

    epsilon: float
    delta: float
    replicas: int
    estimate: float
    stderr: float
    bound: float
    ratio: float
    closed_form: float = None

    @classmethod
    def of(cls, spec: NoiseSpec, samples, bound: float, closed_form: float = None):
        """The report of a sample of the moment at spec against its bound."""
        est, se = mean_stderr(samples)
        return cls(spec.epsilon, spec.delta, len(samples), est, se, bound, est / bound, closed_form)

    def rows(self):
        return [asdict(self)]


def lp_log_moment_check(
    spec: NoiseSpec,
    p: float,
    replicas: int,
    rng,
    cutoff: int,
    grid_factor: int = 2,
) -> MomentReport:
    """Estimate E |z|_{L^p}^p for the stationary process against the
    logarithmic bound (eps log((1 + delta)/delta))^(p/2).

    The process is stationary, so a fixed-time estimate represents every t.
    For p = 2 the exact mode-variance sum is attached as closed_form.  The
    samples are drawn in order from one generator, not one stream per
    replica, so fewer than 2 replicas are refused here, before any draw.
    """
    require_replicas(replicas)
    g = grid_for(cutoff)
    gen = as_generator(rng)
    if p == 2:
        # each sample reduced as it is drawn: one piece of the draw alive
        samples = drawn_l2_powers(gen, replicas, stationary_std(g, spec))
        closed = l2_moment_exact(g, spec)
    else:
        # the stationary samples in row batches, each reduced before the
        # next is drawn
        rows = max(1, SAMPLES_PER_CALL // g.n_modes)
        batches = (stationary_batch(g, spec, 0.0, gen, min(rows, replicas - lo))
                   for lo in range(0, replicas, rows))
        samples = np.concatenate([lp_powers(g, Z, p, grid_factor) for Z in batches])
        closed = None
    bound = (spec.epsilon * math.log((1.0 + spec.delta) / spec.delta)) ** (p / 2.0)
    return MomentReport.of(spec, samples, bound, closed)


def besov_moment_check(
    spec: NoiseSpec,
    sigma: float,
    sigma_prime: float,
    p: float,
    kappa: float,
    horizon: float,
    dt: float,
    replicas: int,
    rng,
    cutoff: int,
    grid_factor: int = 2,
) -> MomentReport:
    """Estimate E sup_{t <= T} |z(t)|_{B^sigma_p}^kappa against the mode-sum
    bound (eps sum_k |k|^(2(sigma' - 1)))^(kappa/2) for sigma < sigma' < 0.
    Replica i draws its start and its steps from rng.child(i) through
    ``replica_values``, in blocks of ``stack_depth`` of the Besov grid.  The
    bound is the truncated lattice sum at cutoff 512, with no tail."""
    if not (sigma < sigma_prime < 0):
        raise ValueError(
            f"need sigma < sigma_prime < 0, got sigma={sigma}, "
            f"sigma_prime={sigma_prime}"
        )
    g = grid_for(cutoff)
    n_steps = step_count(horizon, dt)
    _, std = ou_transition(g, spec, 0.0, dt)

    def march_block(block):
        gens = [s.generator() for s in block]
        z0 = unit_complex_normals(gens, (len(gens), g.n_modes), stationary_std(g, spec))
        return march(g, z0, n_steps, dt, noise_std=std, gen=gens)

    def sup_power(path):
        norms = besov_of_powers(block_powers(g, path, p, grid_factor), sigma, p)
        return np.max(norms) ** kappa

    sups = replica_values(
        rng, replicas, stack_depth(g.physical_size(grid_factor)), march_block, sup_power
    )
    s = lattice_sum(2.0 * (sigma_prime - 1.0), cutoff=512)
    bound = (spec.epsilon * s) ** (kappa / 2.0)
    return MomentReport.of(spec, sups, bound)


# ---------------------------------------------------------------------------
# convergence experiments


@dataclass
class ConvergenceReport:
    """Distance-versus-epsilon sweep with a fitted log-log decay slope."""

    norm: str
    epsilons: list
    deltas: list
    means: list
    stderrs: list
    replicas: int
    slope: float
    slope_stderr: float

    def rows(self):
        return [
            {
                "epsilon": e,
                "delta": d,
                "mean_distance": m,
                "stderr": s,
                "replicas": self.replicas,
            }
            for e, d, m, s in zip(self.epsilons, self.deltas, self.means, self.stderrs)
        ]


def fit_loglog(xs, ys):
    """OLS slope of log(y) against log(x) with its standard error."""
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 sweep points to fit a slope")
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    s_sq = float(np.dot(resid, resid)) / (n - 2)
    return slope, math.sqrt(s_sq / float(np.dot(xc, xc)))


def _sweep_distances(norm, u0, phi, schedule, gamma, epsilons, replicas, cfg, rng, distance):
    """The convergence sweeps' shared tail: the mean distance(path, skeleton)
    of each member's replicas, replica r of member i (epsilons descending) on
    rng.child(i).child(r), and the log-log slope of the means."""
    stream = require_stream(rng)
    skeleton = solve_skeleton(u0, phi, cfg)
    specs = sweep_specs(schedule, epsilons, gamma)
    stats = [
        mean_stderr(controlled_values(
            u0, phi, spec, cfg, stream.child(i), replicas, lambda traj: distance(traj, skeleton)
        ))
        for i, spec in enumerate(specs)
    ]
    eps_s, means = [s.epsilon for s in specs], [m for m, _ in stats]
    return ConvergenceReport(
        norm, eps_s, [s.delta for s in specs], means, [se for _, se in stats], replicas,
        *fit_loglog(eps_s, means),
    )


def h_convergence_experiment(
    u0: SpectralField,
    phi: ControlPath,
    schedule,
    eta: float,
    epsilons,
    replicas: int,
    cfg: IntegratorConfig,
    rng,
    gamma: float = 1.0,
    force: bool = False,
) -> ConvergenceReport:
    """Coupled sup-in-time H distance between the controlled solution and the
    skeleton solution across a noise sweep.

    Requires the schedule to satisfy both delta(eps) -> 0 and the scaling
    condition eps * delta(eps)^(-eta) -> 0 (checked along the sweep; the
    latter can be overridden with force=True for negative controls).  The
    pathwise same-grid coupling upper-bounds the distributional convergence
    being probed.  Replica r of member i (epsilons descending) runs on
    rng.child(i).child(r).
    """
    validate_vanishing_schedule(schedule, epsilons)
    validate_scaling_condition(schedule, epsilons, eta, force=force)
    return _sweep_distances(
        "H", u0, phi, schedule, gamma, epsilons, replicas, cfg, rng,
        distance=lambda a, b: a.sup_h_distance(b),
    )


def besov_convergence_experiment(
    u0: SpectralField,
    phi: ControlPath,
    besov: BesovParams,
    schedule,
    epsilons,
    replicas: int,
    cfg: IntegratorConfig,
    rng,
    gamma: float = 1.0,
    grid_factor: int = 2,
) -> ConvergenceReport:
    """Same sweep, on the same replica streams, measured in sup-in-time Besov
    norm; only delta(eps) -> 0 is required of the schedule.  The initial
    condition must carry the Sobolev regularity sigma + 1 - 2/p demanded of
    the Besov exponents."""
    besov.validate()
    validate_vanishing_schedule(schedule, epsilons)
    theta = besov.min_initial_regularity()
    if not math.isfinite(sobolev_norm(u0, max(theta, 0.0))):
        raise ValueError(f"initial condition lacks H^{theta} regularity")

    def distance(a, b):
        powers = block_powers(a.grid, a.difference(b), besov.p, grid_factor)
        return float(np.max(besov_of_powers(powers, besov.sigma, besov.p)))

    return _sweep_distances(
        f"B^{besov.sigma}_{besov.p}", u0, phi, schedule, gamma, epsilons, replicas, cfg, rng,
        distance,
    )


def trajectory_space_norm(
    traj: Trajectory, besov: BesovParams, grid_factor: int = 2
) -> float:
    """sup_t |.|_{B^sigma_p} plus the L^beta(0,T) norm of |.|_{B^alpha_p}.

    Both terms weight the same block powers, computed once per state."""
    powers = block_powers(traj.grid, traj.coeffs, besov.p, grid_factor)
    sup_term = float(np.max(besov_of_powers(powers, besov.sigma, besov.p)))
    vals = besov_of_powers(powers, besov.alpha, besov.p)
    weights = np.full(vals.size, traj.dt)
    weights[0] = weights[-1] = 0.5 * traj.dt
    time_term = float(np.dot(weights, vals**besov.beta) ** (1.0 / besov.beta))
    return sup_term + time_term


# ---------------------------------------------------------------------------
# tube probabilities and the Laplace principle


@dataclass
class TubeReport:
    radius: float
    p_hat: float
    ci_low: float
    ci_high: float
    hits: int
    replicas: int


def wilson_interval(hits: int, n: int):
    """The 95% Wilson score interval (z = 1.96) of hits out of n."""
    if n == 0:
        raise ValueError("empty sample")
    p, z = hits / n, 1.96
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def tube_probability(
    u0: SpectralField,
    center: Trajectory,
    radii,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    replicas: int,
    rng,
) -> list:
    """Monte Carlo probability that the stochastic path stays within each
    sup-in-time H radius of the center trajectory (Wilson interval): one
    report per radius, in the order of radii.

    Every radius thresholds the same sample of sup distances, so along
    sorted radii the hits cannot fall: a verdict that the estimates grow
    with the radius is always met and has no power.  When no path hits,
    p_hat = 0 and the upper confidence bound is the informative part of the
    report.  Replica r runs on rng.child(r).
    """
    zero = ControlPath.zero(u0.cutoff, cfg.dt, step_count(center.t_final, cfg.dt))
    dists = controlled_values(
        u0, zero, spec, cfg, rng, replicas, lambda traj: traj.sup_h_distance(center)
    )
    reports = []
    for radius in radii:
        hits = int(np.sum(dists <= radius))
        lo, hi = wilson_interval(hits, replicas)
        reports.append(TubeReport(float(radius), hits / replicas, lo, hi, hits, replicas))
    return reports


class ClippedEndpointDistance:
    """Bounded continuous trajectory functional a * |u(T) - target|_H^2,
    clipped at a ceiling (keeps exponential moments finite).  The scale must
    be > 0: the Laplace check's variational side is a descent at weight scale."""

    def __init__(self, target: SpectralField, scale: float = 1.0, clip: float = 10.0):
        if not scale > 0:  # NaN included
            raise ValueError(f"ClippedEndpointDistance scale must be > 0, got {scale!r}")
        self.target = target
        self.scale = scale
        self.clip = clip

    def __call__(self, traj: Trajectory) -> float:
        d = h_norm_of(traj.coeffs[-1] - self.target.coeffs)
        return min(self.clip, self.scale * d * d)


class ConstantFunctional:
    def __init__(self, value: float):
        self.value = value

    def __call__(self, traj: Trajectory) -> float:
        return self.value


@dataclass
class LaplaceReport:
    epsilons: list
    lhs: list
    ess: list
    rhs: float
    variance_flag: bool

    def rows(self):
        return [
            {"epsilon": e, "lhs": l, "rhs": self.rhs, "gap": abs(l - self.rhs), "ess": s}
            for e, l, s in zip(self.epsilons, self.lhs, self.ess)
        ]


def laplace_check(
    functional,
    u0: SpectralField,
    schedule,
    epsilons,
    replicas: int,
    cfg: IntegratorConfig,
    t_final: float,
    rng,
    gamma: float = 1.0,
) -> LaplaceReport:
    """Monte Carlo Laplace functional -eps log E exp(-G(u)/eps) across a noise
    sweep against the variational value inf_f (G(f) + I(f)).

    For a constant G the infimum is the constant.  For the clipped endpoint
    functional G(f) = min(c, a |f(T) - g|_H^2) it is min(c, J*(a)): the free
    decay has I = 0, and J*(a) = min_phi (1/2)|phi|^2 + a |u(T) - g|_H^2 is
    what one penalty round of ``minimize_action`` at the fixed weight a minimizes.
    Flags the sweep when the exponential estimator's effective sample size
    degenerates.  Replica r of member i (epsilons descending) runs on
    rng.child(i).child(r).
    """
    stream = require_stream(rng)
    if isinstance(functional, ConstantFunctional):
        rhs = functional.value
    else:
        _, rep = minimize_action(
            u0, functional.target, t_final, cfg,
            OptimizerSettings(initial_penalty=functional.scale, max_penalty_rounds=1),
        )
        rhs = min(functional.clip, rep.objective)
    zero = ControlPath.zero(u0.cutoff, cfg.dt, step_count(t_final, cfg.dt))
    specs = sweep_specs(schedule, epsilons, gamma)
    lhs, ess_list = [], []
    for i, spec in enumerate(specs):
        eps = spec.epsilon
        vals = controlled_values(u0, zero, spec, cfg, stream.child(i), replicas, functional)
        w = np.exp(-(vals - vals.min()) / eps)
        ess = float(w.sum() ** 2 / np.dot(w, w))
        log_mean = math.log(float(np.mean(w))) - vals.min() / eps
        lhs.append(-eps * log_mean)
        ess_list.append(ess)
    # exponential reweighting degenerates when few paths carry all the mass
    flag = any(e < min(max(10.0, 0.01 * replicas), 0.5 * replicas) for e in ess_list)
    return LaplaceReport(
        epsilons=[s.epsilon for s in specs],
        lhs=lhs,
        ess=ess_list,
        rhs=rhs,
        variance_flag=flag,
    )
