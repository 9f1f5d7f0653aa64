"""Time integration: skeleton and controlled equations; the stochastic
equation is the controlled one at zero control.

Every time march goes through one exponential-step kernel, ``march``: the
Stokes part is applied exactly per mode and, for the stochastic equations,
the linear-plus-noise part is advanced with the exact Ornstein-Uhlenbeck
transition, so time discretization error enters only through the nonlinear
term.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import noise as noise_mod
from .fields import SpectralField
from .grid import grid_for
from .nonlinear import DealiasRule, b_core
from .noise import NoiseSpec, as_generator, require_stream, unit_complex_normals, usable_cores
from .spectral import h_norm_sq

SCHEMES = ("exponential_euler", "etd2")


class IntegrationBlowupError(RuntimeError):
    """A marched state left the finite H ball; ``row`` is the failing row of
    a block march (0 for a single start)."""

    def __init__(self, t, norm, where="", row=0):
        super().__init__(
            f"solution blew up at t={t:.6g} (|u|_H={norm:.3e})"
            + (f" in {where}" if where else "")
            + "; the truncated dynamics are globally well-posed, so reduce dt"
        )
        self.t = t
        self.norm = norm
        self.row = row


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, scheme, dealiasing rule, nonlinearity switch and blow-up
    threshold of the time steppers."""

    dt: float
    scheme: str = "exponential_euler"
    dealias: str = "two_thirds"
    disable_nonlinearity: bool = False
    blowup_threshold: float = 1e6

    def __post_init__(self):
        if not self.dt > 0:  # also refuses NaN
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.blowup_threshold > 0:
            raise ValueError(f"blowup_threshold must be > 0, got {self.blowup_threshold}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        DealiasRule.make(self.dealias, 8)  # validates the kind

    def rule(self, cutoff: int) -> DealiasRule:
        return DealiasRule.make(self.dealias, cutoff)


@dataclass
class ControlPath:
    """Piecewise-constant H-valued control on a uniform time grid.

    values[i] holds the half-lattice coefficients of phi(t) on
    [i dt, (i+1) dt).
    """

    grid: object
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.n_modes:
            raise ValueError("control values must have shape (n_steps, n_modes)")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    @classmethod
    def zero(cls, cutoff: int, dt: float, n_steps: int) -> "ControlPath":
        g = grid_for(cutoff)
        return cls(g, dt, np.zeros((n_steps, g.n_modes), dtype=np.complex128))

    @classmethod
    def constant(cls, f: SpectralField, dt: float, n_steps: int) -> "ControlPath":
        return cls(f.grid, dt, np.tile(f.coeffs, (n_steps, 1)))

    @classmethod
    def random_in_ball(cls, cutoff, dt, n_steps, gamma, rng, decay=1.0):
        """Random control scaled onto the boundary of the energy ball."""
        g = grid_for(cutoff)
        gen = as_generator(rng)
        vals = unit_complex_normals(gen, (n_steps, g.n_modes), g.ksq ** (-decay / 2.0))
        vals *= math.sqrt(gamma / float(dt * h_norm_sq(vals)))
        return cls(g, dt, vals)


@dataclass
class Trajectory:
    """Uniform-grid path of spectral fields with run metadata.

    coeffs[i] holds the state at t = i dt; every state is divergence-free
    and zero-mean by construction of the storage.
    """

    grid: object
    dt: float
    coeffs: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != self.grid.n_modes:
            raise ValueError("trajectory coefficients must be (n_steps + 1, n_modes)")

    @property
    def n_steps(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def final(self) -> SpectralField:
        return self.state(self.n_steps)

    def difference(self, other: "Trajectory") -> np.ndarray:
        """State-by-state coefficients self - other, (n_steps + 1, n_modes),
        of two paths on the same cutoff and time grid."""
        self._compatible(other)
        return self.coeffs - other.coeffs

    def sup_h_distance(self, other: "Trajectory") -> float:
        diff = self.difference(other)
        return float(np.max(np.sqrt(h_norm_sq(diff, axis=1))))

    def sup_distance(self, other: "Trajectory", norm_fn) -> float:
        diff = self.difference(other)
        return float(np.max([norm_fn(SpectralField(self.grid, row)) for row in diff]))

    def _compatible(self, other):
        if self.grid.cutoff != other.grid.cutoff:
            raise ValueError("cutoff mismatch between trajectories")
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError("trajectories live on different time grids")
        if abs(self.dt - other.dt) > 1e-12 * self.dt:
            raise ValueError("trajectories have different time steps")


def exp_weights(z: np.ndarray):
    """Exponential-step weights at z = rate * dt: (exp(-z), psi1(z)) with
    psi1(z) = (1 - exp(-z))/z, accurate for small z."""
    return np.exp(-z), -np.expm1(-z) / z


def _psi2(z: np.ndarray) -> np.ndarray:
    """(exp(-z) - 1 + z)/z^2, accurate for small z."""
    small = z < 1e-4
    safe = np.where(small, 1.0, z)
    direct = (np.expm1(-safe) + safe) / safe**2
    series = 0.5 - z / 6.0 + z**2 / 24.0
    return np.where(small, series, direct)


def draw_chunks(n_steps: int) -> list:
    """The steps of noise a march of n_steps draws per call, in order: about
    sqrt(n_steps) each, which balances the draw-ahead thread's first wait,
    for one chunk, against the number of hand-offs."""
    chunk = math.isqrt(max(n_steps - 1, 0)) + 1
    return [min(chunk, n_steps - lo) for lo in range(0, n_steps, chunk)]


class _DrawAhead:
    """The step noise of one march, in the chunks of ``draw_chunks``.

    For each chunk one ``unit_complex_normals`` call writes the noise of
    those steps straight into their slots of the march's output.  With
    ``ahead`` a helper thread makes the calls ahead of the march; without,
    ``wait`` makes each as the march reaches its chunk.  The one scratch
    buffer is made here, on the calling thread, so the helper allocates no
    array.  ``close`` stops the helper after its current chunk and joins it."""

    def __init__(self, gens, slots, std, chunks, ahead):
        buf = np.empty((len(gens), max(chunks), 2, slots.shape[-1]))
        self._fills = self._fill(gens, slots, std, chunks, buf)
        self._filled = 0  # slots 1.._filled hold their noise
        self._error = None
        self._stop = False
        self._thread = None
        if ahead:
            self._ready = threading.Condition()
            self._thread = threading.Thread(target=self._draw, daemon=True)
            self._thread.start()

    @staticmethod
    def _fill(gens, slots, std, chunks, buf):
        """Draw the chunks in turn, yielding the last slot filled."""
        lo = 1
        for k in chunks:
            unit_complex_normals(
                gens, (len(gens), k, slots.shape[-1]), std,
                out=slots[:, lo : lo + k], buf=buf[:, :k],
            )
            lo += k
            yield lo - 1

    def _draw(self):
        try:
            for filled in self._fills:
                with self._ready:
                    self._filled = filled
                    self._ready.notify()
                if self._stop:
                    return
        except BaseException as exc:  # handed to the march
            with self._ready:
                self._error = exc
                self._ready.notify()

    def wait(self, slot):
        """Return once slot holds its noise; raise the helper's error."""
        if self._filled >= slot:
            return
        if self._thread is None:
            self._filled = next(self._fills)
            return
        with self._ready:
            while self._filled < slot and self._error is None:
                self._ready.wait()
        if self._filled < slot:
            raise self._error

    def close(self):
        if self._thread is not None:
            self._stop = True
            self._thread.join()


def march(
    grid,
    u0,
    n_steps,
    dt,
    forcing=None,
    cfg: IntegratorConfig = None,
    noise_std=None,
    gen=None,
):
    """The exponential step behind every time march (Cox and Matthews 2002).

    Each step is u <- exp(-|k|^2 dt) u + dt psi1(|k|^2 dt) F(u, step), plus
    the ETD2 correction when cfg selects it, plus noise_std * xi, a
    ``unit_complex_normals`` draw; forcing=None drops F (a pure
    Ornstein-Uhlenbeck or free-decay march).

    u0 is one start (n_modes,) or a block of starts (R, n_modes) marched in
    lockstep, forcing then taking and returning (R, n_modes) stacks.  gen is
    one generator per row of a block (a lone generator for one start); each
    row draws its steps in order from its own generator, so every row keeps
    the draws it has when marched alone.  After each step every row must
    have a finite H norm within cfg.blowup_threshold (finite only, without
    cfg); the first step where a row fails raises, naming the lowest failing
    row.  A block's rows are screened by one reduction, and only a step
    where some row comes within 1e-12 of the limit, or is not finite, checks
    each row's ``vdot`` as a single row is checked, so every verdict is the
    single row's.  Returns the states, (n_steps + 1, n_modes), or
    (R, n_steps + 1, n_modes) for a block.

    The noise is drawn in the chunks of steps of ``draw_chunks``, one call
    per chunk, into the output slots of those steps; the march forms the
    deterministic part of each step in a buffer of its own and adds it to
    the noise in the step's slot.  With two or more chunks and two or more
    usable cores a helper thread draws the chunks ahead of the march; else
    the march draws each chunk as it reaches it.  Either way every state has
    the same bits.  After a blow-up the helper may have drawn a chunk past
    the failing step.  It is joined before the march returns or raises, and
    an error it meets is raised here.
    """
    n_modes = grid.n_modes
    z = grid.ksq * dt
    decay, psi1 = exp_weights(z)
    gain = dt * psi1
    etd2 = cfg is not None and cfg.scheme == "etd2"
    gain2 = dt * _psi2(z) if etd2 else None
    u0 = np.asarray(u0)
    single = u0.ndim == 1
    n_rows = 1 if single else u0.shape[0]
    gens = [gen] if single else gen
    limit_sq = math.inf if cfg is None else cfg.blowup_threshold**2
    # a block's rows pass at once when one reduction puts every squared norm
    # this far under the limit, beyond the roundoff between it and vdot's
    screen_sq = 0.5 * limit_sq * (1.0 - 1e-12)
    # one contiguous (n_steps + 1, n_modes) path per row
    out = np.empty(u0.shape[:-1] + (n_steps + 1, n_modes), dtype=np.complex128)
    out[..., 0, :] = u0
    u = out[..., 0, :]
    noise = None
    chunks = draw_chunks(n_steps) if noise_std is not None and n_rows > 0 else []
    if chunks:
        step_buf = np.empty_like(u)
        noise = _DrawAhead(
            gens, out.reshape(n_rows, n_steps + 1, n_modes), noise_std, chunks,
            len(chunks) > 1 and usable_cores() > 1,
        )
    try:
        for step in range(n_steps):
            # the step is formed in its own slot, or beside the slot that
            # holds its noise; decay stays the first operand
            unew = np.multiply(decay, u, out=out[..., step + 1, :] if noise is None else step_buf)
            if forcing is not None:
                F = forcing(u, step)
                unew += gain * F
                if etd2:
                    unew += gain2 * (forcing(unew, step) - F)
            if noise is not None:
                noise.wait(step + 1)
                unew = out[..., step + 1, :]
                unew += step_buf
            rows = unew.reshape(n_rows, n_modes)
            if n_rows > 1:
                parts = rows.view(np.float64)
                if (np.einsum("ij,ij->i", parts, parts) <= screen_sq).all():
                    rows = ()
            for r, row in enumerate(rows):
                nrm_sq = 2.0 * np.vdot(row, row).real
                if not nrm_sq <= limit_sq:  # also catches NaN
                    raise IntegrationBlowupError((step + 1) * dt, math.sqrt(abs(nrm_sq)), row=r)
            u = unew
    finally:
        if noise is not None:
            noise.close()
    return out


def skeleton_forcing(grid, cfg: IntegratorConfig, values, velocity=None):
    """F(u, step) = b(u) + values[step], the forcing of the skeleton-type
    marches (b dropped when cfg disables the nonlinearity).  A ``velocity``
    buffer (n_steps, M, M) receives in velocity[step] the grid b_core
    synthesized at that step."""
    if cfg.disable_nonlinearity:
        return lambda u, step: values[step]
    rule = cfg.rule(grid.cutoff)

    def forcing(u, step):
        F = b_core(u, grid, rule, None if velocity is None else velocity[step])
        F += values[step]
        return F

    return forcing


def step_count(t_final: float, dt: float) -> int:
    """Number of steps of dt that span t_final; a horizon that is not
    positive or rounds to no step at all raises."""
    if not t_final > 0 or round(t_final / dt) < 1:
        raise ValueError(f"horizon t_final={t_final} spans no step of dt={dt}")
    return round(t_final / dt)


def _check_control(u0: SpectralField, phi: ControlPath, cfg: IntegratorConfig):
    if phi.grid.cutoff != u0.grid.cutoff:
        raise ValueError("control and initial condition cutoffs differ")
    if phi.dt > cfg.dt * (1.0 + 1e-12):
        raise ValueError(
            f"control step {phi.dt} exceeds the configured stability step {cfg.dt}"
        )


def duhamel_gamma(phi: ControlPath) -> Trajectory:
    """Mild heat convolution of a control: t -> int_0^t exp((t-s)A) phi(s) ds.

    Exact per mode for the piecewise-constant control: the march from zero
    with F = phi.
    """
    grid = phi.grid
    vals = phi.values
    out = march(
        grid, np.zeros(grid.n_modes), phi.n_steps, phi.dt, lambda u, step: vals[step]
    )
    return Trajectory(grid, phi.dt, out, metadata={"kind": "duhamel"})


def phi_eps(phi: ControlPath, spec: NoiseSpec) -> Trajectory:
    """Duhamel convolution of the covariance-weighted control Q phi."""
    lam = noise_mod.covariance_weights(phi.grid, spec)
    weighted = ControlPath(phi.grid, phi.dt, phi.values * lam[None, :])
    traj = duhamel_gamma(weighted)
    traj.metadata.update({"kind": "phi_eps", "epsilon": spec.epsilon, "delta": spec.delta})
    return traj


def step_skeleton(
    u: SpectralField, phi_t: SpectralField, cfg: IntegratorConfig, dt: float = None
) -> SpectralField:
    """One step of du/dt = Au + b(u) + phi with the configured scheme."""
    if dt is None:
        dt = cfg.dt
    if dt > cfg.dt * (1.0 + 1e-12):
        raise ValueError(f"step {dt} exceeds the configured stability step {cfg.dt}")
    forcing = skeleton_forcing(u.grid, cfg, phi_t.coeffs[None, :])
    out = march(u.grid, u.coeffs, 1, dt, forcing, cfg)
    return SpectralField(u.grid, out[1])


def solve_skeleton(u0: SpectralField, phi: ControlPath, cfg: IntegratorConfig) -> Trajectory:
    """Deterministic controlled flow du/dt = Au + b(u) + phi on phi's grid."""
    _check_control(u0, phi, cfg)
    grid = u0.grid
    vals = phi.values
    out = march(grid, u0.coeffs, phi.n_steps, phi.dt, skeleton_forcing(grid, cfg, vals), cfg)
    return Trajectory(grid, phi.dt, out, metadata={"kind": "skeleton", "scheme": cfg.scheme})


def solve_controlled(
    u0: SpectralField,
    phi: ControlPath,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    rng,
) -> Trajectory:
    """du = [Au + b(u) + Q phi] dt + sqrt(eps) dw on phi's time grid.

    The control is reweighted per mode by the covariance (Q phi); at
    eps = 0 the run is the skeleton driven by Q phi and draws nothing.  The
    one-stream block of ``solve_controlled_block``.
    """
    return solve_controlled_block(u0, phi, spec, cfg, [rng])[0]


def solve_controlled_block(
    u0: SpectralField,
    phi: ControlPath,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    streams,
) -> list:
    """The controlled paths of ``solve_controlled``, one per stream, marched
    as one block; each path is the one its stream gives alone.

    A blow-up raises at the first step where any path fails and names the
    lowest-index failing path's seed and stream.  No streams, no paths: an
    empty block returns [] and marches nothing.
    """
    streams = [require_stream(s) for s in streams]
    _check_control(u0, phi, cfg)
    if not streams:
        return []
    grid = u0.grid
    lam = noise_mod.covariance_weights(grid, spec)
    forced = phi.values * lam[None, :]

    if spec.epsilon > 0.0:
        # the steps come from child(1); child(0) is reserved and unused, so
        # renumbering would move every seeded path
        gens = [s.child(1).generator() for s in streams]
        _, noise_std = noise_mod.ou_transition(grid, spec, 0.0, phi.dt)
    else:
        gens, noise_std = None, None
    start = np.broadcast_to(u0.coeffs, (len(streams), grid.n_modes))
    try:
        out = march(
            grid, start, phi.n_steps, phi.dt, skeleton_forcing(grid, cfg, forced), cfg,
            noise_std=noise_std, gen=gens,
        )
    except IntegrationBlowupError as exc:
        failed = streams[exc.row]
        where = f"seed={failed.seed} stream={failed.stream_id}"
        raise IntegrationBlowupError(exc.t, exc.norm, where, exc.row) from exc
    paths = []
    for r, s in enumerate(streams):
        meta = {
            "kind": "controlled",
            "scheme": cfg.scheme,
            "epsilon": spec.epsilon,
            "delta": spec.delta,
            "seed": s.seed,
            "stream": s.stream_id,
        }
        paths.append(Trajectory(grid, phi.dt, out[r], metadata=meta))
    return paths


TRAJ_HEADER = "sns2d-trajectory v1"


def save_trajectory(traj: Trajectory, path):
    """Header (cutoff, dt, t_final, metadata) plus per-step coefficient rows."""
    g = traj.grid
    meta = dict(traj.metadata)
    lines = [
        f"# {TRAJ_HEADER}",
        f"# cutoff={g.cutoff}",
        f"# dt={float(traj.dt)!r}",
        f"# n_steps={traj.n_steps}",
    ]
    for key in sorted(meta):
        lines.append(f"# meta:{key}={meta[key]}")
    lines.append("step,k1,k2,re,im")
    for i in range(traj.coeffs.shape[0]):
        row = traj.coeffs[i]
        for a, b, c in zip(g.k1, g.k2, row):
            lines.append(f"{i},{a},{b},{float(c.real)!r},{float(c.imag)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

