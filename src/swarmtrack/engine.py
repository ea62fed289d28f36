"""Deterministic fixed-step simulation loop.

One step takes one sample of the world at its top (the target's state and
acceleration, the positions, the heading vectors) and everything else reads
it: the network moves broadcast traffic up to now, every agent assembles its
view of the swarm (ground truth, or what it last received in networked mode),
forms the reference velocity and writes the three-term heading-rate command
into the step's log rows, and the unicycle dynamics are integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import check_feasibility, FeasibilityReport
from .controllers import ControllerGains, control_terms
from .dynamics import finite_pair, norm, require_finite, rk4_unicycle_arrays, vec2, wrap_angles
from .netsim import SALT_DISTURB, BroadcastNetwork, NetworkConfig, counter_uniform
from .reference import (
    TargetProgram,
    WeightFunction,
    arc_offset,
    polar_velocity,
    reference_kinematics,
    reference_rates,
    reference_signal,
    target_state,
)


# --------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class AgentInit:
    position: np.ndarray
    heading: float
    speed: float

    def __post_init__(self):
        object.__setattr__(self, "position", finite_pair(self.position, "agent position"))
        require_finite(self, "heading")


@dataclass(frozen=True)
class ConstantRef:
    """Fixed reference velocity; the outer target loop is bypassed."""

    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "velocity", finite_pair(self.velocity, "reference velocity"))

    def max_speed(self) -> float:
        return norm(self.velocity)


@dataclass(frozen=True)
class TurningRef:
    """Reference on a constant-rate turn; curvature is known in closed form."""

    speed: float
    kappa: float
    heading0: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.speed < math.inf:
            raise ValueError("turning-reference speed must be non-negative and finite, "
                             f"got {self.speed}")
        require_finite(self, "kappa", "heading0")

    def max_speed(self) -> float:
        return self.speed


@dataclass(frozen=True)
class TargetTracking:
    """Reference generated online from the target and the centroid estimate,
    which `weight` pulls toward the target; its speed bound is the target
    program's."""

    weight: WeightFunction


ReferenceMode = ConstantRef | TurningRef | TargetTracking


def step_count(duration: float, dt: float) -> int:
    """round(duration / dt), a run's steps; ValueError unless finite and at least 1."""
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValueError(f"duration {duration} s gives no finite number of steps of dt = {dt} s")
    if round(steps) < 1:
        raise ValueError(f"duration {duration} s gives no steps of dt = {dt} s "
                         "(it must exceed half a step)")
    return round(steps)


class InfeasibleScenario(RuntimeError):
    """Raised when a ScenarioConfig is built whose speeds cannot realize the
    reference, unless allow_infeasible; the message names the first failing condition."""

    def __init__(self, report: FeasibilityReport):
        self.report = report
        if not report.condition1_ok:
            reason = (f"slowest agent speed {report.v_min} is below the reference "
                      f"speed bound {report.ref_speed_bound}")
        else:
            reason = (f"fastest agent speed {report.v_max} exceeds the sum of the "
                      f"other speeds {report.sum_others}")
        super().__init__(f"infeasible: {reason} (set allow_infeasible to run anyway)")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run. Building one validates it and, last,
    raises InfeasibleScenario unless its speed set is feasible or allow_infeasible is set."""

    agents: tuple
    gains: ControllerGains
    reference_mode: ReferenceMode
    duration: float
    target: TargetProgram | None = None
    network: NetworkConfig | None = None  # None = ground-truth information
    dt: float = 0.01
    seed: int = 0
    disturbance: float = 0.0
    allow_infeasible: bool = False

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if len(self.agents) < 1:
            raise ValueError("at least one agent required")
        if self.dt <= 0.0 or self.duration <= 0.0:
            raise ValueError("dt and duration must be positive")
        step_count(self.duration, self.dt)
        if isinstance(self.reference_mode, TargetTracking) and self.target is None:
            raise ValueError("target tracking requires a target program")
        if not 0.0 <= self.disturbance < math.inf:
            raise ValueError("disturbance amplitude must be non-negative and finite")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        report = self.feasibility()  # last: the speed bound reads the target checked above
        if not (report.feasible or self.allow_infeasible):
            raise InfeasibleScenario(report)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def steps(self) -> int:
        return step_count(self.duration, self.dt)

    @property
    def speeds(self) -> np.ndarray:
        return np.array([a.speed for a in self.agents], dtype=float)

    def ref_speed_bound(self) -> float:
        tracking = isinstance(self.reference_mode, TargetTracking)
        return (self.target if tracking else self.reference_mode).max_speed()

    def feasibility(self) -> FeasibilityReport:
        return check_feasibility(self.speeds, self.ref_speed_bound())


class SimulationAborted(RuntimeError):
    """Non-finite state encountered; carries the partial log."""

    def __init__(self, message: str, log: "RunLog"):
        self.log = log
        super().__init__(message)


# --------------------------------------------------------------------------
# Run log


AGENT = "n"  # the per-agent axis of a record row


def _record(row=(), csv=None, dtype=np.float64):
    """A RunLog field with one row per step.

    row is the shape of one row: () for a scalar, (2,) for an (x, y) pair and
    (AGENT,) for one entry per agent. csv names the trajectory.csv column (the
    field's own name when None): a pair has two names, and a per-agent field
    gives the prefix its agent's 1-based number is appended to.
    """
    return field(metadata={"row": row, "csv": csv, "dtype": dtype})


@dataclass
class RunLog:
    """Fixed-schema per-step record arrays.

    Per-agent arrays have shape (rows, n). u_total is the applied command
    (including optional disturbance and saturation); u_vel/u_h/u_spc are the
    controller's decomposition. Network counters are cumulative; stale_count
    is the number of stale received entries seen this step. In networked mode
    the reference columns are the observer reference (driven by the true
    centroid); V and alpha_norm measure against it.

    Every per-step field declares its row shape, dtype and CSV name(s) with
    `_record`; allocation, truncation and the trajectory.csv layout read them
    from `RECORD_FIELDS`.
    """

    t: np.ndarray = _record()
    x: np.ndarray = _record((AGENT,))
    y: np.ndarray = _record((AGENT,))
    theta: np.ndarray = _record((AGENT,))
    u_vel: np.ndarray = _record((AGENT,))
    u_h: np.ndarray = _record((AGENT,), "u_ff")
    u_spc: np.ndarray = _record((AGENT,))
    u_total: np.ndarray = _record((AGENT,), "u_tot")
    dist_to_centroid: np.ndarray = _record((AGENT,), "dist")
    centroid: np.ndarray = _record((2,), ("centroid_x", "centroid_y"))
    centroid_vel: np.ndarray = _record((2,), ("centroid_vx", "centroid_vy"))
    ref_pos: np.ndarray = _record((2,), ("ref_x", "ref_y"))
    ref_vel: np.ndarray = _record((2,), ("ref_vx", "ref_vy"))
    target_pos: np.ndarray = _record((2,), ("target_x", "target_y"))
    target_vel: np.ndarray = _record((2,), ("target_vx", "target_vy"))
    V: np.ndarray = _record()
    beta_norm: np.ndarray = _record()
    alpha_norm: np.ndarray = _record()
    net_sent: np.ndarray = _record(dtype=np.int64)
    net_decisions: np.ndarray = _record(dtype=np.int64)
    net_delivered: np.ndarray = _record(dtype=np.int64)
    net_dropped: np.ndarray = _record(dtype=np.int64)
    stale_count: np.ndarray = _record(dtype=np.int64)
    speeds: np.ndarray
    dt: float
    seed: int
    aborted: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return len(self.t)

    @property
    def n(self) -> int:
        return self.x.shape[1]


# (name, row shape, dtype, CSV name or names) of each per-step RunLog field,
# in declaration order.
RECORD_FIELDS = tuple(
    (f.name, f.metadata["row"], f.metadata["dtype"], f.metadata["csv"] or f.name)
    for f in fields(RunLog) if "row" in f.metadata
)


def _alloc_log(rows: int, n: int, speeds, dt: float, seed: int) -> RunLog:
    try:
        arrays = {
            name: np.zeros((rows, *(n if d == AGENT else d for d in row)), dtype)
            for name, row, dtype, _ in RECORD_FIELDS
        }
    except (ValueError, MemoryError) as exc:
        raise MemoryError(f"cannot allocate the log of {rows:.3g} steps x {n} agents: {exc}") from None
    return RunLog(**arrays, speeds=np.asarray(speeds, dtype=float).copy(), dt=dt, seed=seed)


def _truncate_log(log: RunLog, rows: int) -> RunLog:
    for name, *_ in RECORD_FIELDS:
        setattr(log, name, getattr(log, name)[:rows])
    return log


# --------------------------------------------------------------------------
# Reference signals

_ZERO_ACC = (0.0, 0.0)


def _sample_reference(row, ref_pos, ref_vel, target_pos, target_vel, target_acc, centroid, weight):
    """The `reference_signal` tuple of one generated reference point at this step.

    Row `row` of ref_pos and ref_vel holds one integrated copy of the reference
    trajectory. Row 0 is the observer's, fed by ground truth and reported in
    the log; in networked tracking mode row k belongs to agent k, fed by its own
    centroid and target estimates. Planar inputs are (x, y) float pairs. The
    velocity is stored in ref_vel for the step's advance; its speed and heading
    come from `polar_velocity`, as the closed-form references' do.

    The turn rate and speed rate come from the closed-form derivative of the
    reference velocity (`reference_kinematics`), so jumps in the target
    velocity or in a network estimate reset the reference instead of feeding
    an impulse to the feedforward term. The beacon velocity is the target's:
    the beacon spacing term leads the reference point along it.
    """
    vel, vdot = reference_kinematics(target_pos, target_vel, target_acc, centroid, weight)
    v, th = polar_velocity(vel)
    kappa, a = reference_rates(vel, vdot)
    ref_vel[row] = vel
    return reference_signal(ref_pos[row], v, th, kappa, a, target_vel)


def _closed_form_reference(mode: ReferenceMode, p0: np.ndarray, t: float):
    """The `reference_signal` tuple at time t of a ConstantRef or TurningRef starting at p0."""
    if isinstance(mode, ConstantRef):
        vel = mode.velocity
        return reference_signal(p0 + t * vel, *polar_velocity(vel), 0.0, 0.0, vel)
    th = mode.heading0 + mode.kappa * t
    pos = p0 + np.array(arc_offset(mode.speed, mode.kappa, mode.heading0, t))
    return reference_signal(pos, mode.speed, wrap_angles(th), mode.kappa, 0.0,
                            mode.speed * np.array([math.cos(th), math.sin(th)]))


# --------------------------------------------------------------------------
# Main loop


def _start(config: ScenarioConfig):
    """(x, y, wrapped headings, centroid, empty log) at a run's start; the log
    holds the feasibility verdict, and NaN target columns when there is no target."""
    x = np.array([a.position[0] for a in config.agents])
    y = np.array([a.position[1] for a in config.agents])
    th = wrap_angles([a.heading for a in config.agents])
    log = _alloc_log(config.steps, config.n, config.speeds, config.dt, config.seed)
    log.meta["feasibility"] = config.feasibility()
    if config.target is None:
        log.target_pos[:] = log.target_vel[:] = log.beta_norm[:] = math.nan
    return x, y, th, vec2(x.mean(), y.mean()), log


def run(config: ScenarioConfig) -> RunLog:
    """Simulate a scenario and return its complete log.

    Deterministic: identical (config, seed) pairs produce bit-identical logs.
    Raises SimulationAborted (carrying the partial log) if the state ever goes
    non-finite; the config judged its speed set when it was built.
    """
    n, dt, steps = config.n, config.dt, config.steps
    gains = config.gains
    speeds = config.speeds
    x, y, th, centroid0, log = _start(config)

    tracking = isinstance(config.reference_mode, TargetTracking)
    weight = config.reference_mode.weight if tracking else None
    net = BroadcastNetwork(config.network, n, config.seed, dt, steps) if config.network else None
    # Generated reference points (see _sample_reference): row 0 is the
    # observer's, rows 1..n the agents' own in networked tracking mode.
    ref_rows = 1 + n if tracking and net is not None else 1
    ref_pos = np.tile(centroid0, (ref_rows, 1))
    ref_vel = np.zeros((ref_rows, 2))
    agent_ids = np.arange(1, n + 1, dtype=np.uint64)

    for m in range(steps):
        t = m * dt
        # The step's one sample of the world; everything below reads it.
        tgt_pos = tgt_vel = tgt_acc = None
        if config.target is not None:
            tgt_pos, tgt_vel = target_state(config.target, t)
            tgt_acc = config.target.acceleration(t)
        positions = np.column_stack((x, y))
        vc = speeds * np.cos(th)
        vs = speeds * np.sin(th)
        if net is not None:
            velocities = np.column_stack((vc, vs))
            if m == 0:
                net.initialize(positions, velocities, tgt_pos, tgt_vel)
            else:
                net.advance(t, positions, velocities, tgt_pos, tgt_vel)

        # sum / n is bit-identical to ndarray.mean without its per-call overhead
        true_centroid = positions.sum(axis=0) / n
        true_cvel = np.array([vc.sum() / n, vs.sum() / n])
        stale_seen = 0

        # Observer reference (always computed from ground truth; logged).
        if tracking:
            obs_ref = _sample_reference(0, ref_pos, ref_vel, tgt_pos.tolist(), tgt_vel.tolist(),
                                        tgt_acc.tolist(), true_centroid.tolist(), weight)
        else:
            obs_ref = _closed_form_reference(config.reference_mode, centroid0, t)

        # The controls go straight into the step's log rows.
        u_vel, u_h, u_spc, u_tot = log.u_vel[m], log.u_h[m], log.u_spc[m], log.u_total[m]
        if net is None:
            u_vel[:], u_h[:], u_spc[:] = control_terms(speeds, th, positions, obs_ref, gains)
        else:
            for k in range(1, n + 1):
                th_k, pos_k, stale_k = net.snapshot_for_agent(k, positions[k - 1], th[k - 1], t)
                stale_seen += int(stale_k.sum())
                if tracking:
                    tp, tv, t_stale = net.target_estimate(k, t)
                    stale_seen += int(t_stale)
                    # Broadcasts carry no acceleration, so agents take a_T = 0.
                    ref_k = _sample_reference(k, ref_pos, ref_vel, tp.tolist(), tv.tolist(),
                                              _ZERO_ACC, (pos_k.sum(axis=0) / n).tolist(), weight)
                else:
                    ref_k = obs_ref
                # each agent keeps its own row of its view's control terms
                i = k - 1
                u_v, h, u_s = control_terms(speeds, th_k, pos_k, ref_k, gains)
                u_vel[i], u_h[i], u_spc[i] = u_v[i], h[i], u_s[i]
        np.add(u_vel, u_h, out=u_tot)
        u_tot += u_spc

        if config.disturbance > 0.0:
            draws = counter_uniform(config.seed, SALT_DISTURB, m, agent_ids)
            u_tot += config.disturbance * (2.0 * draws - 1.0)
        if gains.u_max is not None:
            np.clip(u_tot, -gains.u_max, gains.u_max, out=u_tot)

        # Record the step (state at time t, command applied over [t, t+dt)).
        log.t[m] = t
        log.x[m] = x
        log.y[m] = y
        log.theta[m] = th
        log.centroid[m] = true_centroid
        log.centroid_vel[m] = true_cvel
        log.ref_pos[m] = obs_ref[0]
        log.ref_vel[m] = obs_ref[1]
        if tgt_pos is not None:
            log.target_pos[m] = tgt_pos
            log.target_vel[m] = tgt_vel
            log.beta_norm[m] = math.hypot(
                true_centroid[0] - tgt_pos[0], true_centroid[1] - tgt_pos[1]
            )
        err = true_cvel - obs_ref[1]
        log.alpha_norm[m] = math.hypot(err[0], err[1])
        log.V[m] = 0.5 * float(err @ err)
        log.dist_to_centroid[m] = np.hypot(x - true_centroid[0], y - true_centroid[1])
        if net is not None:
            log.net_sent[m] = net.stats.sent
            log.net_decisions[m] = net.stats.pair_decisions
            log.net_delivered[m] = net.stats.delivered
            log.net_dropped[m] = net.stats.dropped
            log.stale_count[m] = stale_seen

        # Integrate dynamics, then references; network traffic moves at the
        # top of the next step.
        x, y, th = rk4_unicycle_arrays(x, y, th, speeds, u_tot, dt)
        if tracking:
            ref_pos = ref_pos + ref_vel * dt  # not in place: obs_ref holds a row view

        if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(th).all()):
            _truncate_log(log, m + 1)
            log.aborted = f"non-finite state after step {m} (t={(m + 1) * dt:.6g} s)"
            raise SimulationAborted(log.aborted, log)

    return log


# --------------------------------------------------------------------------
# Centroid oracle (heading dynamics bypassed)


def run_oracle_centroid(config: ScenarioConfig) -> RunLog:
    """Idealized outer loop: the centroid velocity equals the reference exactly.

    Isolates the target-tracking error dynamics beta = centroid - target,
    which then obey beta_dot = -w(||beta||) * beta: the centroid moves with the
    `reference_kinematics` velocity that `run` samples, and beta takes a
    classical 4th-order step for every weight. Agents translate rigidly with
    the centroid; controls, V, and alpha are identically zero.
    """
    if not isinstance(config.reference_mode, TargetTracking):
        raise ValueError("the centroid oracle only makes sense for target-tracking configs")
    dt, steps = config.dt, config.steps
    x0, y0, th0, centroid0, log = _start(config)
    offx, offy = x0 - centroid0[0], y0 - centroid0[1]

    beta = centroid0 - target_state(config.target, 0.0)[0]
    w = config.reference_mode.weight

    for m in range(steps):
        t = m * dt
        tgt_pos, tgt_vel = target_state(config.target, t)
        centroid = tgt_pos + beta
        ref_vel = reference_kinematics(tgt_pos, tgt_vel, _ZERO_ACC, centroid, w)[0]
        log.t[m] = t
        log.x[m] = centroid[0] + offx
        log.y[m] = centroid[1] + offy
        log.theta[m] = th0
        log.centroid[m] = centroid
        log.centroid_vel[m] = ref_vel
        log.ref_pos[m] = centroid
        log.ref_vel[m] = ref_vel
        log.target_pos[m] = tgt_pos
        log.target_vel[m] = tgt_vel
        log.beta_norm[m] = math.hypot(beta[0], beta[1])
        log.dist_to_centroid[m] = np.hypot(offx, offy)
        beta = _rk4_beta(beta, w, dt)
    return log


def _rk4_beta(beta: np.ndarray, w: WeightFunction, dt: float) -> np.ndarray:
    def f(b):
        return -w.pull(math.hypot(b[0], b[1]))[0] * b

    k1 = f(beta)
    k2 = f(beta + 0.5 * dt * k1)
    k3 = f(beta + 0.5 * dt * k2)
    k4 = f(beta + dt * k3)
    return beta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
