"""Deterministic fixed-step simulation loop.

`run_batch` steps B same-shape runs in lock step, their state one set of
(B, n) arrays; `run` is a batch of one. One step takes one sample of each
run's world at its top (the target's state and acceleration, the positions,
the heading vectors) and everything else reads it: each network moves
broadcast traffic up to now, every agent assembles its view of the swarm
(ground truth, or what it last received in networked mode), forms the
reference velocity and computes the three-term heading-rate command, the
step's log rows are written, and the unicycle dynamics are integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .analysis import check_feasibility, FeasibilityReport
from .controllers import BatchGains, ControllerGains, control_terms
from .dynamics import finite_pair, norm, require_finite, rk4_unicycle_arrays, wrap_angles
from .netsim import SALT_DISTURB, BroadcastNetwork, NetworkConfig, counter_uniform
from .reference import (
    TargetProgram,
    WeightFunction,
    arc_offset,
    polar_velocity,
    reference_kinematics,
    reference_rates,
    reference_signal,
    stack_signals,
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


def log_bytes(config: ScenarioConfig) -> int:
    """Bytes of the RunLog arrays a config's run allocates."""
    row = sum(np.dtype(dtype).itemsize * math.prod(config.n if d == AGENT else d for d in shape)
              for _, shape, dtype, _ in RECORD_FIELDS)
    return row * config.steps


def _alloc_logs(configs) -> tuple[SimpleNamespace, list]:
    """(arrays, logs) of B same-shape runs: each per-step field allocated once
    as (steps, B, *row), an attribute of arrays, and case b's RunLog holding
    the slices [:, b]."""
    rows, n, cases = configs[0].steps, configs[0].n, len(configs)
    try:
        arrays = {
            name: np.zeros((rows, cases, *(n if d == AGENT else d for d in row)), dtype)
            for name, row, dtype, _ in RECORD_FIELDS
        }
    except (ValueError, MemoryError) as exc:
        size = f"{rows:.3g} steps x {n} agents" + (f" x {cases} cases" if cases > 1 else "")
        raise MemoryError(f"cannot allocate the log of {size}: {exc}") from None
    logs = [RunLog(**{name: a[:, b] for name, a in arrays.items()},
                   speeds=c.speeds, dt=c.dt, seed=c.seed) for b, c in enumerate(configs)]
    return SimpleNamespace(**arrays), logs


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


def batch_key(config: ScenarioConfig) -> tuple:
    """What the configs of one `run_batch` share: n, dt, the step count, the kind
    of reference mode, the spacing mode, and whether the run has a target and
    whether it is networked."""
    return (config.n, config.dt, config.steps, type(config.reference_mode),
            config.gains.spacing_mode, config.target is not None, config.network is not None)


def _start(configs):
    """(x, y, wrapped headings, centroid, log arrays, logs) of B runs at their start,
    the state as (B, n) rows and the centroids as (B, 2). Each log holds its
    feasibility verdict, and NaN target columns when its run has no target."""
    x = np.array([[a.position[0] for a in c.agents] for c in configs])
    y = np.array([[a.position[1] for a in c.agents] for c in configs])
    th = wrap_angles([[a.heading for a in c.agents] for c in configs])
    arrays, logs = _alloc_logs(configs)
    for c, log in zip(configs, logs):
        log.meta["feasibility"] = c.feasibility()
        if c.target is None:
            log.target_pos[:] = log.target_vel[:] = log.beta_norm[:] = math.nan
    return x, y, th, np.stack((x.mean(axis=1), y.mean(axis=1)), axis=1), arrays, logs


def _case_rows(cases):
    """The per-case constants of a batch as rows against its (B, n) state:
    (speeds, BatchGains, u_max column, disturbance amplitude column, disturbed-case
    column, seed column). u_max is inf for a case that sets none, and None when
    no case sets one; the disturbed column is None when no case is disturbed."""
    u_max = [c.gains.u_max for c in cases]
    amplitude = np.array([[c.disturbance] for c in cases])
    disturbed = amplitude > 0.0
    return (np.array([c.speeds for c in cases]), BatchGains.of([c.gains for c in cases]),
            None if u_max.count(None) == len(u_max)
            else np.array([[math.inf if u is None else u] for u in u_max]),
            amplitude, disturbed if disturbed.any() else None,
            np.array([[c.seed % 2**64] for c in cases], dtype=np.uint64))


def run(config: ScenarioConfig) -> RunLog:
    """Simulate a scenario and return its complete log: `run_batch` of one config.

    Deterministic: identical (config, seed) pairs produce bit-identical logs.
    Raises SimulationAborted (carrying the partial log) if the state ever goes
    non-finite; the config judged its speed set when it was built.
    """
    log = run_batch([config])[0]
    if log.aborted is not None:
        raise SimulationAborted(log.aborted, log)
    return log


def run_batch(configs) -> list[RunLog]:
    """Simulate B configs in lock step and return their logs, in order.

    The configs must share `batch_key` (ValueError otherwise). The state is
    one set of (B, n) arrays: every step does the trig, the centroid sums,
    the integration, the finiteness check and the log rows for all cases at
    once, and in ground truth one `control_terms` call serves every case. A
    networked case keeps its own network and one call per agent view. Each
    case samples its own target and reference in Python floats.

    Each log equals bit for bit the one its config gives alone. A case whose
    state goes non-finite leaves the batch after that step: its log is
    truncated there and `aborted` says why, as `run` raises it, while the
    other cases run on.
    """
    configs = list(configs)
    if not configs:
        return []
    if len({batch_key(c) for c in configs}) > 1:
        raise ValueError("a batch shares n, dt, the step count, the reference-mode kind, "
                         "the spacing mode, and whether it has a target and a network")
    first = configs[0]
    n, dt, steps = first.n, first.dt, first.steps
    x, y, th, centroid0, rec, logs = _start(configs)

    tracking = isinstance(first.reference_mode, TargetTracking)
    nets = [BroadcastNetwork(c.network, n, c.seed, dt, steps) for c in configs] \
        if first.network else None
    # Generated reference points (see _sample_reference), per case: row 0 is
    # the observer's, rows 1..n the agents' own in networked tracking mode.
    ref_pos = np.repeat(centroid0[:, None], 1 + n if tracking and nets else 1, axis=1)
    ref_vel = np.zeros(ref_pos.shape)
    agent_ids = np.arange(1, n + 1, dtype=np.uint64)
    # The running cases: their indices into configs, and as an index array into
    # the log arrays' case axis once a case has left the batch.
    live, rows = list(range(len(configs))), None
    cases = configs
    speeds, gains, u_max, amplitude, disturbed, seeds = _case_rows(cases)
    targeted = first.target is not None

    for m in range(steps):
        t = m * dt
        # Each case's one sample of the world; everything below reads it.
        world = [(*target_state(c.target, t), c.target.acceleration(t)) for c in cases] \
            if targeted else [(None, None, None)] * len(cases)
        positions = _pairs(x, y)
        vc = speeds * np.cos(th)
        vs = speeds * np.sin(th)
        if nets is not None:
            velocities = _pairs(vc, vs)
            for net, (tgt_pos, tgt_vel, _), p, v in zip(nets, world, positions, velocities):
                if m == 0:
                    net.initialize(p, v, tgt_pos, tgt_vel)
                else:
                    net.advance(t, p, v, tgt_pos, tgt_vel)

        # sum / n is bit-identical to ndarray.mean without its per-call overhead
        true_centroid = np.add.reduce(positions, 1) / n

        # Observer references (always computed from ground truth; logged).
        if tracking:
            obs = [_sample_reference(0, ref_pos[i], ref_vel[i], tgt_pos.tolist(), tgt_vel.tolist(),
                                     tgt_acc.tolist(), c, case.reference_mode.weight)
                   for i, (case, (tgt_pos, tgt_vel, tgt_acc), c)
                   in enumerate(zip(cases, world, true_centroid.tolist()))]
        else:
            obs = [_closed_form_reference(case.reference_mode, p0, t)
                   for case, p0 in zip(cases, centroid0)]

        if nets is None and len(cases) == 1:  # one view: the kernel's cheaper float solve
            u_vel, u_h, u_spc = (u[None] for u in control_terms(
                speeds[0], th[0], positions[0], obs[0], cases[0].gains))
        elif nets is None:
            u_vel, u_h, u_spc = control_terms(speeds, th, positions, stack_signals(obs), gains)
        else:
            u_vel, u_h, u_spc = np.empty((3, len(cases), n))
            stale = [_agent_controls(net, case, t, positions[i], th[i], speeds[i],
                                     ref_pos[i], ref_vel[i], obs[i] if not tracking else None,
                                     (u_vel[i], u_h[i], u_spc[i]))
                     for i, (case, net) in enumerate(zip(cases, nets))]
        u_tot = u_vel + u_h
        u_tot += u_spc
        if disturbed is not None:
            draws = counter_uniform(seeds, SALT_DISTURB, m, agent_ids)
            np.add(u_tot, amplitude * (2.0 * draws - 1.0), out=u_tot, where=disturbed)
        if u_max is not None:
            np.clip(u_tot, -u_max, u_max, out=u_tot)

        # Record the step (state at time t, command applied over [t, t+dt)).
        at = m if rows is None else (m, rows)
        rec.t[m] = t
        rec.x[at] = x
        rec.y[at] = y
        rec.theta[at] = th
        rec.u_vel[at] = u_vel
        rec.u_h[at] = u_h
        rec.u_spc[at] = u_spc
        rec.u_total[at] = u_tot
        rec.centroid[at] = true_centroid
        rec.ref_pos[at] = [ref[0] for ref in obs]
        rec.ref_vel[at] = [ref[1] for ref in obs]
        if targeted:
            rec.target_pos[at] = [p for p, _, _ in world]
            rec.target_vel[at] = [v for _, v, _ in world]
        if nets is not None:
            rec.net_sent[at] = [net.stats.sent for net in nets]
            rec.net_decisions[at] = [net.stats.pair_decisions for net in nets]
            rec.net_delivered[at] = [net.stats.delivered for net in nets]
            rec.net_dropped[at] = [net.stats.dropped for net in nets]
            rec.stale_count[at] = stale

        # Integrate dynamics, then references; network traffic moves at the
        # top of the next step.
        x, y, th = rk4_unicycle_arrays(x, y, th, speeds, u_tot, dt, k1=(vc, vs))
        if tracking:
            ref_pos = ref_pos + ref_vel * dt  # not in place: the step's references hold row views

        # A non-finite entry makes its sum non-finite; a finite sum that overflows
        # only sends the step to the exact per-case check.
        if not np.isfinite(x + y + th).all():
            finite = (np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
                      & np.isfinite(th).all(axis=1))
            for i in np.flatnonzero(~finite):
                log = _truncate_log(logs[live[i]], m + 1)
                log.aborted = f"non-finite state after step {m} (t={(m + 1) * dt:.6g} s)"
            live = [b for b, ok in zip(live, finite) if ok]
            if not live:
                break
            rows = np.array(live)
            cases = [configs[b] for b in live]
            nets = None if nets is None else [net for net, ok in zip(nets, finite) if ok]
            x, y, th, centroid0, ref_pos, ref_vel = (
                a[finite] for a in (x, y, th, centroid0, ref_pos, ref_vel))
            speeds, gains, u_max, amplitude, disturbed, seeds = _case_rows(cases)

    _derive_columns(rec, np.array([c.speeds for c in configs]), targeted)
    return logs


# Steps per block of `_derive_columns`; it bounds the temporaries to a few MB.
DERIVED_STEPS = 4096


def _derive_columns(rec, speeds, targeted: bool):
    """Fill the log columns that follow from the logged state: the centroid
    velocity, V and alpha_norm against the reference velocity, each agent's
    distance to the centroid and, with a target, beta_norm.

    They take the operations a step would, on every step and case at once, a
    block of DERIVED_STEPS steps at a time; the rows past a case's abort hold
    zeros and are never read.
    """
    n = speeds.shape[-1]
    for start in range(0, len(rec.t), DERIVED_STEPS):
        block = slice(start, start + DERIVED_STEPS)
        theta, centroid = rec.theta[block], rec.centroid[block]
        cvel = _pairs(np.add.reduce(speeds * np.cos(theta), 2) / n,
                      np.add.reduce(speeds * np.sin(theta), 2) / n)
        rec.centroid_vel[block] = cvel
        err = cvel - rec.ref_vel[block]
        rec.V[block] = 0.5 * (err[..., None, :] @ err[..., None])[..., 0, 0]
        rec.alpha_norm[block] = _hypot_rows(err)
        rec.dist_to_centroid[block] = np.hypot(rec.x[block] - centroid[..., :1],
                                               rec.y[block] - centroid[..., 1:])
        if targeted:
            rec.beta_norm[block] = _hypot_rows(centroid - rec.target_pos[block])


def _hypot_rows(pairs: np.ndarray) -> np.ndarray:
    """math.hypot of every (x, y) pair of an (..., 2) array, an array of shape (...).
    Two flat lists of floats, not a list of pairs, keep the Python objects few."""
    x, y = pairs[..., 0].ravel().tolist(), pairs[..., 1].ravel().tolist()
    return np.fromiter(map(math.hypot, x, y), float, len(x)).reshape(pairs.shape[:-1])


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a and b as the (x, y) pairs of one (*a.shape, 2) array: np.stack on the
    last axis, without its per-call overhead."""
    out = np.empty((*a.shape, 2))
    out[..., 0] = a
    out[..., 1] = b
    return out


def _agent_controls(net, case, t, positions, th, speeds, ref_pos, ref_vel, shared_ref, out) -> int:
    """One networked case's controls: each agent k computes all n control rows from
    its own view and keeps row k, written into the (u_vel, h, u_spc) rows of out.
    The agents share the observer reference shared_ref unless it is None: in
    tracking mode agent k generates its own in row k of ref_pos and ref_vel.
    Returns the stale entries the agents saw."""
    n = len(speeds)
    stale_seen = 0
    for k in range(1, n + 1):
        th_k, pos_k, stale_k = net.snapshot_for_agent(k, positions[k - 1], th[k - 1], t)
        stale_seen += int(stale_k.sum())
        ref_k = shared_ref
        if ref_k is None:
            tp, tv, t_stale = net.target_estimate(k, t)
            stale_seen += int(t_stale)
            # Broadcasts carry no acceleration, so agents take a_T = 0.
            ref_k = _sample_reference(k, ref_pos, ref_vel, tp.tolist(), tv.tolist(), _ZERO_ACC,
                                      (pos_k.sum(axis=0) / n).tolist(), case.reference_mode.weight)
        j = k - 1
        u_vel, h, u_spc = control_terms(speeds, th_k, pos_k, ref_k, case.gains)
        out[0][j], out[1][j], out[2][j] = u_vel[j], h[j], u_spc[j]
    return stale_seen


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
    x0, y0, th0, centroid0, _, (log,) = _start([config])
    th0, centroid0 = th0[0], centroid0[0]
    offx, offy = x0[0] - centroid0[0], y0[0] - centroid0[1]

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
