"""Target trajectory programs and reference-velocity generation.

The outer control loop steers the group centroid by publishing a reference
velocity: the target's own velocity plus a weighted pull toward the target
position. Feedforward terms for time-varying references need the reference's
turn rate and speed rate, taken from the closed-form derivative in
`reference_kinematics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import norm, vec2


# --------------------------------------------------------------------------
# Weight functions


@dataclass(frozen=True)
class ConstantWeight:
    """w(rho) = value, a fixed positive pull gain in 1/s."""

    value: float

    def __post_init__(self):
        if self.value <= 0.0:
            raise ValueError(f"constant weight must be positive, got {self.value}")

    def __call__(self, rho: float) -> float:
        return self.value

    def pull(self, rho: float):
        """(w(rho), d(rho*w)/drho): the weight and the slope of the position pull."""
        return self.value, self.value


@dataclass(frozen=True)
class DistanceDependentWeight:
    """w(rho) = (1/rho)(1 - e^{-scale*rho}), continuously extended by w(0) = scale.

    Strictly decreasing in rho and bounded above by `scale`, so the position
    pull w(rho)*rho = 1 - e^{-scale*rho} saturates at 1 m/s for far targets.
    """

    scale: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError(f"weight scale must be positive, got {self.scale}")

    def __call__(self, rho: float) -> float:
        if rho == 0.0:
            return self.scale
        return -math.expm1(-self.scale * rho) / rho

    def pull(self, rho: float):
        """(w(rho), d(rho*w)/drho) = (w(rho), scale * e^{-scale*rho}), one exponential."""
        if rho == 0.0:
            return self.scale, self.scale
        em1 = math.expm1(-self.scale * rho)
        return -em1 / rho, self.scale * (1.0 + em1)


# Either weight variant; they only need to be callable on rho >= 0.
WeightFunction = ConstantWeight | DistanceDependentWeight


# --------------------------------------------------------------------------
# Target programs


@dataclass(frozen=True)
class ConstantVelocityTarget:
    """Target moving in a straight line at fixed velocity."""

    initial_position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "initial_position", np.asarray(self.initial_position, float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, float))

    def state(self, t: float):
        return self.initial_position + t * self.velocity, self.velocity.copy()

    def acceleration(self, t: float) -> np.ndarray:
        return vec2(0.0, 0.0)

    def max_speed(self) -> float:
        return norm(self.velocity)


@dataclass(frozen=True)
class TurningTarget:
    """Target on a constant-rate turn: speed v, heading h0 + kappa*t.

    kappa = 0 degenerates to straight-line motion.
    """

    initial_position: np.ndarray
    speed: float
    kappa: float
    heading0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "initial_position", np.asarray(self.initial_position, float))
        if self.speed <= 0.0:
            raise ValueError(f"turning-target speed must be positive, got {self.speed}")

    def state(self, t: float):
        th = self.heading0 + self.kappa * t
        vel = vec2(self.speed * math.cos(th), self.speed * math.sin(th))
        if self.kappa == 0.0:
            pos = self.initial_position + t * vel
        else:
            r = self.speed / self.kappa
            pos = self.initial_position + vec2(
                r * (math.sin(th) - math.sin(self.heading0)),
                r * (math.cos(self.heading0) - math.cos(th)),
            )
        return pos, vel

    def acceleration(self, t: float) -> np.ndarray:
        th = self.heading0 + self.kappa * t
        a = self.kappa * self.speed
        return vec2(-a * math.sin(th), a * math.cos(th))

    def max_speed(self) -> float:
        return self.speed


@dataclass(frozen=True)
class WaypointTarget:
    """Piecewise-linear path at constant speed with an initial dwell.

    The target sits at the first waypoint for `dwell` seconds, then traverses
    the waypoint list at `speed`, changing velocity direction (but not speed)
    instantaneously at each waypoint. With closed=True the path loops back to
    the first waypoint indefinitely; otherwise the target stops at the last
    waypoint.
    """

    waypoints: tuple
    speed: float
    dwell: float = 0.0
    closed: bool = True

    def __post_init__(self):
        wps = tuple(np.asarray(w, dtype=float) for w in self.waypoints)
        if len(wps) == 0:
            raise ValueError("waypoint list must not be empty")
        for a, b in zip(wps, wps[1:]):
            if norm(b - a) == 0.0:
                raise ValueError("consecutive duplicate waypoints (zero-length segment)")
        object.__setattr__(self, "waypoints", wps)
        if self.speed <= 0.0:
            raise ValueError(f"waypoint-target speed must be positive, got {self.speed}")
        if self.dwell < 0.0:
            raise ValueError("dwell must be non-negative")

    def _segments(self):
        pts = list(self.waypoints)
        if self.closed and len(pts) > 1:
            pts.append(pts[0])
        return pts

    def state(self, t: float):
        first = self.waypoints[0]
        if t <= self.dwell or len(self.waypoints) == 1:
            return first.copy(), vec2(0.0, 0.0)
        pts = self._segments()
        lengths = [norm(b - a) for a, b in zip(pts, pts[1:])]
        total = sum(lengths)
        s = self.speed * (t - self.dwell)
        if self.closed:
            s = math.fmod(s, total)
        elif s >= total:
            return pts[-1].copy(), vec2(0.0, 0.0)
        for a, b, seg_len in zip(pts, pts[1:], lengths):
            if s < seg_len:
                direction = (b - a) / seg_len
                return a + s * direction, self.speed * direction
            s -= seg_len
        # Closed path with s landing exactly on total after fmod rounding.
        a, b = pts[0], pts[1]
        direction = (b - a) / lengths[0]
        return a.copy(), self.speed * direction

    def acceleration(self, t: float) -> np.ndarray:
        """Zero: the velocity is piecewise constant. Its jumps at the end of the
        dwell and at each corner are resets, not impulses."""
        return vec2(0.0, 0.0)

    def max_speed(self) -> float:
        return self.speed


TargetProgram = ConstantVelocityTarget | TurningTarget | WaypointTarget


def target_state(program: TargetProgram, t: float):
    """Closed-form (position, velocity) of a target program at time t >= 0."""
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    return program.state(t)


# --------------------------------------------------------------------------
# Reference signal


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference trajectory sample: position, polar velocity, and its rates.

    kappa_ref is the reference heading rate (rad/s) and a_ref the reference
    speed rate (m/s^2); both feed the feedforward solve. beacon_velocity is
    the velocity the reference point keeps once the group tracks it (the
    target's velocity in tracking mode); the beacon spacing term leads the
    reference point by the orbit lag this motion causes. None: no lead.
    """

    position: np.ndarray
    v_ref: float
    theta_ref: float
    kappa_ref: float = 0.0
    a_ref: float = 0.0
    beacon_velocity: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if self.beacon_velocity is not None:
            object.__setattr__(
                self, "beacon_velocity", np.asarray(self.beacon_velocity, dtype=float)
            )
        if self.v_ref < 0.0:
            raise ValueError("v_ref must be non-negative")

    @property
    def velocity(self) -> np.ndarray:
        return vec2(
            self.v_ref * math.cos(self.theta_ref), self.v_ref * math.sin(self.theta_ref)
        )


def polar_velocity(velocity):
    """(speed, heading) of a planar velocity; the heading is 0 at rest."""
    v = norm(velocity)
    if v == 0.0:
        return 0.0, 0.0
    return v, math.atan2(velocity[1], velocity[0])


def reference_velocity(target_pos, target_vel, centroid, w: WeightFunction) -> np.ndarray:
    """Reference velocity command: target velocity plus weighted position pull.

    Returns target_vel + w(rho) * (target_pos - centroid) with
    rho = ||target_pos - centroid||. At rho = 0 this is exactly the target
    velocity (the continuous extension of the weight keeps w finite).
    """
    velocity, _ = reference_kinematics(target_pos, target_vel, (0.0, 0.0), centroid, w)
    return np.array(velocity, dtype=float)


def reference_kinematics(target_pos, target_vel, target_acc, centroid, w: WeightFunction):
    """Reference velocity and its closed-form time derivative: (v_ref, vdot_ref).

    v_ref = v_T + w(rho) d with d = p_T - c, as in `reference_velocity`. Its
    derivative is taken along the reference itself (c_dot = v_ref, the motion
    the centroid is asked to follow), so d_dot = -w d and

        vdot_ref = a_T - w(rho) * d(rho*w)/drho * d.

    The measured centroid velocity never enters: feeding it back would add a
    -w*alpha path into the heading loop that the design does not have. Jumps in
    the inputs (target corners, fresh network packets) change v_ref but add no
    impulse to vdot_ref. rho and the weight's exponential are computed once.

    Inputs are planar 2-sequences; both outputs are (x, y) tuples of floats.
    """
    px, py = target_pos
    vx, vy = target_vel
    ax, ay = target_acc
    dx, dy = px - centroid[0], py - centroid[1]
    rho = math.hypot(dx, dy)
    if rho == 0.0:
        return (float(vx), float(vy)), (float(ax), float(ay))
    wr, slope = w.pull(rho)
    k = wr * slope
    return (vx + wr * dx, vy + wr * dy), (ax - k * dx, ay - k * dy)


def reference_rates(velocity, derivative):
    """(kappa_ref, a_ref): turn rate and speed rate of a velocity with the given
    time derivative. kappa = (v x vdot)/|v|^2, a = v.vdot/|v|; both are 0 at
    rest, where the heading is undefined."""
    vx, vy = velocity
    dvx, dvy = derivative
    v2 = vx * vx + vy * vy
    if v2 == 0.0:
        return 0.0, 0.0
    return (vx * dvy - vy * dvx) / v2, (vx * dvx + vy * dvy) / math.sqrt(v2)
