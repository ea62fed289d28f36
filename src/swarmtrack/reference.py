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

from .dynamics import finite_pair, norm, require_finite, vec2


# --------------------------------------------------------------------------
# Weight functions


@dataclass(frozen=True)
class ConstantWeight:
    """w(rho) = value, a fixed positive pull gain in 1/s."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value < math.inf:
            raise ValueError(f"constant weight must be positive and finite, got {self.value}")

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
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"weight scale must be positive and finite, got {self.scale}")

    def pull(self, rho: float):
        """(w(rho), d(rho*w)/drho) = (w(rho), scale * e^{-scale*rho}), one exponential."""
        if rho == 0.0:
            return self.scale, self.scale
        em1 = math.expm1(-self.scale * rho)
        return -em1 / rho, self.scale * (1.0 + em1)


# Either weight variant; `pull(rho)` on rho >= 0 is all that reads one.
WeightFunction = ConstantWeight | DistanceDependentWeight


# --------------------------------------------------------------------------
# Target programs


def arc_offset(speed: float, kappa: float, heading0: float, t: float):
    """(dx, dy) travelled in t seconds at `speed` on the heading heading0 + kappa*t.

    The arc r*(sin th - sin heading0, cos heading0 - cos th) with r = speed/kappa;
    the straight line speed*t*(cos heading0, sin heading0) when kappa is 0, r is
    not finite, or th == heading0 at t != 0 (kappa*t below half an ulp of
    heading0, where the arc cancels to 0 and the line is exact to rounding).
    """
    r = speed / kappa if kappa != 0.0 else math.inf
    th = heading0 + kappa * t
    if not math.isfinite(r) or (th == heading0 and t != 0.0):
        d = speed * t
        return d * math.cos(heading0), d * math.sin(heading0)
    return r * (math.sin(th) - math.sin(heading0)), r * (math.cos(heading0) - math.cos(th))


@dataclass(frozen=True)
class ConstantVelocityTarget:
    """Target moving in a straight line at fixed velocity."""

    initial_position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "initial_position",
                           finite_pair(self.initial_position, "target position"))
        object.__setattr__(self, "velocity", finite_pair(self.velocity, "target velocity"))

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
        object.__setattr__(self, "initial_position",
                           finite_pair(self.initial_position, "target position"))
        if not 0.0 < self.speed < math.inf:
            raise ValueError(f"turning-target speed must be positive and finite, got {self.speed}")
        require_finite(self, "kappa", "heading0")

    def state(self, t: float):
        th = self.heading0 + self.kappa * t
        vel = vec2(self.speed * math.cos(th), self.speed * math.sin(th))
        dx, dy = arc_offset(self.speed, self.kappa, self.heading0, t)
        return self.initial_position + vec2(dx, dy), vel

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
        wps = tuple(finite_pair(w, "waypoint") for w in self.waypoints)
        if len(wps) == 0:
            raise ValueError("waypoint list must not be empty")
        # The route: the waypoints, closed back to the first when closed=True,
        # with its segment lengths. Private attributes, not dataclass fields.
        route = list(wps) + [wps[0]] if self.closed and len(wps) > 1 else list(wps)
        lengths = [norm(b - a) for a, b in zip(route, route[1:])]
        if 0.0 in lengths[:len(wps) - 1]:
            raise ValueError("consecutive duplicate waypoints (zero-length segment)")
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "_route", route)
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_total", sum(lengths))
        if not 0.0 < self.speed < math.inf:
            raise ValueError(f"waypoint-target speed must be positive and finite, got {self.speed}")
        if not 0.0 <= self.dwell < math.inf:
            raise ValueError(f"dwell must be non-negative and finite, got {self.dwell}")

    def state(self, t: float):
        first = self.waypoints[0]
        if t <= self.dwell or len(self.waypoints) == 1:
            return first.copy(), vec2(0.0, 0.0)
        pts, lengths, total = self._route, self._lengths, self._total
        s = self.speed * (t - self.dwell)
        if self.closed:
            s = math.fmod(s, total)
        for a, b, seg_len in zip(pts, pts[1:], lengths):
            if s < seg_len:
                direction = (b - a) / seg_len
                return a + s * direction, self.speed * direction
            s -= seg_len
        # At or past the end, maybe an ulp early: an open route rests, a closed one starts over.
        if not self.closed:
            return pts[-1].copy(), vec2(0.0, 0.0)
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
# Reference velocity


def reference_signal(position, v_ref, theta_ref, kappa_ref=0.0, a_ref=0.0,
                     beacon_velocity=None):
    """The reference as the controller reads it: (position, velocity, rhs, beacon_velocity).

    Takes the polar form of the reference velocity, v_ref * e^{i theta_ref},
    its turn rate kappa_ref (rad/s) and its speed rate a_ref (m/s^2). velocity
    is the (x, y) pair of v_ref * e^{i theta_ref}. rhs is the right-hand side
    b of the feedforward system A h = b, the turn-rate part
    kappa_ref * i * velocity plus the speed-rate part a_ref * e^{i theta_ref};
    it is None when both rates are 0, so the controller skips the solve.
    position and beacon_velocity are passed through: beacon_velocity is the
    velocity the reference point keeps once the group tracks it (the target's
    velocity in tracking mode), along which the beacon spacing term leads the
    reference point. None: no lead.
    """
    c, s = math.cos(theta_ref), math.sin(theta_ref)
    rhs = None
    if kappa_ref != 0.0 or a_ref != 0.0:
        rhs = (-v_ref * s * kappa_ref + a_ref * c, v_ref * c * kappa_ref + a_ref * s)
    return position, (v_ref * c, v_ref * s), rhs, beacon_velocity


_ZERO_PAIR = (0.0, 0.0)


def stack_signals(signals):
    """The `reference_signal` tuples of B views as one batch for `control_terms`:
    (position, velocity, rhs, beacon_velocity, has_rhs).

    position and velocity are (B, 2) arrays, and has_rhs is the (B,) mask of
    the views that have an rhs. rhs is (B, 2), 0 in the rows of the other
    views, or None when no view has one. beacon_velocity is (B, 2), (0, 0)
    for a view without one, or None when no view has one.
    """
    has_rhs = np.array([sig[2] is not None for sig in signals])
    rhs = (np.array([_ZERO_PAIR if sig[2] is None else sig[2] for sig in signals])
           if has_rhs.any() else None)
    beacon = (np.array([_ZERO_PAIR if sig[3] is None else sig[3] for sig in signals])
              if any(sig[3] is not None for sig in signals) else None)
    return (np.array([sig[0] for sig in signals]), np.array([sig[1] for sig in signals]),
            rhs, beacon, has_rhs)


def polar_velocity(velocity):
    """(speed, heading) of a planar velocity, heading 0 at rest; every reference's polar form."""
    vx, vy = velocity
    v = math.hypot(vx, vy)
    if v == 0.0:
        return 0.0, 0.0
    return v, math.atan2(vy, vx)


def reference_kinematics(target_pos, target_vel, target_acc, centroid, w: WeightFunction):
    """Reference velocity and its closed-form time derivative: (v_ref, vdot_ref).

    v_ref = v_T + w(rho) d with d = p_T - c, rho = ||d|| (v_ref = v_T at rho = 0). Its
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
