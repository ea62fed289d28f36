"""Scenario file parsing.

The format is INI-like structured text: `[section]` headers, `key = value`
pairs, `#`/`;` comments, blank lines. The `[agents]` section repeats once per
agent; every other section appears at most once. Unknown sections and keys are
hard errors, and every diagnostic carries its line number — scenario files are
an interface, so silent tolerance of typos would be worse than strictness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controllers import ControllerGains, SpacingMode
from .engine import AgentInit, ConstantRef, ScenarioConfig, TargetTracking, TurningRef
from .netsim import NetworkConfig
from .reference import (
    ConstantVelocityTarget,
    ConstantWeight,
    DistanceDependentWeight,
    TurningTarget,
    WaypointTarget,
)


class ScenarioError(ValueError):
    """Parse or validation failure, annotated with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass
class _Entry:
    value: str
    line: int


class _Section:
    """One parsed section: keys with line info, plus consumption tracking."""

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.entries: dict[str, _Entry] = {}
        self.multi: dict[str, list[_Entry]] = {}
        self._used: set[str] = set()

    def add(self, key: str, value: str, line: int, repeatable: bool):
        if repeatable:
            self.multi.setdefault(key, []).append(_Entry(value, line))
            return
        if key in self.entries:
            raise ScenarioError(f"duplicate key '{key}' in [{self.name}]", line)
        self.entries[key] = _Entry(value, line)

    def get(self, key: str) -> _Entry | None:
        self._used.add(key)
        return self.entries.get(key)

    def get_multi(self, key: str) -> list[_Entry]:
        self._used.add(key)
        return self.multi.get(key, [])

    def require(self, key: str) -> _Entry:
        e = self.get(key)
        if e is None:
            raise ScenarioError(f"[{self.name}] is missing required key '{key}'", self.line)
        return e

    def check_no_unknown(self):
        for key, e in self.entries.items():
            if key not in self._used:
                raise ScenarioError(f"unknown key '{key}' in [{self.name}]", e.line)
        for key, entries in self.multi.items():
            if key not in self._used:
                raise ScenarioError(f"unknown key '{key}' in [{self.name}]", entries[0].line)


_KNOWN_SECTIONS = {"agents", "target", "controller", "reference", "network", "sim"}
_MULTI_KEYS = {("target", "waypoint")}


def _finite(raw: str, what: str, line: int, expected: str = "a number") -> float:
    """float(raw); nan and inf are refused like any other non-number."""
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{what}: expected {expected}, got '{raw}'", line) from None
    if not math.isfinite(value):
        raise ScenarioError(f"{what}: expected a finite number, got '{raw}'", line)
    return value


def _parse_float(e: _Entry, what: str) -> float:
    return _finite(e.value, what, e.line)


def _parse_int(e: _Entry, what: str) -> int:
    try:
        return int(e.value)
    except ValueError:
        raise ScenarioError(f"{what}: expected an integer, got '{e.value}'", e.line) from None


def _parse_bool(e: _Entry, what: str) -> bool:
    v = e.value.strip().lower()
    if v in ("true", "on", "yes", "1"):
        return True
    if v in ("false", "off", "no", "0"):
        return False
    raise ScenarioError(f"{what}: expected on/off, got '{e.value}'", e.line)


def _parse_pair(e: _Entry, what: str):
    parts = e.value.replace(",", " ").split()
    if len(parts) != 2:
        raise ScenarioError(f"{what}: expected two numbers, got '{e.value}'", e.line)
    return tuple(_finite(p, what, e.line, "two numbers") for p in parts)


def _tokenize(text: str):
    """Yield (kind, payload, line) for section headers and key-value pairs."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"malformed section header '{raw.strip()}'", lineno)
            yield "section", line[1:-1].strip().lower(), lineno
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got '{raw.strip()}'", lineno)
        key, _, value = line.partition("=")
        value = value.split("#", 1)[0].split(";", 1)[0].strip()
        yield "kv", (key.strip().lower(), value), lineno


def _collect_sections(text: str):
    agents: list[_Section] = []
    singles: dict[str, _Section] = {}
    current: _Section | None = None
    for kind, payload, lineno in _tokenize(text):
        if kind == "section":
            name = payload
            if name not in _KNOWN_SECTIONS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            current = _Section(name, lineno)
            if name == "agents":
                agents.append(current)
            elif name in singles:
                raise ScenarioError(f"duplicate section [{name}]", lineno)
            else:
                singles[name] = current
            continue
        key, value = payload
        if current is None:
            raise ScenarioError(f"key '{key}' appears before any section header", lineno)
        current.add(key, value, lineno, repeatable=(current.name, key) in _MULTI_KEYS)
    return agents, singles


def _build_agents(sections: list[_Section]):
    if not sections:
        raise ScenarioError("scenario defines no agents: at least one [agents] section required")
    agents = []
    speed_lines = []
    for i, sec in enumerate(sections, start=1):
        x = _parse_float(sec.require("x"), f"agent {i} x")
        y = _parse_float(sec.require("y"), f"agent {i} y")
        heading = _parse_float(sec.require("heading"), f"agent {i} heading")
        speed_entry = sec.require("speed")
        speed = _parse_float(speed_entry, f"agent {i} speed")
        if speed <= 0.0:
            raise ScenarioError(f"agent {i}: speed must be positive, got {speed}", speed_entry.line)
        sec.check_no_unknown()
        agents.append(AgentInit(position=(x, y), heading=heading, speed=speed))
        speed_lines.append(speed_entry.line)
    return agents, speed_lines


def _build_target(sec: _Section | None):
    if sec is None:
        return None
    program = sec.require("program").value.strip().lower()
    if program == "constant_velocity":
        x = _parse_float(sec.require("x"), "target x")
        y = _parse_float(sec.require("y"), "target y")
        vx = _parse_float(sec.require("vx"), "target vx")
        vy = _parse_float(sec.require("vy"), "target vy")
        cls, kwargs = ConstantVelocityTarget, dict(initial_position=(x, y), velocity=(vx, vy))
    elif program == "turning":
        x = _parse_float(sec.require("x"), "target x")
        y = _parse_float(sec.require("y"), "target y")
        speed = _parse_float(sec.require("speed"), "target speed")
        kappa = _parse_float(sec.require("kappa"), "target kappa")
        h = sec.get("heading")
        heading0 = _parse_float(h, "target heading") if h else 0.0
        cls = TurningTarget
        kwargs = dict(initial_position=(x, y), speed=speed, kappa=kappa, heading0=heading0)
    elif program == "waypoints":
        speed = _parse_float(sec.require("speed"), "target speed")
        d = sec.get("dwell")
        dwell = _parse_float(d, "target dwell") if d else 0.0
        c = sec.get("closed")
        closed = _parse_bool(c, "target closed") if c else True
        wp_entries = sec.get_multi("waypoint")
        if not wp_entries:
            raise ScenarioError("waypoints program needs at least one 'waypoint = x y'", sec.line)
        waypoints = [_parse_pair(e, "waypoint") for e in wp_entries]
        cls = WaypointTarget
        kwargs = dict(waypoints=waypoints, speed=speed, dwell=dwell, closed=closed)
    else:
        raise ScenarioError(
            f"unknown target program '{program}' (constant_velocity | turning | waypoints)",
            sec.require("program").line,
        )
    sec.check_no_unknown()
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc), sec.line) from None


def _build_weight(entry: _Entry):
    parts = entry.value.split()
    if len(parts) != 2:
        raise ScenarioError(
            "weight: expected 'constant W' or 'distance_dependent SCALE'", entry.line
        )
    kind, raw = parts[0].lower(), parts[1]
    value = _finite(raw, "weight", entry.line)
    try:
        if kind == "constant":
            return ConstantWeight(value)
        if kind == "distance_dependent":
            return DistanceDependentWeight(value)
    except ValueError as exc:
        raise ScenarioError(str(exc), entry.line) from None
    raise ScenarioError(f"unknown weight variant '{kind}'", entry.line)


def _build_controller(sec: _Section | None):
    if sec is None:
        raise ScenarioError("missing [controller] section")
    gamma = _parse_float(sec.require("gamma"), "gamma")
    o = sec.get("omega0")
    omega0 = _parse_float(o, "omega0") if o else 0.25
    s = sec.get("spacing")
    spacing = SpacingMode.OFF
    if s:
        try:
            spacing = SpacingMode(s.value.strip().lower())
        except ValueError:
            raise ScenarioError(
                f"spacing: expected off | beacon | beacon_projected, got '{s.value}'", s.line
            ) from None
    u = sec.get("u_max")
    u_max = _parse_float(u, "u_max") if u else None
    ff = sec.get("feedforward")
    feedforward = _parse_bool(ff, "feedforward") if ff else True
    sec.check_no_unknown()
    try:
        return ControllerGains(
            gamma=gamma, omega0=omega0, spacing_mode=spacing, u_max=u_max, feedforward=feedforward
        )
    except ValueError as exc:
        raise ScenarioError(str(exc), sec.line) from None


def _build_reference(sec: _Section | None):
    if sec is None:
        raise ScenarioError("missing [reference] section")
    mode = sec.require("mode").value.strip().lower()
    weight = None
    if mode == "constant":
        vx = _parse_float(sec.require("vx"), "reference vx")
        vy = _parse_float(sec.require("vy"), "reference vy")
        ref = ConstantRef(velocity=(vx, vy))
    elif mode == "turning":
        speed = _parse_float(sec.require("speed"), "reference speed")
        kappa = _parse_float(sec.require("kappa"), "reference kappa")
        h = sec.get("heading")
        heading0 = _parse_float(h, "reference heading") if h else 0.0
        try:
            ref = TurningRef(speed=speed, kappa=kappa, heading0=heading0)
        except ValueError as exc:
            raise ScenarioError(str(exc), sec.line) from None
    elif mode == "target_tracking":
        ref = TargetTracking()
        weight = _build_weight(sec.require("weight"))
    else:
        raise ScenarioError(
            f"unknown reference mode '{mode}' (constant | turning | target_tracking)",
            sec.require("mode").line,
        )
    sec.check_no_unknown()
    return ref, weight


def _build_network(sec: _Section | None):
    if sec is None:
        return None
    mode = sec.require("mode").value.strip().lower()
    if mode not in ("ground_truth", "broadcast"):
        raise ScenarioError(
            f"unknown network mode '{mode}' (ground_truth | broadcast)", sec.require("mode").line
        )
    # Both modes take the broadcast keys, so a sweep can switch the mode alone.
    def fget(key, default):
        e = sec.get(key)
        return _parse_float(e, key) if e else default
    agent_rate = fget("agent_rate", 10.0)
    target_rate = fget("target_rate", 5.0)
    loss = fget("loss", 0.0)
    delay = fget("delay", 0.0)
    jitter = fget("jitter", 0.0)
    e = sec.get("extrapolate")
    extrapolate = _parse_bool(e, "extrapolate") if e else False
    sb = sec.get("staleness_budget")
    staleness = _parse_float(sb, "staleness_budget") if sb else None
    sec.check_no_unknown()
    try:
        config = NetworkConfig(
            agent_rate=agent_rate,
            target_rate=target_rate,
            loss_probability=loss,
            delay=delay,
            jitter=jitter,
            extrapolate=extrapolate,
            staleness_budget=staleness,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc), sec.line) from None
    return config if mode == "broadcast" else None


def parse_scenario_text(text: str, seed_override: int | None = None,
                        allow_infeasible: bool = False) -> ScenarioConfig:
    """Parse scenario text into a validated ScenarioConfig.

    Raises ScenarioError with a line number on malformed input, and on
    infeasible speed configurations unless allow_infeasible (or the scenario's
    own allow_infeasible flag) is set.
    """
    agent_secs, singles = _collect_sections(text)
    agents, speed_lines = _build_agents(agent_secs)

    sim = singles.get("sim")
    if sim is None:
        raise ScenarioError("missing [sim] section")
    duration_entry = sim.require("duration")
    duration = _parse_float(duration_entry, "duration")
    e = sim.get("dt")
    dt = _parse_float(e, "dt") if e else 0.01
    if dt > 0.0 and round(duration / dt) < 1:
        raise ScenarioError(
            f"duration {duration} s gives no steps of dt = {dt} s "
            "(it must exceed half a step)",
            duration_entry.line,
        )
    e = sim.get("seed")
    seed = _parse_int(e, "seed") if e else 0
    e = sim.get("disturbance")
    disturbance = _parse_float(e, "disturbance") if e else 0.0
    e = sim.get("allow_infeasible")
    allow = (_parse_bool(e, "allow_infeasible") if e else False) or allow_infeasible
    sim.check_no_unknown()
    if seed_override is not None:
        seed = seed_override

    gains = _build_controller(singles.get("controller"))
    ref_mode, weight = _build_reference(singles.get("reference"))
    target = _build_target(singles.get("target"))
    if isinstance(ref_mode, TargetTracking) and target is None:
        raise ScenarioError(
            "reference mode target_tracking requires a [target] section",
            singles["reference"].line,
        )
    network = _build_network(singles.get("network"))

    try:
        config = ScenarioConfig(
            agents=tuple(agents),
            gains=gains,
            reference_mode=ref_mode,
            duration=duration,
            target=target,
            weight=weight,
            network=network,
            dt=dt,
            seed=seed,
            disturbance=disturbance,
            allow_infeasible=allow,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    report = config.feasibility()
    if not report.feasible and not allow:
        speeds = config.speeds
        if not report.condition1_ok:
            line = speed_lines[int(np.argmin(speeds))]
            raise ScenarioError(
                f"infeasible: slowest agent speed {report.v_min} is below the reference "
                f"speed bound {report.ref_speed_bound} (set allow_infeasible to run anyway)",
                line,
            )
        line = speed_lines[int(np.argmax(speeds))]
        raise ScenarioError(
            f"infeasible: fastest agent speed {report.v_max} exceeds the sum of the "
            f"other speeds {report.sum_others} (set allow_infeasible to run anyway)",
            line,
        )
    return config

