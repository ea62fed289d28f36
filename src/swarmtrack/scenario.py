"""Scenario file parsing, and overrides of one key in scenario text.

The format is INI-like structured text: `[section]` headers, `key = value`
pairs, blank lines, and `#`/`;` comments that may end any line, headers too.
The `[agents]` section repeats once per agent; every other section appears at
most once. Unknown sections and keys are hard errors, and every diagnostic
carries its line number — scenario files are an interface, so silent
tolerance of typos would be worse than strictness.

Each section (and each `[target]` program and `[reference]` mode) is read
through one table that maps a file key to `(constructor keyword, parser,
required)`; a key the file leaves out is left out of the constructor call, so
each default lives only on its dataclass.
"""

from __future__ import annotations

import math

from .controllers import ControllerGains, SpacingMode
from .engine import (AgentInit, ConstantRef, InfeasibleScenario, ScenarioConfig, TargetTracking,
                     TurningRef, step_count)
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


# The keys a section may set more than once, each with the form of one value
# (for the message when none is set); every other key appears at most once.
REPEATABLE_KEYS = {("target", "waypoint"): "x y"}


class _Section:
    """One parsed section: each key's (value, line) entries in file order."""

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.entries: dict[str, list[tuple[str, int]]] = {}

    def add(self, key: str, value: str, line: int):
        entries = self.entries.setdefault(key, [])
        if entries and (self.name, key) not in REPEATABLE_KEYS:
            raise ScenarioError(f"duplicate key '{key}' in [{self.name}]", line)
        entries.append((value, line))

    def line_of(self, key: str) -> int:
        return self.entries[key][0][1]


# --------------------------------------------------------------------------
# Value parsers: parse(raw, what, line), where `what` names the value in
# messages.


def _finite(raw: str, what: str, line: int, expected: str = "a number") -> float:
    """float(raw); nan and inf are refused like any other non-number."""
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{what}: expected {expected}, got '{raw}'", line) from None
    if not math.isfinite(value):
        raise ScenarioError(f"{what}: expected a finite number, got '{raw}'", line)
    return value


def _int(raw: str, what: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{what}: expected an integer, got '{raw}'", line) from None


def _bool(raw: str, what: str, line: int) -> bool:
    v = raw.strip().lower()
    if v in ("true", "on", "yes", "1"):
        return True
    if v in ("false", "off", "no", "0"):
        return False
    raise ScenarioError(f"{what}: expected on/off, got '{raw}'", line)


def _pair(raw: str, what: str, line: int):
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        raise ScenarioError(f"{what}: expected two numbers, got '{raw}'", line)
    return tuple(_finite(p, what, line, "two numbers") for p in parts)


def _spacing(raw: str, what: str, line: int) -> SpacingMode:
    try:
        return SpacingMode(raw.strip().lower())
    except ValueError:
        raise ScenarioError(
            f"{what}: expected off | beacon | beacon_projected, got '{raw}'", line
        ) from None


_WEIGHTS = {"constant": ConstantWeight, "distance_dependent": DistanceDependentWeight}


def _weight(raw: str, what: str, line: int):
    parts = raw.split()
    if len(parts) != 2:
        raise ScenarioError(f"{what}: expected 'constant W' or 'distance_dependent SCALE'", line)
    kind = parts[0].lower()
    value = _finite(parts[1], what, line)
    if kind not in _WEIGHTS:
        raise ScenarioError(f"unknown weight variant '{kind}'", line)
    try:
        return _WEIGHTS[kind](value)
    except ValueError as exc:
        raise ScenarioError(str(exc), line) from None


# --------------------------------------------------------------------------
# Key tables: file key -> (constructor keyword, parser, required). Two keys
# that share a keyword (x and y) give it the pair of their values.

_AGENT_KEYS = {
    "x": ("position", _finite, True),
    "y": ("position", _finite, True),
    "heading": ("heading", _finite, True),
    "speed": ("speed", _finite, True),
}
_TARGETS = {
    "constant_velocity": (ConstantVelocityTarget, {
        "x": ("initial_position", _finite, True),
        "y": ("initial_position", _finite, True),
        "vx": ("velocity", _finite, True),
        "vy": ("velocity", _finite, True),
    }),
    "turning": (TurningTarget, {
        "x": ("initial_position", _finite, True),
        "y": ("initial_position", _finite, True),
        "speed": ("speed", _finite, True),
        "kappa": ("kappa", _finite, True),
        "heading": ("heading0", _finite, False),
    }),
    "waypoints": (WaypointTarget, {
        "speed": ("speed", _finite, True),
        "dwell": ("dwell", _finite, False),
        "closed": ("closed", _bool, False),
        "waypoint": ("waypoints", _pair, True),
    }),
}
_CONTROLLER_KEYS = {
    "gamma": ("gamma", _finite, True),
    "omega0": ("omega0", _finite, False),
    "spacing": ("spacing_mode", _spacing, False),
    "u_max": ("u_max", _finite, False),
    "feedforward": ("feedforward", _bool, False),
}
_REFERENCES = {
    "constant": (ConstantRef, {
        "vx": ("velocity", _finite, True),
        "vy": ("velocity", _finite, True),
    }),
    "turning": (TurningRef, {
        "speed": ("speed", _finite, True),
        "kappa": ("kappa", _finite, True),
        "heading": ("heading0", _finite, False),
    }),
    "target_tracking": (TargetTracking, {
        "weight": ("weight", _weight, True),
    }),
}
# Both network modes take the broadcast keys, so a sweep can switch the mode
# alone; the keys are validated in either mode.
_NETWORK_MODES = {"ground_truth": False, "broadcast": True}
_NETWORK_KEYS = {
    "agent_rate": ("agent_rate", _finite, False),
    "target_rate": ("target_rate", _finite, False),
    "loss": ("loss_probability", _finite, False),
    "delay": ("delay", _finite, False),
    "jitter": ("jitter", _finite, False),
    "extrapolate": ("extrapolate", _bool, False),
    "staleness_budget": ("staleness_budget", _finite, False),
}
_SIM_KEYS = {
    "duration": ("duration", _finite, True),
    "dt": ("dt", _finite, False),
    "seed": ("seed", _int, False),
    "disturbance": ("disturbance", _finite, False),
    "allow_infeasible": ("allow_infeasible", _bool, False),
}
# Every key a section may set, in any variant, with the variant's selector.
_SECTION_KEYS = {
    "agents": set(_AGENT_KEYS),
    "target": {"program"}.union(*(table for _, table in _TARGETS.values())),
    "controller": set(_CONTROLLER_KEYS),
    "reference": {"mode"}.union(*(table for _, table in _REFERENCES.values())),
    "network": {"mode", *_NETWORK_KEYS},
    "sim": set(_SIM_KEYS),
}


def _values(sec: _Section, table: dict, prefix: str = "") -> dict:
    """Constructor keywords for the keys a section sets, read through table.

    A parser's messages name the value `prefix + key`. A key outside the table
    is reported at its own line, a missing required key at the section's.
    """
    unknown = sec.entries.keys() - table.keys()
    if unknown:
        key = min(unknown, key=sec.line_of)
        raise ScenarioError(f"unknown key '{key}' in [{sec.name}]", sec.line_of(key))
    kwargs = {}
    for key, (name, parse, required) in table.items():
        form = REPEATABLE_KEYS.get((sec.name, key))
        entries = sec.entries.get(key)
        if entries is None:
            if required:
                message = (f"needs at least one '{key} = {form}'" if form
                           else f"is missing required key '{key}'")
                raise ScenarioError(f"[{sec.name}] {message}", sec.line)
            continue
        values = [parse(value, prefix + key, line) for value, line in entries]
        value = values if form else values[0]
        kwargs[name] = (kwargs[name], value) if name in kwargs else value
    return kwargs


def _choice(sec: _Section, key: str, variants: dict, what: str):
    """Take the section's `key` out of it and return the variant it names."""
    if key not in sec.entries:
        raise ScenarioError(f"[{sec.name}] is missing required key '{key}'", sec.line)
    ((raw, line),) = sec.entries.pop(key)
    name = raw.strip().lower()
    if name not in variants:
        raise ScenarioError(f"unknown {what} '{name}' ({' | '.join(variants)})", line)
    return variants[name]


def _build(cls, sec: _Section, kwargs: dict):
    """cls(**kwargs), with a ValueError reported at the section's line."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc), sec.line) from None


def _tokenize(text: str):
    """Yield (kind, payload, line) for section headers and key-value pairs."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()  # a comment may end any line
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"malformed section header '{line}'", lineno)
            yield "section", line[1:-1].strip().lower(), lineno
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got '{line}'", lineno)
        key, _, value = line.partition("=")
        yield "kv", (key.strip().lower(), value.strip()), lineno


def _collect_sections(text: str):
    agents: list[_Section] = []
    singles: dict[str, _Section] = {}
    current: _Section | None = None
    for kind, payload, lineno in _tokenize(text):
        if kind == "section":
            name = payload
            if name not in _SECTION_KEYS:
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
        current.add(key, value, lineno)
    return agents, singles


def _required_section(singles: dict, name: str) -> _Section:
    if name not in singles:
        raise ScenarioError(f"missing [{name}] section")
    return singles[name]


def override_scenario_text(text: str, section: str, key: str, value: str) -> str:
    """Return text with `key = value` set in its one [section].

    Replaces the key's line, or adds one after the section's last entry.
    Raises ScenarioError for what one value cannot set: a missing section, the
    repeated [agents] section, a repeatable key, or a key no variant of the
    section knows.
    """
    section, key = section.lower(), key.lower()
    if section == "agents":
        raise ScenarioError("sweeping [agents] keys is not supported (sections repeat per agent)")
    if (section, key) in REPEATABLE_KEYS:
        raise ScenarioError(
            f"sweeping the repeatable key {section}.{key} is not supported "
            f"(every '{key}' line would get the same value)"
        )
    sec = _collect_sections(text)[1].get(section)
    if sec is None:
        raise ScenarioError(f"cannot set {section}.{key}: missing section [{section}]")
    if key not in _SECTION_KEYS[section]:
        raise ScenarioError(f"unknown key '{key}' in [{section}]")
    lines = text.splitlines()
    if key in sec.entries:
        lines[sec.line_of(key) - 1] = f"{key} = {value}"
    else:
        last = max((line for entries in sec.entries.values() for _, line in entries),
                   default=sec.line)
        lines.insert(last, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_scenario_text(text: str, seed_override: int | None = None) -> ScenarioConfig:
    """Parse scenario text into a validated ScenarioConfig.

    Raises ScenarioError with a line number on malformed input, and on
    infeasible speed configurations unless [sim] allow_infeasible is set.
    """
    agent_secs, singles = _collect_sections(text)
    if not agent_secs:
        raise ScenarioError("scenario defines no agents: at least one [agents] section required")
    agents = []
    for i, sec in enumerate(agent_secs, start=1):
        kwargs = _values(sec, _AGENT_KEYS, f"agent {i} ")
        if kwargs["speed"] <= 0.0:
            raise ScenarioError(f"agent {i}: speed must be positive, got {kwargs['speed']}",
                                sec.line_of("speed"))
        agents.append(_build(AgentInit, sec, kwargs))

    sim = _required_section(singles, "sim")
    options = _values(sim, _SIM_KEYS)
    # The step count is checked here, so that its error names the duration line.
    dt = options.get("dt", ScenarioConfig.dt)
    if dt > 0.0:
        try:
            step_count(options["duration"], dt)
        except ValueError as exc:
            raise ScenarioError(str(exc), sim.line_of("duration")) from None
    if seed_override is not None:
        options["seed"] = seed_override

    sec = _required_section(singles, "controller")
    gains = _build(ControllerGains, sec, _values(sec, _CONTROLLER_KEYS))

    sec = _required_section(singles, "reference")
    cls, table = _choice(sec, "mode", _REFERENCES, "reference mode")
    ref_mode = _build(cls, sec, _values(sec, table, "reference "))

    target = None
    sec = singles.get("target")
    if sec is not None:
        cls, table = _choice(sec, "program", _TARGETS, "target program")
        target = _build(cls, sec, _values(sec, table, "target "))
    elif isinstance(ref_mode, TargetTracking):
        raise ScenarioError(
            "reference mode target_tracking requires a [target] section",
            singles["reference"].line,
        )

    network = None
    sec = singles.get("network")
    if sec is not None:
        broadcast = _choice(sec, "mode", _NETWORK_MODES, "network mode")
        settings = _build(NetworkConfig, sec, _values(sec, _NETWORK_KEYS))
        network = settings if broadcast else None

    try:
        return _build(ScenarioConfig, sim, dict(
            agents=agents, gains=gains, reference_mode=ref_mode, target=target,
            network=network, **options,
        ))
    except InfeasibleScenario as exc:
        # at the speed line of the slowest agent (condition 1) or the fastest (condition 2)
        speed = exc.report.v_max if exc.report.condition1_ok else exc.report.v_min
        sec = next(sec for sec, agent in zip(agent_secs, agents) if agent.speed == speed)
        raise ScenarioError(str(exc), sec.line_of("speed")) from None
