"""Scenario file parsing: happy paths, the bundled replay file, and the
line-numbered diagnostics. Parse errors are an interface, so the tests pin
messages and line numbers, not just the exception type.
"""

import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest

from swarmtrack import cli, scenario
from swarmtrack.controllers import ControllerGains, SpacingMode
from swarmtrack.engine import (
    AgentInit,
    ConstantRef,
    ScenarioConfig,
    TargetTracking,
    TurningRef,
    run,
)
from swarmtrack.netsim import NetworkConfig
from swarmtrack.reference import (
    ConstantVelocityTarget,
    ConstantWeight,
    DistanceDependentWeight,
    TurningTarget,
    WaypointTarget,
)
from swarmtrack.scenario import ScenarioError, parse_scenario_text


def lineof(text, fragment):
    """1-based line number of the first line containing `fragment`."""
    for i, line in enumerate(text.splitlines(), start=1):
        if fragment in line:
            return i
    raise AssertionError(f"fragment {fragment!r} not found")


MINIMAL = """\
[agents]
x = 0
y = 0
heading = 0.1
speed = 10

[agents]
x = 5
y = 0
heading = 1.0
speed = 12

[agents]
x = 0
y = 5
heading = -1.0
speed = 16

[controller]
gamma = 0.1

[reference]
mode = constant
vx = 2
vy = 0

[sim]
duration = 5
dt = 0.05
seed = 11
"""


TRACKING = """\
[agents]
x = 0
y = 0
heading = 0.1
speed = 10

[agents]
x = 5
y = 0
heading = 1.0
speed = 12

[agents]
x = 0
y = 5
heading = -1.0
speed = 16

[target]
program = waypoints
speed = 2.0
dwell = 10.0
closed = on
waypoint = 0 0
waypoint = 100, 0

[controller]
gamma = 0.01
spacing = beacon_projected
u_max = 2.0
feedforward = off

[reference]
mode = target_tracking
weight = constant 0.5

[network]
mode = broadcast
loss = 0.1
delay = 0.05
jitter = 0.01
extrapolate = on
staleness_budget = 0.5

[sim]
duration = 20
dt = 0.02
seed = 4
disturbance = 0.01
allow_infeasible = off
"""


# --------------------------------------------------------------------------
# happy paths


def test_minimal_scenario_parses():
    config = parse_scenario_text(MINIMAL)
    assert config.n == 3
    assert tuple(config.speeds) == (10.0, 12.0, 16.0)
    assert tuple(config.agents[1].position) == (5.0, 0.0)
    assert config.agents[2].heading == -1.0
    assert config.gains.gamma == 0.1
    assert config.gains.omega0 == 0.25  # default
    assert config.gains.spacing_mode is SpacingMode.OFF
    assert config.gains.u_max is None
    assert config.gains.feedforward is True
    assert isinstance(config.reference_mode, ConstantRef)
    assert tuple(config.reference_mode.velocity) == (2.0, 0.0)
    assert config.target is None
    assert config.network is None
    assert (config.duration, config.dt, config.seed) == (5.0, 0.05, 11)
    assert config.disturbance == 0.0
    assert config.feasibility().feasible


def test_tracking_scenario_parses():
    config = parse_scenario_text(TRACKING)
    assert isinstance(config.reference_mode, TargetTracking)
    weight = config.reference_mode.weight
    assert isinstance(weight, ConstantWeight) and weight.value == 0.5
    t = config.target
    assert isinstance(t, WaypointTarget)
    assert t.speed == 2.0 and t.dwell == 10.0 and t.closed is True
    assert len(t.waypoints) == 2
    assert tuple(t.waypoints[1]) == (100.0, 0.0)  # comma-separated pair form
    g = config.gains
    assert g.spacing_mode is SpacingMode.BEACON_PROJECTED
    assert g.u_max == 2.0 and g.feedforward is False
    net = config.network
    assert net is not None
    assert (net.agent_rate, net.target_rate) == (10.0, 5.0)  # defaults kept
    assert (net.loss_probability, net.delay, net.jitter) == (0.1, 0.05, 0.01)
    assert net.extrapolate is True and net.staleness_budget == 0.5
    assert config.seed == 4  # the run seed keys the network's draws
    assert config.disturbance == 0.01


def test_bundled_replay_scenario():
    text = (resources.files("swarmtrack.scenarios") / "experiment_replay.ini").read_text(
        encoding="utf-8"
    )
    config = parse_scenario_text(text)
    assert tuple(config.speeds) == (10.0, 12.0, 16.0)
    assert tuple(config.agents[0].position) == (-150.0, 0.0)
    assert config.agents[0].heading == math.pi
    assert config.gains.gamma == 0.001
    assert config.gains.omega0 == 0.25
    assert config.gains.spacing_mode is SpacingMode.BEACON
    assert isinstance(config.reference_mode, TargetTracking)
    assert isinstance(config.reference_mode.weight, DistanceDependentWeight)
    assert config.reference_mode.weight.scale == 0.1
    t = config.target
    assert isinstance(t, WaypointTarget)
    assert t.speed == 2.0 and t.dwell == 300.0 and t.closed
    assert [tuple(w) for w in t.waypoints] == [(0, 0), (200, 0), (200, 200), (0, 200)]
    net = config.network
    assert (net.agent_rate, net.target_rate, net.loss_probability) == (10.0, 5.0, 0.05)
    assert (config.dt, config.duration, config.seed) == (0.02, 900.0, 7)
    assert config.feasibility().feasible


def test_parse_scenario_reads_file(tmp_path):
    # the CLI reads scenario files itself, so that it can report OSError
    path = tmp_path / "case.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    config = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert config["speeds"] == [10.0, 12.0, 16.0]
    assert config["seed"] == 11


def test_seed_override_wins_and_reaches_network():
    assert parse_scenario_text(MINIMAL, seed_override=99).seed == 99
    # without disturbance the seed keys only the broadcast draws
    text = TRACKING.replace("duration = 20", "duration = 2").replace(
        "disturbance = 0.01", "disturbance = 0"
    )
    overridden = run(parse_scenario_text(text, seed_override=99))
    written = run(parse_scenario_text(text.replace("seed = 4", "seed = 99")))
    own = run(parse_scenario_text(text))
    assert overridden.seed == 99
    for name in ("x", "y", "theta", "net_delivered", "net_dropped"):
        assert np.array_equal(getattr(overridden, name), getattr(written, name)), name
    assert not np.array_equal(overridden.net_dropped, own.net_dropped)


def test_comments_blank_lines_and_inline_comments():
    text = MINIMAL.replace("gamma = 0.1", "gamma = 0.1  # tuned by hand")
    text = text.replace("[sim]", "; full-line comment\n\n[sim]")
    text = text.replace("dt = 0.05", "dt = 0.05 ; ZOH step")
    config = parse_scenario_text(text)
    assert config.gains.gamma == 0.1
    assert config.dt == 0.05


def test_turning_reference_and_constant_velocity_target():
    text = MINIMAL.replace(
        "mode = constant\nvx = 2\nvy = 0",
        "mode = turning\nspeed = 3\nkappa = 0.05\nheading = 1.0",
    )
    text += "\n[target]\nprogram = constant_velocity\nx = 7\ny = -1\nvx = 0.5\nvy = 0\n"
    config = parse_scenario_text(text)
    ref = config.reference_mode
    assert isinstance(ref, TurningRef)
    assert (ref.speed, ref.kappa, ref.heading0) == (3.0, 0.05, 1.0)
    t = config.target
    assert isinstance(t, ConstantVelocityTarget)
    assert tuple(t.initial_position) == (7.0, -1.0)
    assert tuple(t.velocity) == (0.5, 0.0)


def test_turning_target_parses():
    text = MINIMAL + "\n[target]\nprogram = turning\nx = 1\ny = 2\nspeed = 0.5\nkappa = -0.1\n"
    t = parse_scenario_text(text).target
    assert isinstance(t, TurningTarget)
    assert (t.speed, t.kappa, t.heading0) == (0.5, -0.1, 0.0)


def test_ground_truth_network_mode_gives_no_network():
    text = MINIMAL + "\n[network]\nmode = ground_truth\n"
    assert parse_scenario_text(text).network is None


# --------------------------------------------------------------------------
# diagnostics: every error names its line


def expect_error(text, fragment_with_line, message_part, **kwargs):
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario_text(text, **kwargs)
    err = exc_info.value
    assert message_part in str(err)
    expected = lineof(text, fragment_with_line)
    assert err.line == expected
    assert str(err).startswith(f"line {expected}: ")


def test_unknown_section():
    text = MINIMAL + "\n[mystery]\nfoo = 1\n"
    expect_error(text, "[mystery]", "unknown section [mystery]")


def test_malformed_section_header():
    text = MINIMAL.replace("[sim]", "[sim")
    expect_error(text, "[sim", "malformed section header '[sim'")
    text = MINIMAL.replace("[sim]", "[sim  # run length")
    expect_error(text, "[sim", "malformed section header '[sim'")


def test_key_before_any_section():
    text = "pi = 3\n" + MINIMAL
    expect_error(text, "pi = 3", "key 'pi' appears before any section header")


def test_line_without_equals_sign():
    text = MINIMAL.replace("vx = 2", "vx 2")
    expect_error(text, "vx 2", "expected 'key = value', got 'vx 2'")


def test_unknown_key():
    text = MINIMAL.replace("gamma = 0.1", "gamma = 0.1\ncolour = red")
    expect_error(text, "colour = red", "unknown key 'colour' in [controller]")


def test_unknown_agent_key():
    text = MINIMAL.replace("speed = 12", "speed = 12\nmass = 4")
    expect_error(text, "mass = 4", "unknown key 'mass' in [agents]")


def test_duplicate_key():
    text = MINIMAL.replace("gamma = 0.1", "gamma = 0.1\ngamma = 0.2")
    expect_error(text, "gamma = 0.2", "duplicate key 'gamma' in [controller]")


def test_duplicate_section():
    text = MINIMAL + "\n[sim] \nduration = 2\n"
    expect_error(text, "[sim] ", "duplicate section [sim]")


def test_missing_required_key_points_at_section():
    text = MINIMAL.replace("duration = 5\n", "")
    expect_error(text, "[sim]", "[sim] is missing required key 'duration'")
    # the keys that select a section's variant
    text = MINIMAL.replace("mode = constant\n", "")
    expect_error(text, "[reference]", "[reference] is missing required key 'mode'")
    text = TRACKING.replace("program = waypoints\n", "")
    expect_error(text, "[target]", "[target] is missing required key 'program'")
    text = TRACKING.replace("mode = broadcast\n", "")
    expect_error(text, "[network]", "[network] is missing required key 'mode'")


@pytest.mark.parametrize("header", ["[controller]", "[reference]", "[sim]"])
def test_missing_section(header):
    start = lineof(MINIMAL, header)
    lines = MINIMAL.splitlines()
    end = start
    while end < len(lines) and not lines[end].startswith("["):
        end += 1
    text = "\n".join(lines[: start - 1] + lines[end:]) + "\n"
    with pytest.raises(ScenarioError, match=rf"missing \{header[:-1]}\] section"):
        parse_scenario_text(text)


def test_bad_float():
    text = MINIMAL.replace("gamma = 0.1", "gamma = fast")
    expect_error(text, "gamma = fast", "gamma: expected a number, got 'fast'")


@pytest.mark.parametrize("old, new", [
    ("gamma = 0.01", "gamma = nan"),
    ("dt = 0.02", "dt = inf"),
    ("duration = 20", "duration = -inf"),
    ("loss = 0.1", "loss = NaN"),
    ("delay = 0.05", "delay = nan"),
    ("mode = broadcast", "mode = broadcast\nagent_rate = nan"),
    ("mode = broadcast", "mode = broadcast\nagent_rate = inf"),
    ("staleness_budget = 0.5", "staleness_budget = inf"),
])
def test_non_finite_numbers_rejected(old, new):
    text = TRACKING.replace(old, new)
    assert text != TRACKING
    value = new.rsplit("= ", 1)[1]
    expect_error(text, new.rsplit("\n", 1)[-1], f"expected a finite number, got '{value}'")


def test_non_finite_pair_and_weight_rejected():
    text = TRACKING.replace("waypoint = 100, 0", "waypoint = 100, inf")
    expect_error(text, "waypoint = 100, inf", "waypoint: expected a finite number, got 'inf'")
    text = TRACKING.replace("weight = constant 0.5", "weight = constant nan")
    expect_error(text, "weight = constant nan", "weight: expected a finite number, got 'nan'")


def test_bad_int_seed():
    text = MINIMAL.replace("seed = 11", "seed = 3.5")
    expect_error(text, "seed = 3.5", "seed: expected an integer, got '3.5'")


def test_bad_bool():
    text = TRACKING.replace("feedforward = off", "feedforward = maybe")
    expect_error(text, "feedforward = maybe", "feedforward: expected on/off, got 'maybe'")


def test_bad_waypoint_pair():
    text = TRACKING.replace("waypoint = 100, 0", "waypoint = 100 0 7")
    expect_error(text, "waypoint = 100 0 7", "waypoint: expected two numbers")


def test_no_agents():
    text = "\n".join(MINIMAL.splitlines()[lineof(MINIMAL, "[controller]") - 1 :]) + "\n"
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario_text(text)
    assert "scenario defines no agents" in str(exc_info.value)
    assert exc_info.value.line is None


def test_zero_speed_points_at_speed_line():
    text = MINIMAL.replace("speed = 12", "speed = 0")
    expect_error(text, "speed = 0", "agent 2: speed must be positive, got 0.0")


def test_bad_gains_point_at_controller_section():
    text = MINIMAL.replace("gamma = 0.1", "gamma = -1")
    expect_error(text, "[controller]", "gamma must be positive")


def test_unknown_spacing_mode():
    text = TRACKING.replace("spacing = beacon_projected", "spacing = diamond")
    expect_error(text, "spacing = diamond",
                 "spacing: expected off | beacon | beacon_projected, got 'diamond'")


def test_unknown_reference_mode():
    text = MINIMAL.replace("mode = constant", "mode = drift")
    # vx/vy would now be unknown keys, but the mode error must fire first
    expect_error(text, "mode = drift", "unknown reference mode 'drift'")


def test_unknown_target_program():
    text = TRACKING.replace("program = waypoints", "program = zigzag")
    expect_error(text, "program = zigzag", "unknown target program 'zigzag'")


def test_waypoints_program_without_waypoints():
    text = TRACKING.replace("waypoint = 0 0\n", "").replace("waypoint = 100, 0\n", "")
    expect_error(text, "[target]", "needs at least one 'waypoint = x y'")


def test_waypoint_validation_bubbles_with_target_line():
    text = TRACKING.replace("waypoint = 100, 0", "waypoint = 0 0")
    expect_error(text, "[target]", "consecutive duplicate waypoints")


def test_turning_target_validation_bubbles_with_target_line():
    text = MINIMAL + "\n[target]\nprogram = turning\nx = 1\ny = 2\nspeed = -2\nkappa = 0.1\n"
    expect_error(text, "[target]", "turning-target speed must be positive")


def test_turning_reference_validation_bubbles_with_reference_line():
    text = MINIMAL.replace("mode = constant\nvx = 2\nvy = 0", "mode = turning\nspeed = -1\nkappa = 0.1")
    expect_error(text, "[reference]", "turning-reference speed must be non-negative")


def test_duration_without_a_step_points_at_duration_line():
    text = MINIMAL.replace("duration = 5\ndt = 0.05", "duration = 0.001\ndt = 0.02")
    expect_error(text, "duration = 0.001", "gives no steps of dt = 0.02 s")
    text = MINIMAL.replace("duration = 5\n", "duration = -1\n")
    expect_error(text, "duration = -1", "gives no steps")
    # a step count that overflows to inf is refused at the same line
    text = MINIMAL.replace("duration = 5\n", "duration = 1e308\n")
    expect_error(text, "duration = 1e308", "gives no finite number of steps of dt = 0.05 s")
    text = MINIMAL.replace("duration = 5\ndt = 0.05", "duration = 1e300\ndt = 1e-300")
    expect_error(text, "duration = 1e300", "gives no finite number of steps")


@pytest.mark.parametrize("old, new, message", [
    ("dt = 0.02", "dt = -0.02", "dt and duration must be positive"),
    ("dt = 0.02", "dt = 0", "dt and duration must be positive"),
    ("seed = 7", "seed = 7\ndisturbance = -1", "disturbance amplitude must be non-negative"),
], ids=["negative_dt", "zero_dt", "negative_disturbance"])
def test_run_settings_validation_points_at_sim_line(old, new, message):
    text = cli.bundled_scenario_text()
    assert old in text
    expect_error(text.replace(old, new), "[sim]", message)


def test_target_tracking_requires_target_section():
    lines = TRACKING.splitlines()
    start = lineof(TRACKING, "[target]") - 1
    end = start + 1
    while end < len(lines) and not lines[end].startswith("["):
        end += 1
    text = "\n".join(lines[:start] + lines[end:]) + "\n"
    expect_error(text, "[reference]",
                 "reference mode target_tracking requires a [target] section")


def test_weight_arity_error():
    text = TRACKING.replace("weight = constant 0.5", "weight = constant")
    expect_error(text, "weight = constant",
                 "weight: expected 'constant W' or 'distance_dependent SCALE'")


def test_weight_bad_number():
    text = TRACKING.replace("weight = constant 0.5", "weight = constant abc")
    expect_error(text, "weight = constant abc", "weight: expected a number, got 'abc'")


def test_weight_unknown_variant():
    text = TRACKING.replace("weight = constant 0.5", "weight = sometimes 0.5")
    expect_error(text, "weight = sometimes", "unknown weight variant 'sometimes'")


def test_weight_validation_bubbles():
    text = TRACKING.replace("weight = constant 0.5", "weight = constant -0.5")
    expect_error(text, "weight = constant -0.5", "constant weight must be positive")


def test_ground_truth_network_rejects_extra_keys():
    text = MINIMAL + "\n[network]\nmode = ground_truth\nlosses = 0.1\n"
    expect_error(text, "losses = 0.1", "unknown key 'losses' in [network]")


def test_ground_truth_network_accepts_broadcast_keys():
    keys = "agent_rate = 10\ntarget_rate = 5\nloss = 0.1\ndelay = 0.05\njitter = 0.01\n"
    text = MINIMAL + "\n[network]\nmode = ground_truth\n" + keys
    assert parse_scenario_text(text).network is None
    # the keys are validated in either mode
    bad = MINIMAL + "\n[network]\nmode = ground_truth\nloss = 1.5\n"
    expect_error(bad, "[network]", "loss_probability")


def test_unknown_network_mode():
    text = MINIMAL + "\n[network]\nmode = semaphore\n"
    expect_error(text, "mode = semaphore", "unknown network mode 'semaphore'")


def test_network_validation_bubbles():
    text = TRACKING.replace("loss = 0.1", "loss = 1.5")
    expect_error(text, "[network]", "loss_probability")


def test_non_positive_staleness_budget_rejected():
    text = TRACKING.replace("staleness_budget = 0.5", "staleness_budget = -1")
    expect_error(text, "[network]", "staleness_budget must be positive")


def test_infeasible_slow_agent_points_at_its_speed_line():
    text = MINIMAL.replace("vx = 2", "vx = 20")
    expect_error(
        text, "speed = 10",
        "infeasible: slowest agent speed 10.0 is below the reference speed bound 20.0",
    )


def test_infeasible_fast_agent_points_at_its_speed_line():
    text = MINIMAL.replace("speed = 16", "speed = 40")
    expect_error(
        text, "speed = 40",
        "infeasible: fastest agent speed 40.0 exceeds the sum of the other speeds 22.0",
    )


def test_allow_infeasible_key():
    text = MINIMAL.replace("speed = 16", "speed = 40")
    keyed = text.replace("seed = 11", "seed = 11\nallow_infeasible = yes")
    config = parse_scenario_text(keyed)
    assert config.allow_infeasible is True
    assert not config.feasibility().feasible


def test_scenario_error_line_attribute():
    err = ScenarioError("boom", 7)
    assert err.line == 7 and str(err) == "line 7: boom"
    bare = ScenarioError("boom")
    assert bare.line is None and str(bare) == "boom"


# --------------------------------------------------------------------------
# the key tables


# (section, variant, constructor, key table) for every table the parser reads;
# the variant is the [target] program or [reference] mode, "" for none.
KEY_TABLES = [
    ("agents", "", AgentInit, scenario._AGENT_KEYS),
    ("controller", "", ControllerGains, scenario._CONTROLLER_KEYS),
    ("network", "", NetworkConfig, scenario._NETWORK_KEYS),
    ("sim", "", ScenarioConfig, scenario._SIM_KEYS),
] + [
    (section, variant, cls, table)
    for section, variants in (("target", scenario._TARGETS), ("reference", scenario._REFERENCES))
    for variant, (cls, table) in variants.items()
]
# The keys that choose a section's variant, read before its table.
SELECTOR_KEYS = {("target", "program"), ("reference", "mode"), ("network", "mode")}


def field_default(field):
    """A dataclass field's default, or MISSING when it has none."""
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def test_key_tables_name_constructor_fields_and_their_defaults():
    for section, variant, cls, table in KEY_TABLES:
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, (name, _, required) in table.items():
            where = (section, variant, key)
            assert name in fields, where
            assert required == (field_default(fields[name]) is dataclasses.MISSING), where
