"""Golden fingerprints of short simulation runs.

Each case runs a small scenario and hashes every `RunLog` array, in field
order, with SHA-256. The cases cover ground-truth and networked information;
the beacon, projected-beacon and no-spacing laws; constant, turning and
target-tracking references; saturation, disturbance, dead reckoning, a
staleness budget, delay and jitter together; broadcast rates above 1/dt, so
that a source sends more than once in a step; and one group of 12 vehicles.

The hashes pin the exact bits the simulator produces with the numpy and libm
they were taken on. A change that has to alter bits (a new reduction order,
say) updates them here and reports its largest deviation from the old logs.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from swarmtrack.controllers import ControllerGains, SpacingMode
from swarmtrack.engine import (
    AgentInit,
    ConstantRef,
    RunLog,
    ScenarioConfig,
    TargetTracking,
    TurningRef,
    run,
)
from swarmtrack.netsim import NetworkConfig
from swarmtrack.reference import (
    ConstantVelocityTarget,
    DistanceDependentWeight,
    TurningTarget,
    WaypointTarget,
)

THREE = (
    AgentInit(position=(-150.0, 0.0), heading=math.pi, speed=10.0),
    AgentInit(position=(-236.6, -150.0), heading=-1.05, speed=12.0),
    AgentInit(position=(-63.4, -150.0), heading=1.05, speed=16.0),
)

TWELVE = tuple(
    AgentInit(
        position=(40.0 * math.cos(2.0 * math.pi * k / 12), 40.0 * math.sin(2.0 * math.pi * k / 12)),
        heading=0.5 * k - 2.0,
        speed=8.0 + 0.5 * (k % 5),
    )
    for k in range(12)
)

WEIGHT = DistanceDependentWeight(scale=0.1)


def fingerprint(log: RunLog) -> str:
    """SHA-256 over every array field of the log, in declaration order."""
    h = hashlib.sha256()
    for f in dataclasses.fields(RunLog):
        value = getattr(log, f.name)
        if isinstance(value, np.ndarray):
            h.update(f.name.encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _config(**kw):
    defaults = dict(agents=THREE, dt=0.02, duration=4.0, seed=7)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


CASES = {
    "truth_beacon_constant": lambda: _config(
        gains=ControllerGains(gamma=0.01, spacing_mode=SpacingMode.BEACON),
        reference_mode=ConstantRef(velocity=(3.0, 1.0)),
    ),
    "truth_off_turning": lambda: _config(
        gains=ControllerGains(gamma=0.02, spacing_mode=SpacingMode.OFF),
        reference_mode=TurningRef(speed=4.0, kappa=0.1, heading0=0.3),
    ),
    "truth_projected_tracking": lambda: _config(
        gains=ControllerGains(gamma=0.005, spacing_mode=SpacingMode.BEACON_PROJECTED),
        reference_mode=TargetTracking(WEIGHT),
        target=TurningTarget(initial_position=(20.0, -10.0), speed=2.0, kappa=0.05),
    ),
    "net_beacon_tracking": lambda: _config(
        gains=ControllerGains(gamma=0.001, spacing_mode=SpacingMode.BEACON),
        reference_mode=TargetTracking(WEIGHT),
        target=WaypointTarget(waypoints=((0, 0), (30, 0), (30, 30)), speed=2.0, dwell=1.0),
        network=NetworkConfig(agent_rate=10.0, target_rate=5.0, loss_probability=0.05),
    ),
    "net_projected_turning": lambda: _config(
        gains=ControllerGains(gamma=0.01, spacing_mode=SpacingMode.BEACON_PROJECTED),
        reference_mode=TurningRef(speed=3.0, kappa=-0.2),
        network=NetworkConfig(agent_rate=10.0, loss_probability=0.1),
    ),
    "net_stressed_tracking": lambda: _config(
        gains=ControllerGains(
            gamma=0.01, spacing_mode=SpacingMode.BEACON_PROJECTED, u_max=0.3,
        ),
        reference_mode=TargetTracking(WEIGHT),
        target=ConstantVelocityTarget(initial_position=(10.0, 5.0), velocity=(1.5, -0.5)),
        disturbance=0.05,
        network=NetworkConfig(
            agent_rate=8.0, target_rate=4.0, loss_probability=0.2, delay=0.05, jitter=0.07,
            extrapolate=True, staleness_budget=0.15,
        ),
    ),
    # both rates above 1/dt: most steps send two messages per source
    "net_burst_tracking": lambda: _config(
        gains=ControllerGains(gamma=0.01, spacing_mode=SpacingMode.BEACON),
        reference_mode=TargetTracking(WEIGHT),
        target=ConstantVelocityTarget(initial_position=(5.0, -5.0), velocity=(1.0, 0.5)),
        network=NetworkConfig(
            agent_rate=70.0, target_rate=60.0, loss_probability=0.2, delay=0.01, jitter=0.03,
        ),
    ),
    "net_twelve_off_constant": lambda: _config(
        agents=TWELVE,
        duration=2.0,
        gains=ControllerGains(gamma=0.02, spacing_mode=SpacingMode.OFF),
        reference_mode=ConstantRef(velocity=(-2.0, 3.0)),
        network=NetworkConfig(agent_rate=10.0, loss_probability=0.1, delay=0.03),
    ),
}

GOLDEN = {
    "net_burst_tracking": "671029c011ed8c6625700402071d42763a12e60f59735b38e072d9f77f81dd9b",
    "net_beacon_tracking": "dd6d75cc7cc6c35c286be2f4aa2ecbdae6f98c55ff35c040f216cfc4367772a2",
    "net_projected_turning": "bd7320db8918ff81aa6a331141d2cd969ac3f73bc1a16e3d2514e5535bc8b98b",
    "net_stressed_tracking": "6e26875af5ecac0c47e9886d65895d8b6070a1afed76d24c2fd23ee70357fd36",
    "net_twelve_off_constant": "567b6ad0f6ddc35eff1c370e796a1a046fd68de6668b0481225b36ea37bc6098",
    "truth_beacon_constant": "59b9f008992c9d2ace815edfad9f4b81cadfa0bfb46caa6cfb3d7bf0c04cd6d5",
    "truth_off_turning": "eb1fe1e9d1b51b6d1ce4e10c47e288b3c38bce2ac32d43c5e0b777b924d15840",
    "truth_projected_tracking": "b8293919e9edd676d86c335968f86453a710ef9c46b6d7aa52aac72c7c78c72e",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_fingerprint(name):
    assert fingerprint(run(CASES[name]())) == GOLDEN[name]
