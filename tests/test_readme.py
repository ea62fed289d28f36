"""The README's examples run as written."""

import re
from pathlib import Path

import numpy as np

from swarmtrack.scenario import parse_scenario_text

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(lang):
    """Bodies of the README's ```lang blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_scenario_file_parses():
    (text,) = fenced("ini")
    config = parse_scenario_text(text)
    assert config.n == 3
    assert tuple(config.speeds) == (10.0, 12.0, 16.0)
    assert (config.dt, config.duration, config.seed) == (0.05, 120.0, 11)


def test_readme_quickstart_runs(capsys):
    (code,) = fenced("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    log = namespace["log"]
    assert "final V = " in capsys.readouterr().out
    # what the quickstart's comments promise
    assert log.V[-1] < 1e-6
    np.testing.assert_allclose(log.centroid_vel[-1], [2.0, 0.0], atol=1e-3)
